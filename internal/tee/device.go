package tee

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/store"
)

// Measurement identifies the code of a trusted application, as a hash.
type Measurement = cryptoutil.Hash

// MeasurementOf computes the measurement of a trusted application
// identity string (standing in for hashing the enclave binary).
func MeasurementOf(appIdentity string) Measurement {
	return cryptoutil.HashOf([]byte("measurement|" + appIdentity))
}

// Manufacturer is the TEE vendor: it provisions devices with certified
// keys, acting as the attestation root of trust (the analogue of Intel's
// attestation service).
type Manufacturer struct {
	ca *cryptoutil.Authority
}

// NewManufacturer creates a manufacturer with a fresh CA key.
func NewManufacturer() (*Manufacturer, error) {
	ca, err := cryptoutil.NewAuthority()
	if err != nil {
		return nil, err
	}
	return &Manufacturer{ca: ca}, nil
}

// CAPublicBytes returns the CA public key that verifiers pin.
func (m *Manufacturer) CAPublicBytes() []byte { return m.ca.PublicBytes() }

// Provision creates a device running the trusted application with the
// given measurement, issuing its attestation certificate valid for the
// given window.
func (m *Manufacturer) Provision(measurement Measurement, notBefore, notAfter time.Time) (*Device, error) {
	key, err := cryptoutil.GenerateKey(nil)
	if err != nil {
		return nil, err
	}
	secret := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, secret); err != nil {
		return nil, fmt.Errorf("tee: device secret: %w", err)
	}
	cert, err := m.ca.Issue(key, map[string]string{
		"measurement": hex.EncodeToString(measurement[:]),
	}, notBefore, notAfter)
	if err != nil {
		return nil, err
	}
	sealed, err := NewSealedStore(secret, measurement)
	if err != nil {
		return nil, err
	}
	return &Device{
		key:         key,
		measurement: measurement,
		cert:        cert.Encode(),
		store:       sealed,
	}, nil
}

// Device is one consumer device with TEE support.
type Device struct {
	key         *cryptoutil.KeyPair
	measurement Measurement
	cert        []byte // the manufacturer certificate's encoding, made once at Provision
	store       *SealedStore
}

// Address returns the device's on-chain identity.
func (d *Device) Address() cryptoutil.Address { return d.key.Address() }

// Key returns the device key pair (inside the enclave; exposed here so
// higher layers can build blockchain clients bound to the device
// identity).
func (d *Device) Key() *cryptoutil.KeyPair { return d.key }

// CertificateBytes returns the manufacturer certificate's encoding
// (cryptoutil.Certificate.Encode), the argument of on-chain device
// registration. The slice is the device's own: callers must not modify it.
func (d *Device) CertificateBytes() []byte { return d.cert }

// Quote is a remote attestation statement: the device signs a verifier
// nonce together with its measurement.
type Quote struct {
	// Measurement is the attested application code hash.
	Measurement Measurement
	// Nonce is the verifier-supplied freshness challenge.
	Nonce []byte
	// DeviceKey is the quoting device's public key.
	DeviceKey []byte
	// Certificate is the manufacturer certificate for DeviceKey, in its
	// encoding (cryptoutil.Certificate.Encode).
	Certificate []byte
	// Signature is the device signature over SigningBytes.
	Signature []byte
}

// tagQuote opens a quote's encoding.
const tagQuote byte = 0x32

// SigningBytes returns the bytes the device signs: the quote's encoding
// (Encode) up to, and without, its trailing signature. It covers the
// certificate too, and the length prefixes keep the fields apart.
func (q *Quote) SigningBytes() []byte { return q.appendBody(0) }

// Encode returns the quote's one byte form, in store's codec: the tag,
// the measurement (32 raw bytes), Nonce, DeviceKey, Certificate, and the
// signature last, which covers all that precedes it (SigningBytes).
func (q *Quote) Encode() []byte {
	return store.AppendBytes(q.appendBody(binary.MaxVarintLen32+len(q.Signature)), q.Signature)
}

// appendBody returns the encoding without the signature, in a buffer with
// room for extra more bytes.
func (q *Quote) appendBody(extra int) []byte {
	b := make([]byte, 0, 1+len(q.Measurement)+3*binary.MaxVarintLen32+len(q.Nonce)+len(q.DeviceKey)+len(q.Certificate)+extra)
	b = append(append(b, tagQuote), q.Measurement[:]...)
	b = store.AppendBytes(b, q.Nonce)
	b = store.AppendBytes(b, q.DeviceKey)
	return store.AppendBytes(b, q.Certificate)
}

// DecodeQuote parses a quote's encoding (Quote.Encode), refusing trailing
// bytes. The certificate stays encoded; VerifyQuote decodes it.
func DecodeQuote(data []byte) (*Quote, error) {
	d := store.NewDec(data)
	d.Tag(tagQuote)
	q := &Quote{}
	d.Raw(q.Measurement[:])
	q.Nonce = d.Bytes()
	q.DeviceKey = d.Bytes()
	q.Certificate = d.Bytes()
	q.Signature = d.Bytes()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("tee: decode quote: %w", err)
	}
	return q, nil
}

// Attest produces a quote over the verifier's nonce. The quote's
// Certificate is the device's own encoding (CertificateBytes), not a copy.
func (d *Device) Attest(nonce []byte) (*Quote, error) {
	q := &Quote{
		Measurement: d.measurement,
		Nonce:       append([]byte(nil), nonce...),
		DeviceKey:   d.key.PublicBytes(),
		Certificate: d.cert,
	}
	sig, err := d.key.Sign(q.SigningBytes())
	if err != nil {
		return nil, err
	}
	q.Signature = sig
	return q, nil
}

// VerifyQuote checks a quote against the pinned manufacturer CA, the
// expected nonce, and (optionally) an expected measurement. It returns the
// quoting device's address on success.
func VerifyQuote(q *Quote, caPub []byte, nonce []byte, expectMeasurement *Measurement, now time.Time) (cryptoutil.Address, error) {
	if string(q.Nonce) != string(nonce) {
		return cryptoutil.Address{}, fmt.Errorf("tee: quote nonce mismatch")
	}
	if expectMeasurement != nil && q.Measurement != *expectMeasurement {
		return cryptoutil.Address{}, fmt.Errorf("tee: measurement %s, want %s", q.Measurement, *expectMeasurement)
	}
	cert, err := cryptoutil.DecodeCertificate(q.Certificate)
	if err != nil {
		return cryptoutil.Address{}, err
	}
	if err := cert.Verify(caPub, now); err != nil {
		return cryptoutil.Address{}, fmt.Errorf("tee: quote certificate: %w", err)
	}
	if string(cert.SubjectKey) != string(q.DeviceKey) {
		return cryptoutil.Address{}, fmt.Errorf("tee: quote key does not match certificate")
	}
	certMeasurement, ok := cert.Claims["measurement"]
	if !ok || certMeasurement != hex.EncodeToString(q.Measurement[:]) {
		return cryptoutil.Address{}, fmt.Errorf("tee: certificate measurement does not match quote")
	}
	pub, device, err := cryptoutil.ParsePublicKey(q.DeviceKey)
	if err != nil {
		return cryptoutil.Address{}, err
	}
	if !cryptoutil.Verify(pub, q.SigningBytes(), q.Signature) {
		return cryptoutil.Address{}, fmt.Errorf("tee: quote signature invalid")
	}
	return device, nil
}
