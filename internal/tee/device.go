package tee

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"repro/internal/cryptoutil"
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
func NewManufacturer(name string) (*Manufacturer, error) {
	ca, err := cryptoutil.NewAuthority(name)
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
	store, err := NewSealedStore(secret, measurement)
	if err != nil {
		return nil, err
	}
	return &Device{
		key:         key,
		secret:      secret,
		measurement: measurement,
		cert:        cert,
		store:       store,
	}, nil
}

// Device is one consumer device with TEE support.
type Device struct {
	key         *cryptoutil.KeyPair
	secret      []byte
	measurement Measurement
	cert        *cryptoutil.Certificate
	store       *SealedStore
}

// Address returns the device's on-chain identity.
func (d *Device) Address() cryptoutil.Address { return d.key.Address() }

// Key returns the device key pair (inside the enclave; exposed here so
// higher layers can build blockchain clients bound to the device
// identity).
func (d *Device) Key() *cryptoutil.KeyPair { return d.key }

// CertificateBytes returns the JSON-encoded manufacturer certificate used
// for on-chain device registration.
func (d *Device) CertificateBytes() ([]byte, error) { return d.cert.Encode() }

// Quote is a remote attestation statement: the device signs a verifier
// nonce together with its measurement.
type Quote struct {
	// Measurement is the attested application code hash.
	Measurement Measurement `json:"measurement"`
	// Nonce is the verifier-supplied freshness challenge.
	Nonce []byte `json:"nonce"`
	// DeviceKey is the quoting device's public key.
	DeviceKey []byte `json:"deviceKey"`
	// Signature is the device signature over the quote body.
	Signature []byte `json:"signature"`
	// Certificate is the JSON manufacturer certificate for DeviceKey.
	Certificate []byte `json:"certificate"`
}

func quoteSigningBytes(measurement Measurement, nonce, deviceKey []byte) []byte {
	h := sha256.New()
	h.Write([]byte("quote|"))
	h.Write(measurement[:])
	h.Write(nonce)
	h.Write(deviceKey)
	return h.Sum(nil)
}

// Attest produces a quote over the verifier's nonce.
func (d *Device) Attest(nonce []byte) (*Quote, error) {
	sig, err := d.key.Sign(quoteSigningBytes(d.measurement, nonce, d.key.PublicBytes()))
	if err != nil {
		return nil, err
	}
	certRaw, err := d.cert.Encode()
	if err != nil {
		return nil, err
	}
	return &Quote{
		Measurement: d.measurement,
		Nonce:       append([]byte(nil), nonce...),
		DeviceKey:   d.key.PublicBytes(),
		Signature:   sig,
		Certificate: certRaw,
	}, nil
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
	pub, err := cryptoutil.ParsePublicKey(q.DeviceKey)
	if err != nil {
		return cryptoutil.Address{}, err
	}
	if !cryptoutil.Verify(pub, quoteSigningBytes(q.Measurement, q.Nonce, q.DeviceKey), q.Signature) {
		return cryptoutil.Address{}, fmt.Errorf("tee: quote signature invalid")
	}
	return cryptoutil.AddressOf(pub), nil
}
