package cryptoutil

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// Certificate is a signed claim envelope: an issuer attests a set of
// string claims about a subject key for a validity window.
//
// Certificates serve two roles in the architecture:
//
//   - the data market issues payment certificates that consumers present to
//     Pod Managers (Section II of the paper), and
//   - the simulated TEE manufacturer CA issues device certificates that
//     root attestation quotes.
type Certificate struct {
	// Serial uniquely identifies the certificate within its issuer.
	Serial uint64
	// Subject is the address of the certified key.
	Subject Address
	// SubjectKey is the uncompressed-point encoding of the certified key.
	SubjectKey []byte
	// Claims carries the attested attributes (e.g. "feePaid": "resource-iri").
	Claims map[string]string
	// NotBefore and NotAfter bound the validity window.
	NotBefore time.Time
	NotAfter  time.Time
	// Issuer is the address of the signing authority.
	Issuer Address
	// Signature is the issuer's ASN.1 ECDSA signature over SigningBytes.
	Signature []byte
}

// tagCertificate opens a certificate's encoding.
const tagCertificate byte = 0x31

// SigningBytes returns the bytes the issuer signs: the certificate's
// encoding (Encode) up to, and without, its trailing signature.
func (c *Certificate) SigningBytes() []byte { return c.appendBody(0) }

// Encode returns the certificate's one byte form, in store's codec: the
// tag, Serial, Subject (20 raw bytes), SubjectKey, the claims as a count
// and key/value strings in ascending key order, NotBefore and NotAfter in
// store.AppendUTC's form, Issuer (20 raw bytes), and the signature last.
// It is what an HTTP header and registerDevice carry; the signature covers
// all of it but the signature (SigningBytes).
func (c *Certificate) Encode() []byte {
	return store.AppendBytes(c.appendBody(10+len(c.Signature)), c.Signature)
}

// appendBody returns the encoding without the signature, in a buffer with
// room for extra more bytes.
func (c *Certificate) appendBody(extra int) []byte {
	var buf [2]string // room for a market or device certificate's claims, off the heap
	keys := buf[:0]
	size := 1 + 10 + len(c.Subject) + 10 + len(c.SubjectKey) + 10 + 2*16 + len(c.Issuer) + extra
	for k, v := range c.Claims {
		keys = append(keys, k)
		size += 20 + len(k) + len(v)
	}
	slices.Sort(keys)
	b := append(make([]byte, 0, size), tagCertificate)
	b = store.AppendUvarint(b, c.Serial)
	b = append(b, c.Subject[:]...)
	b = store.AppendBytes(b, c.SubjectKey)
	b = store.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = store.AppendString(store.AppendString(b, k), c.Claims[k])
	}
	b = store.AppendUTC(b, c.NotBefore)
	b = store.AppendUTC(b, c.NotAfter)
	return append(b, c.Issuer[:]...)
}

// DecodeCertificate parses a certificate's encoding (Encode). It accepts
// exactly the bytes Encode writes: claim keys out of order or repeated, a
// time in another spelling, or trailing bytes fail the decode.
func DecodeCertificate(data []byte) (*Certificate, error) {
	d := store.NewDec(data)
	d.Tag(tagCertificate)
	c := &Certificate{Serial: d.Uvarint()}
	d.Raw(c.Subject[:])
	c.SubjectKey = d.Bytes()
	// A claim is two length-prefixed strings: two bytes at least.
	if n := d.Count("claims", uint64(d.Remaining()/2)); n > 0 {
		c.Claims = make(map[string]string, min(n, store.DecodeCapHint))
		prev := ""
		for i := range n {
			k, v := d.String(), d.String()
			if d.Err() != nil {
				break
			}
			if i > 0 && k <= prev {
				return nil, fmt.Errorf("cryptoutil: decode certificate: %w: claim %q after %q", store.ErrCodec, k, prev)
			}
			c.Claims[k], prev = v, k
		}
	}
	c.NotBefore = d.UTC()
	c.NotAfter = d.UTC()
	d.Raw(c.Issuer[:])
	c.Signature = d.Bytes()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("cryptoutil: decode certificate: %w", err)
	}
	return c, nil
}

// Certificate verification errors, matchable with errors.Is.
var (
	ErrCertExpired      = errors.New("certificate expired")
	ErrCertNotYetValid  = errors.New("certificate not yet valid")
	ErrCertBadSignature = errors.New("certificate signature invalid")
	ErrCertWrongIssuer  = errors.New("certificate issuer mismatch")
	ErrCertSubjectKey   = errors.New("certificate subject key does not match subject address")
)

// Verify checks that the certificate (i) names the issuer whose public
// key (uncompressed point) is given, (ii) has a subject key that hashes to
// the subject address, (iii) carries a valid issuer signature, and (iv) is
// within its validity window at now. A certificate is made to be presented
// many times, so (iii) goes through VerifyCached; (i), (ii) and (iv) are
// evaluated on every call.
func (c *Certificate) Verify(issuerPubBytes []byte, now time.Time) error {
	if want := addressOfKeyBytes(issuerPubBytes); c.Issuer != want {
		return fmt.Errorf("%w: got %s, want %s", ErrCertWrongIssuer, c.Issuer, want)
	}
	subjPub, err := ParsePublicKey(c.SubjectKey)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCertSubjectKey, err)
	}
	if AddressOf(subjPub) != c.Subject {
		return ErrCertSubjectKey
	}
	issuerPub, err := ParsePublicKey(issuerPubBytes)
	if err != nil {
		return fmt.Errorf("cryptoutil: issuer key: %w", err)
	}
	if !VerifyCached(issuerPub, c.SigningBytes(), c.Signature) {
		return ErrCertBadSignature
	}
	if now.Before(c.NotBefore) {
		return fmt.Errorf("%w: valid from %s", ErrCertNotYetValid, c.NotBefore)
	}
	if now.After(c.NotAfter) {
		return fmt.Errorf("%w: valid until %s", ErrCertExpired, c.NotAfter)
	}
	return nil
}

// Authority is a minimal certificate authority: it issues certificates
// signed with its key pair.
type Authority struct {
	key *KeyPair
	// serial numbers the issued certificates; atomic because issuance is
	// concurrent (market.Service.PayFee issues outside its own lock).
	serial atomic.Uint64
}

// NewAuthority creates an authority with a fresh key pair.
func NewAuthority() (*Authority, error) {
	kp, err := GenerateKey(nil)
	if err != nil {
		return nil, err
	}
	return &Authority{key: kp}, nil
}

// PublicBytes returns the authority's public key encoding, which verifiers
// pin out of band.
func (a *Authority) PublicBytes() []byte { return a.key.PublicBytes() }

// Issue signs a certificate for the subject key with the given claims and
// validity window.
func (a *Authority) Issue(subject *KeyPair, claims map[string]string, notBefore, notAfter time.Time) (*Certificate, error) {
	return a.IssueForKey(subject.Address(), subject.PublicBytes(), claims, notBefore, notAfter)
}

// IssueForKey signs a certificate for an externally held key.
func (a *Authority) IssueForKey(subject Address, subjectKey []byte, claims map[string]string, notBefore, notAfter time.Time) (*Certificate, error) {
	if notAfter.Before(notBefore) {
		return nil, fmt.Errorf("cryptoutil: invalid validity window [%s, %s]", notBefore, notAfter)
	}
	serial := a.serial.Add(1)
	claimsCopy := make(map[string]string, len(claims))
	for k, v := range claims {
		claimsCopy[k] = v
	}
	cert := &Certificate{
		Serial:     serial,
		Subject:    subject,
		SubjectKey: subjectKey,
		Claims:     claimsCopy,
		NotBefore:  notBefore,
		NotAfter:   notAfter,
		Issuer:     a.key.Address(),
	}
	sig, err := a.key.Sign(cert.SigningBytes())
	if err != nil {
		return nil, err
	}
	cert.Signature = sig
	return cert, nil
}
