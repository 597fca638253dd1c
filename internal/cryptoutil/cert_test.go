package cryptoutil

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

var testEpoch = time.Date(2023, 10, 9, 12, 0, 0, 0, time.UTC)

func issueTestCert(t *testing.T) (*Authority, *KeyPair, *Certificate) {
	t.Helper()
	ca, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	subject := MustGenerateKey()
	cert, err := ca.Issue(subject,
		map[string]string{"feePaid": "https://bob.pod/medical/ds1", "plan": "basic"},
		testEpoch, testEpoch.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	return ca, subject, cert
}

func TestCertificateIssueVerify(t *testing.T) {
	ca, subject, cert := issueTestCert(t)
	if cert.Subject != subject.Address() {
		t.Fatalf("subject = %s, want %s", cert.Subject, subject.Address())
	}
	now := testEpoch.Add(time.Hour)
	if err := cert.Verify(ca.PublicBytes(), now); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestCertificateValidityWindow(t *testing.T) {
	ca, _, cert := issueTestCert(t)
	if err := cert.Verify(ca.PublicBytes(), testEpoch.Add(-time.Minute)); !errors.Is(err, ErrCertNotYetValid) {
		t.Fatalf("before window: err = %v, want ErrCertNotYetValid", err)
	}
	if err := cert.Verify(ca.PublicBytes(), testEpoch.Add(25*time.Hour)); !errors.Is(err, ErrCertExpired) {
		t.Fatalf("after window: err = %v, want ErrCertExpired", err)
	}
}

func TestCertificateTamperDetection(t *testing.T) {
	ca, _, cert := issueTestCert(t)
	now := testEpoch.Add(time.Hour)

	t.Run("claims", func(t *testing.T) {
		tampered := *cert
		tampered.Claims = map[string]string{"feePaid": "https://bob.pod/medical/OTHER"}
		if err := tampered.Verify(ca.PublicBytes(), now); !errors.Is(err, ErrCertBadSignature) {
			t.Fatalf("err = %v, want ErrCertBadSignature", err)
		}
	})
	t.Run("subject swap", func(t *testing.T) {
		mallory := MustGenerateKey()
		tampered := *cert
		tampered.Subject = mallory.Address()
		tampered.SubjectKey = mallory.PublicBytes()
		if err := tampered.Verify(ca.PublicBytes(), now); !errors.Is(err, ErrCertBadSignature) {
			t.Fatalf("err = %v, want ErrCertBadSignature", err)
		}
	})
	t.Run("subject key mismatch", func(t *testing.T) {
		mallory := MustGenerateKey()
		tampered := *cert
		tampered.SubjectKey = mallory.PublicBytes()
		if err := tampered.Verify(ca.PublicBytes(), now); !errors.Is(err, ErrCertSubjectKey) {
			t.Fatalf("err = %v, want ErrCertSubjectKey", err)
		}
	})
	t.Run("wrong issuer", func(t *testing.T) {
		other, err := NewAuthority()
		if err != nil {
			t.Fatal(err)
		}
		if err := cert.Verify(other.PublicBytes(), now); !errors.Is(err, ErrCertWrongIssuer) {
			t.Fatalf("err = %v, want ErrCertWrongIssuer", err)
		}
		// The issuer a certificate names is checked against the trusted
		// key's own address, derived from its bytes without allocating.
		renamed := *cert
		renamed.Issuer = other.key.Address()
		if err := renamed.Verify(ca.PublicBytes(), now); !errors.Is(err, ErrCertWrongIssuer) {
			t.Fatalf("certificate naming another issuer: err = %v, want ErrCertWrongIssuer", err)
		}
		pub := ca.PublicBytes()
		if addressOfKeyBytes(pub) != ca.key.Address() {
			t.Fatal("address from key bytes differs from the authority's address")
		}
		if n := testing.AllocsPerRun(100, func() { _ = addressOfKeyBytes(pub) }); n != 0 {
			t.Fatalf("address from key bytes allocates %v times", n)
		}
	})
	t.Run("forged signature", func(t *testing.T) {
		mallory := MustGenerateKey()
		tampered := *cert
		sig, err := mallory.Sign(tampered.SigningBytes())
		if err != nil {
			t.Fatal(err)
		}
		tampered.Signature = sig
		if err := tampered.Verify(ca.PublicBytes(), now); !errors.Is(err, ErrCertBadSignature) {
			t.Fatalf("err = %v, want ErrCertBadSignature", err)
		}
	})
}

func TestCertificateEncodeDecode(t *testing.T) {
	ca, _, cert := issueTestCert(t)
	data := cert.Encode()
	back, err := DecodeCertificate(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Verify(ca.PublicBytes(), testEpoch.Add(time.Hour)); err != nil {
		t.Fatalf("decoded certificate failed verification: %v", err)
	}
	if !reflect.DeepEqual(back.Claims, cert.Claims) {
		t.Fatalf("claims %v after the round trip, want %v", back.Claims, cert.Claims)
	}
	if again := back.Encode(); !bytes.Equal(again, data) {
		t.Fatalf("re-encoding differs:\n got %x\nwant %x", again, data)
	}

	// 1 000 seeded certificates: '|', '=', quotes and invalid UTF-8 in
	// claims, zero times, empty keys and signatures. Each round-trips, and
	// what the issuer signs is the encoding less its signature.
	r := rand.New(rand.NewSource(21))
	blob := func(n int) []byte {
		if r.Intn(4) == 0 {
			return nil
		}
		b := make([]byte, r.Intn(n))
		r.Read(b)
		return b
	}
	text := func() string {
		alphabet := []string{"", "a", "|", ";", "=", "\"", "\\", "\n", "ü", "東", "\x00", "\xff", "claim"}
		var b strings.Builder
		for range r.Intn(6) {
			b.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		return b.String()
	}
	for i := range 1000 {
		c := &Certificate{Serial: r.Uint64() >> r.Intn(64), SubjectKey: blob(70), Signature: blob(72)}
		r.Read(c.Subject[:])
		r.Read(c.Issuer[:])
		if r.Intn(8) != 0 {
			c.NotBefore, c.NotAfter = time.Unix(0, r.Int63()).UTC(), time.Unix(0, -r.Int63()).UTC()
		}
		for range r.Intn(5) {
			if c.Claims == nil {
				c.Claims = map[string]string{}
			}
			c.Claims[text()] = text()
		}
		enc := c.Encode()
		if got := store.AppendBytes(c.SigningBytes(), c.Signature); !bytes.Equal(got, enc) {
			t.Fatalf("case %d: SigningBytes and signature\n %x\nare not the encoding\n %x", i, got, enc)
		}
		back, err := DecodeCertificate(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if again := back.Encode(); !bytes.Equal(again, enc) {
			t.Fatalf("case %d: re-encoding differs:\n got %x\nwant %x", i, again, enc)
		}
	}
}

// TestCertificateDecodeRefusesOtherSpellings: a certificate has one
// encoding, so every other spelling of the same fields fails the decode.
func TestCertificateDecodeRefusesOtherSpellings(t *testing.T) {
	_, subject, _ := issueTestCert(t)
	// Claims written as given, not sorted: the decoder must check order.
	spell := func(claims ...string) []byte {
		c := Certificate{Serial: 7, Subject: subject.Address(), SubjectKey: subject.PublicBytes(),
			NotBefore: testEpoch, NotAfter: testEpoch.Add(time.Hour), Signature: []byte{0x30, 1, 2}}
		b := append([]byte{tagCertificate}, store.AppendUvarint(nil, c.Serial)...)
		b = append(b, c.Subject[:]...)
		b = store.AppendBytes(b, c.SubjectKey)
		b = store.AppendUvarint(b, uint64(len(claims)/2))
		for _, s := range claims {
			b = store.AppendString(b, s)
		}
		b = store.AppendUTC(store.AppendUTC(b, c.NotBefore), c.NotAfter)
		b = append(b, c.Issuer[:]...)
		return store.AppendBytes(b, c.Signature)
	}
	if _, err := DecodeCertificate(spell("a", "1", "b", "2")); err != nil {
		t.Fatalf("sorted claims refused: %v", err)
	}
	local := spell("a", "1")
	at := bytes.Index(local, store.AppendUTC(nil, testEpoch))
	zoned, err := testEpoch.In(time.FixedZone("CEST", 2*3600)).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	zoned = append(append(append(local[:at:at], byte(len(zoned))), zoned...), local[at+16:]...)
	for name, b := range map[string][]byte{
		"JSON":               []byte(`{"serial":1}`),
		"empty":              nil,
		"unsorted claims":    spell("b", "2", "a", "1"),
		"repeated claim key": spell("a", "1", "a", "2"),
		"zoned time":         zoned,
		"trailing byte":      append(spell("a", "1"), 0),
		"truncated":          local[:len(local)-1],
	} {
		if _, err := DecodeCertificate(b); !errors.Is(err, store.ErrCodec) {
			t.Errorf("%s: err = %v, want store.ErrCodec", name, err)
		}
	}
}

func TestAuthoritySerialsIncrease(t *testing.T) {
	ca, subject, first := issueTestCert(t)
	second, err := ca.Issue(subject, nil, testEpoch, testEpoch.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if second.Serial <= first.Serial {
		t.Fatalf("serials not increasing: %d then %d", first.Serial, second.Serial)
	}
}

func TestAuthorityRejectsInvertedWindow(t *testing.T) {
	ca, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Issue(MustGenerateKey(), nil, testEpoch, testEpoch.Add(-time.Hour)); err == nil {
		t.Fatal("Issue accepted an inverted validity window")
	}
}

func TestSigningBytesClaimOrderIndependence(t *testing.T) {
	k := MustGenerateKey()
	c1 := &Certificate{Serial: 1, Subject: k.Address(), SubjectKey: k.PublicBytes(),
		Claims: map[string]string{"a": "1", "b": "2", "c": "3"}}
	c2 := &Certificate{Serial: 1, Subject: k.Address(), SubjectKey: k.PublicBytes(),
		Claims: map[string]string{"c": "3", "b": "2", "a": "1"}}
	if string(c1.SigningBytes()) != string(c2.SigningBytes()) {
		t.Fatal("SigningBytes depends on map iteration order")
	}
}

func TestAuthorityIssueCopiesClaims(t *testing.T) {
	ca, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	claims := map[string]string{"k": "v"}
	cert, err := ca.Issue(MustGenerateKey(), claims, testEpoch, testEpoch.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	claims["k"] = "mutated"
	if cert.Claims["k"] != "v" {
		t.Fatal("Issue did not copy the claims map")
	}
}

// FuzzCertificateDecode: DecodeCertificate never panics, and what it
// accepts is Encode's output, byte for byte, so a certificate has one
// encoding; the bytes its signature covers are that encoding less the
// signature.
func FuzzCertificateDecode(f *testing.F) {
	ca, err := NewAuthority()
	if err != nil {
		f.Fatal(err)
	}
	subject := MustGenerateKey()
	for _, claims := range []map[string]string{
		nil,
		{"feePaid": "https://bob.pod/medical/ds1"},
		{"measurement": "00ff", "plan": "basic", "": ""},
	} {
		cert, err := ca.Issue(subject, claims, testEpoch, testEpoch.Add(time.Hour))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(cert.Encode())
	}
	for _, c := range vecCertificates() {
		f.Add(c.Encode())
	}
	f.Add([]byte(`{"serial":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCertificate(data)
		if err != nil {
			return
		}
		if again := c.Encode(); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, re-encodes to %x", data, again)
		}
		if signed := store.AppendBytes(c.SigningBytes(), c.Signature); !bytes.Equal(signed, data) {
			t.Fatalf("accepted %x, but SigningBytes and signature are %x", data, signed)
		}
	})
}
