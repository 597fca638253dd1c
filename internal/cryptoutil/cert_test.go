package cryptoutil

import (
	"errors"
	"testing"
	"time"
)

var testEpoch = time.Date(2023, 10, 9, 12, 0, 0, 0, time.UTC)

func issueTestCert(t *testing.T) (*Authority, *KeyPair, *Certificate) {
	t.Helper()
	ca, err := NewAuthority("market")
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
		other, err := NewAuthority("impostor")
		if err != nil {
			t.Fatal(err)
		}
		if err := cert.Verify(other.PublicBytes(), now); !errors.Is(err, ErrCertWrongIssuer) {
			t.Fatalf("err = %v, want ErrCertWrongIssuer", err)
		}
		// The issuer a certificate names is checked against the trusted
		// key's own address, derived from its bytes without allocating.
		renamed := *cert
		renamed.Issuer = other.Address()
		if err := renamed.Verify(ca.PublicBytes(), now); !errors.Is(err, ErrCertWrongIssuer) {
			t.Fatalf("certificate naming another issuer: err = %v, want ErrCertWrongIssuer", err)
		}
		pub := ca.PublicBytes()
		if addressOfKeyBytes(pub) != ca.Address() {
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
	data, err := cert.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCertificate(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Verify(ca.PublicBytes(), testEpoch.Add(time.Hour)); err != nil {
		t.Fatalf("decoded certificate failed verification: %v", err)
	}
	if back.Claims["feePaid"] != cert.Claims["feePaid"] {
		t.Fatal("claims lost in round trip")
	}
	if _, err := DecodeCertificate([]byte("{not json")); err == nil {
		t.Fatal("DecodeCertificate accepted garbage")
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
	ca, err := NewAuthority("market")
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
	ca, err := NewAuthority("market")
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
