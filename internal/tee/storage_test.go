package tee

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func newStore(t *testing.T) *SealedStore {
	t.Helper()
	s, err := NewSealedStore([]byte("device-secret-0123456789abcdef"), MeasurementOf("app-v1"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSealUnsealRoundTrip(t *testing.T) {
	s := newStore(t)
	plain := []byte("bob's medical dataset")
	if err := s.Seal("data/r1", plain); err != nil {
		t.Fatal(err)
	}
	got, err := s.Unseal("data/r1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatalf("unsealed %q, want %q", got, plain)
	}
	if s.Len() != 1 {
		t.Fatal("bookkeeping wrong")
	}
}

func TestUnsealMissing(t *testing.T) {
	s := newStore(t)
	if _, err := s.Unseal("nope"); !errors.Is(err, ErrSealedNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestCiphertextDoesNotLeakPlaintext(t *testing.T) {
	s := newStore(t)
	plain := []byte("very secret browsing history rows")
	if err := s.Seal("data/r1", plain); err != nil {
		t.Fatal(err)
	}
	blob, ok := s.entries["data/r1"]
	if !ok {
		t.Fatal("blob missing")
	}
	if bytes.Contains(blob, plain) || bytes.Contains(blob, plain[:8]) {
		t.Fatal("plaintext visible in sealed blob")
	}
}

func TestSealedBlobTamperDetected(t *testing.T) {
	s := newStore(t)
	if err := s.Seal("data/r1", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	blob := bytes.Clone(s.entries["data/r1"])
	blob[len(blob)-1] ^= 0xFF
	s.entries["data/r1"] = blob
	if _, err := s.Unseal("data/r1"); !errors.Is(err, ErrUnsealFailed) {
		t.Fatalf("tampered blob unsealed: %v", err)
	}
}

func TestSealedBlobSwapDetected(t *testing.T) {
	s := newStore(t)
	if err := s.Seal("data/a", []byte("A")); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal("data/b", []byte("B")); err != nil {
		t.Fatal(err)
	}
	// Host swaps the two ciphertexts; name binding must break decryption.
	blobA := s.entries["data/a"]
	blobB := s.entries["data/b"]
	s.entries["data/a"] = blobB
	s.entries["data/b"] = blobA
	if _, err := s.Unseal("data/a"); !errors.Is(err, ErrUnsealFailed) {
		t.Fatalf("swapped blob unsealed: %v", err)
	}
}

func TestDifferentDeviceCannotUnseal(t *testing.T) {
	s1 := newStore(t)
	if err := s1.Seal("data/r1", []byte("sealed to s1")); err != nil {
		t.Fatal(err)
	}
	blob := s1.entries["data/r1"]

	s2, err := NewSealedStore([]byte("other-device-secret-fedcba9876543"), MeasurementOf("app-v1"))
	if err != nil {
		t.Fatal(err)
	}
	s2.entries["data/r1"] = blob
	if _, err := s2.Unseal("data/r1"); !errors.Is(err, ErrUnsealFailed) {
		t.Fatalf("cross-device unseal: %v", err)
	}
}

func TestDifferentMeasurementCannotUnseal(t *testing.T) {
	secret := []byte("same-device-secret-0123456789abc")
	s1, err := NewSealedStore(secret, MeasurementOf("app-v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Seal("data/r1", []byte("sealed to app-v1")); err != nil {
		t.Fatal(err)
	}
	blob := s1.entries["data/r1"]

	s2, err := NewSealedStore(secret, MeasurementOf("app-v2-modified"))
	if err != nil {
		t.Fatal(err)
	}
	s2.entries["data/r1"] = blob
	if _, err := s2.Unseal("data/r1"); !errors.Is(err, ErrUnsealFailed) {
		t.Fatalf("cross-measurement unseal: %v", err)
	}
}

func TestDeleteErases(t *testing.T) {
	s := newStore(t)
	if err := s.Seal("data/r1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if !s.Delete("data/r1") {
		t.Fatal("Delete reported missing")
	}
	if s.Delete("data/r1") {
		t.Fatal("double Delete reported success")
	}
	if s.Len() != 0 {
		t.Fatal("entry survived delete")
	}
}

// TestSealUnsealProperty: arbitrary payloads round-trip.
func TestSealUnsealProperty(t *testing.T) {
	s := newStore(t)
	i := 0
	f := func(payload []byte) bool {
		i++
		name := string(rune('a'+i%26)) + "/entry"
		if err := s.Seal(name, payload); err != nil {
			return false
		}
		got, err := s.Unseal(name)
		if err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
