package tee

import (
	"bytes"
	"errors"
	"slices"
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

// TestSealAllocations pins Seal to one buffer for the whole blob (nonce,
// ciphertext and tag) besides the additional-data bytes of its name.
func TestSealAllocations(t *testing.T) {
	s := newStore(t)
	value := bytes.Repeat([]byte{7}, 16<<10)
	if got := testing.AllocsPerRun(100, func() {
		if err := s.Seal("data/r1", value); err != nil {
			t.Fatal(err)
		}
	}); got != 2 {
		t.Errorf("Seal: %.0f allocations, want 2", got)
	}
}

// TestSealedBlobLayout checks that a blob is nonce ‖ ciphertext ‖ tag, the
// layout blobs had when Seal drew the nonce and appended a separately
// sealed ciphertext to it: a blob built that way still unseals, and a
// blob Seal builds opens as one.
func TestSealedBlobLayout(t *testing.T) {
	s := newStore(t)
	value := []byte("bob's medical dataset")
	ns := s.aead.NonceSize()

	nonce := bytes.Repeat([]byte{0x5a}, ns)
	s.entries["data/old"] = append(nonce, s.aead.Seal(nil, nonce, value, []byte("data/old"))...)
	if got, err := s.Unseal("data/old"); err != nil || !bytes.Equal(got, value) {
		t.Fatalf("blob built the old way: %q, %v", got, err)
	}

	if err := s.Seal("data/new", value); err != nil {
		t.Fatal(err)
	}
	blob := s.entries["data/new"]
	if len(blob) != ns+len(value)+s.aead.Overhead() {
		t.Fatalf("blob is %d bytes, want nonce %d + value %d + tag %d", len(blob), ns, len(value), s.aead.Overhead())
	}
	if got, err := s.aead.Open(nil, blob[:ns], blob[ns:], []byte("data/new")); err != nil || !bytes.Equal(got, value) {
		t.Fatalf("blob opened as nonce then ciphertext: %q, %v", got, err)
	}
}

// TestDeleteZeroesWholeBlob checks that Delete overwrites every byte of the
// sealed buffer, up to its capacity, before dropping it.
func TestDeleteZeroesWholeBlob(t *testing.T) {
	s := newStore(t)
	if err := s.Seal("data/r1", bytes.Repeat([]byte{0xff}, 1000)); err != nil {
		t.Fatal(err)
	}
	blob := s.entries["data/r1"]
	blob = blob[:cap(blob)]
	if !s.Delete("data/r1") {
		t.Fatal("Delete found nothing")
	}
	if i := slices.IndexFunc(blob, func(b byte) bool { return b != 0 }); i >= 0 {
		t.Fatalf("byte %d of %d survived Delete", i, len(blob))
	}
}
