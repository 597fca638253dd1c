package cryptoutil

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestGenerateKeyAndAddress(t *testing.T) {
	k1 := MustGenerateKey()
	k2 := MustGenerateKey()
	if k1.Address() == k2.Address() {
		t.Fatal("two fresh keys derived the same address")
	}
	if k1.Address().IsZero() {
		t.Fatal("derived address is zero")
	}
	if got := AddressOf(&k1.priv.PublicKey); got != k1.Address() {
		t.Fatalf("AddressOf = %s, want %s", got, k1.Address())
	}
}

func TestAddressShort(t *testing.T) {
	k := MustGenerateKey()
	s := k.Address().Short()
	if len(s) != 2+4+2+4 {
		t.Errorf("Short() = %q, unexpected length", s)
	}
}

func TestPublicKeyRoundTrip(t *testing.T) {
	k := MustGenerateKey()
	enc := k.PublicBytes()
	if len(enc) != 65 || enc[0] != 4 {
		t.Fatalf("unexpected public key encoding: len=%d first=%d", len(enc), enc[0])
	}
	pub, err := ParsePublicKey(enc)
	if err != nil {
		t.Fatalf("ParsePublicKey: %v", err)
	}
	if !pub.Equal(&k.priv.PublicKey) {
		t.Fatal("decoded key differs from original")
	}
}

func TestParsePublicKeyRejectsGarbage(t *testing.T) {
	for _, in := range [][]byte{nil, {}, {4, 1, 2}, bytes.Repeat([]byte{0xff}, 65)} {
		if _, err := ParsePublicKey(in); err == nil {
			t.Errorf("ParsePublicKey(%d bytes) succeeded, want error", len(in))
		}
	}
}

func TestSignVerify(t *testing.T) {
	k := MustGenerateKey()
	msg := []byte("usage control in solid")
	sig, err := k.Sign(msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if !Verify(&k.priv.PublicKey, msg, sig) {
		t.Fatal("Verify rejected a valid signature")
	}
	if Verify(&k.priv.PublicKey, []byte("tampered"), sig) {
		t.Fatal("Verify accepted a signature over a different message")
	}
	other := MustGenerateKey()
	if Verify(&other.priv.PublicKey, msg, sig) {
		t.Fatal("Verify accepted a signature under the wrong key")
	}
}

func TestVerifyWithAddress(t *testing.T) {
	k := MustGenerateKey()
	msg := []byte("tx payload")
	sig, err := k.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyWithAddress(k.Address(), k.PublicBytes(), msg, sig); err != nil {
		t.Fatalf("VerifyWithAddress: %v", err)
	}
	// Wrong address.
	other := MustGenerateKey()
	if err := VerifyWithAddress(other.Address(), k.PublicBytes(), msg, sig); err == nil {
		t.Fatal("accepted mismatched address")
	}
	// Tampered message.
	if err := VerifyWithAddress(k.Address(), k.PublicBytes(), []byte("x"), sig); err == nil {
		t.Fatal("accepted tampered message")
	}
	// Garbage key bytes.
	if err := VerifyWithAddress(k.Address(), []byte{1, 2, 3}, msg, sig); err == nil {
		t.Fatal("accepted garbage public key")
	}
}

func TestHashOf(t *testing.T) {
	h1 := HashOf([]byte("ab"), []byte("c"))
	h2 := HashOf([]byte("a"), []byte("bc"))
	if h1 == h2 {
		t.Fatal("length prefixing failed: boundary-shifted inputs collide")
	}
	if h1 == (Hash{}) {
		t.Fatal("hash should not be zero")
	}
	if h1 != HashOf([]byte("ab"), []byte("c")) {
		t.Fatal("HashOf is not deterministic")
	}
	if len(h1.String()) != 2+64 {
		t.Errorf("String() = %q", h1.String())
	}
	if len(h1.Short()) != 2+8 {
		t.Errorf("Short() = %q", h1.Short())
	}
}

// TestSignVerifyProperty: any message signed by a key verifies under that
// key and fails under a flipped message bit.
func TestSignVerifyProperty(t *testing.T) {
	k := MustGenerateKey()
	f := func(msg []byte) bool {
		sig, err := k.Sign(msg)
		if err != nil {
			return false
		}
		if !Verify(&k.priv.PublicKey, msg, sig) {
			return false
		}
		mutated := append([]byte{0xA5}, msg...)
		return !Verify(&k.priv.PublicKey, mutated, sig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPrivateKeyRoundTrip: PrivateBytes/ParsePrivateKey preserve the
// identity (address) and signing capability of a key pair.
func TestPrivateKeyRoundTrip(t *testing.T) {
	k := MustGenerateKey()
	der, err := k.PrivateBytes()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ParsePrivateKey(der)
	if err != nil {
		t.Fatal(err)
	}
	if k2.Address() != k.Address() {
		t.Fatalf("address changed across serialization: %s != %s", k2.Address(), k.Address())
	}
	msg := []byte("round trip")
	sig, err := k2.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyWithAddress(k.Address(), k.PublicBytes(), msg, sig); err != nil {
		t.Fatalf("signature from reparsed key rejected: %v", err)
	}
	if _, err := ParsePrivateKey([]byte("not a key")); err == nil {
		t.Fatal("garbage accepted as a private key")
	}
}
