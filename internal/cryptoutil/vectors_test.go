package cryptoutil

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
)

// Frozen vectors for the certificate's two byte strings, SigningBytes and
// Encode, and for HashOf. refHashOf is HashOf as commit d71331e had it
// (unpooled), kept here only.

func refHashOf(parts ...[]byte) Hash {
	hsh := sha256.New()
	for _, p := range parts {
		var n [8]byte
		for i, v := 7, uint64(len(p)); i >= 0; i, v = i-1, v>>8 {
			n[i] = byte(v)
		}
		hsh.Write(n[:])
		hsh.Write(p)
	}
	return Hash(hsh.Sum(nil))
}

func vecAddr(seed byte) (a Address) {
	for i := range a {
		a[i] = seed + byte(i)
	}
	return a
}

func vecCertificates() []*Certificate {
	return []*Certificate{
		{
			Serial: 3, Subject: vecAddr(0x30), SubjectKey: []byte{4, 1, 2, 3},
			Claims: map[string]string{
				"feePaid":     "https://alice.example/data/hr.ttl",
				"quote\"d":    "tab\there, newline\n, backslash \\",
				"müller":      "straße — 東京",
				"":            "",
				"control\x01": "\x7f\xff invalid utf-8",
			},
			NotBefore: time.Unix(1_696_809_600, 0).UTC(), NotAfter: time.Unix(1_696_813_200, 999).UTC(),
			Issuer: vecAddr(0xa0),
		},
		{Serial: 1<<64 - 1}, // no claims, zero times
	}
}

// TestFrozenCertificateEncoding pins SigningBytes, what an issuer signs:
// the encoding of TestFrozenCertificateWire without its signature.
func TestFrozenCertificateEncoding(t *testing.T) {
	want := []string{
		"3103303132333435363738393a3b3c3d3e3f40414243040401020305000008636f6e74726f6c01107fff20696e76616c6964207574662d3807666565506169642168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c076dc3bc6c6c65721273747261c39f6520e2809420e69db1e4baac0771756f746522641f74616209686572652c206e65776c696e650a2c206261636b736c617368205c0f010000000edcb5398000000000ffff0f010000000edcb54790000003e7ffffa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3",
		"31ffffffffffffffffff01000000000000000000000000000000000000000000000f01000000000000000000000000ffff0f01000000000000000000000000ffff0000000000000000000000000000000000000000",
	}
	for i, c := range vecCertificates() {
		if got := hex.EncodeToString(c.SigningBytes()); got != want[i] {
			t.Errorf("certificate %d signing bytes:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

// TestFrozenCertificateWire pins Encode, the form headers and
// registerDevice carry, for the same two certificates; the first carries
// an 8-byte stand-in signature.
func TestFrozenCertificateWire(t *testing.T) {
	want := []string{
		"3103303132333435363738393a3b3c3d3e3f40414243040401020305000008636f6e74726f6c01107fff20696e76616c6964207574662d3807666565506169642168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c076dc3bc6c6c65721273747261c39f6520e2809420e69db1e4baac0771756f746522641f74616209686572652c206e65776c696e650a2c206261636b736c617368205c0f010000000edcb5398000000000ffff0f010000000edcb54790000003e7ffffa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3083006020101020102",
		"31ffffffffffffffffff01000000000000000000000000000000000000000000000f01000000000000000000000000ffff0f01000000000000000000000000ffff000000000000000000000000000000000000000000",
	}
	for i, c := range vecCertificates() {
		if i == 0 {
			c.Signature = []byte{0x30, 0x06, 0x02, 0x01, 0x01, 0x02, 0x01, 0x02}
		}
		if got := hex.EncodeToString(c.Encode()); got != want[i] {
			t.Errorf("certificate %d encoding:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

func TestFrozenHashOf(t *testing.T) {
	for _, c := range []struct {
		parts [][]byte
		want  string
	}{
		{nil, "0xe3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{[][]byte{nil}, "0xaf5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
		{[][]byte{[]byte("ab"), []byte("c")}, "0x601d5476e2ccfe2c87a2bba7a322659734a05749d5b5aa781f513e4912db0d5f"},
		{[][]byte{[]byte("a"), []byte("bc")}, "0x3fafa1cf2f19a7c1129beb20cf0983f73a489a221fc0dd2f16d1be292d089205"},
		{[][]byte{[]byte("0x00/res/https://alice.example/data"), make([]byte, 300)}, "0xaf2b5bbd00d72fcbea2be3e89545dd19927621cec8c185b107adfe2a0543aeba"},
	} {
		if got := HashOf(c.parts...).String(); got != c.want {
			t.Errorf("HashOf of %d parts = %s, want %s", len(c.parts), got, c.want)
		}
	}
}
