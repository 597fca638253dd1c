package cryptoutil

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestEncAppendsWhatTheVerbPrints holds every Enc method to the fmt
// verb its comment names: the verbs were the encoders' first
// implementation, so what they print is the wire format.
func TestEncAppendsWhatTheVerbPrints(t *testing.T) {
	texts := []string{"", "plain", "a|b;c", "quote\"d \\ \n\t\x00\x7f", "straße — 東京", "\xff\xfe"}
	for _, s := range texts {
		got := string(Enc("kept").Str(s).Sep().Quote(s).Sep().Hex([]byte(s)))
		if want := fmt.Sprintf("kept%s|%q|%x", s, s, []byte(s)); got != want {
			t.Errorf("Str, Quote, Hex of %q = %q, %%s|%%q|%%x prints %q", s, got, want)
		}
	}
	for _, v := range []uint64{0, 1, 9, 10, 1 << 32, math.MaxInt64, math.MaxUint64} {
		if got, want := string(Enc(nil).Uint(v)), fmt.Sprintf("%d", v); got != want {
			t.Errorf("Uint(%d) = %q, %%d prints %q", v, got, want)
		}
		if got, want := string(Enc(nil).Int(int64(v))), fmt.Sprintf("%d", int64(v)); got != want {
			t.Errorf("Int(%d) = %q, %%d prints %q", int64(v), got, want)
		}
	}
	for _, v := range []bool{true, false} {
		if got, want := string(Enc(nil).Bool(v)), fmt.Sprintf("%t", v); got != want {
			t.Errorf("Bool(%t) = %q, %%t prints %q", v, got, want)
		}
	}
	addr, hash := vecAddr(0xf0), HashOf([]byte("x"))
	if got, want := string(Enc(nil).Hex0x(addr[:]).Sep().Hex0x(hash[:])), fmt.Sprintf("%s|%s", addr, hash); got != want {
		t.Errorf("Hex0x of an address and a hash = %q, %%s|%%s prints %q", got, want)
	}
}

// TestHashOfAndCertificateMatchReference: 1 000 seeded cases against the
// implementations of d71331e.
func TestHashOfAndCertificateMatchReference(t *testing.T) {
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
		parts := make([][]byte, r.Intn(4))
		for j := range parts {
			parts[j] = blob(400)
		}
		if got, want := HashOf(parts...), refHashOf(parts...); got != want {
			t.Fatalf("case %d: HashOf %s, reference %s", i, got, want)
		}

		c := &Certificate{Serial: r.Uint64() >> r.Intn(64), SubjectKey: blob(70), Claims: map[string]string{}}
		r.Read(c.Subject[:])
		r.Read(c.Issuer[:])
		if r.Intn(8) != 0 {
			c.NotBefore, c.NotAfter = time.Unix(0, r.Int63()), time.Unix(0, -r.Int63())
		}
		for range r.Intn(5) {
			c.Claims[text()] = text()
		}
		if got, want := c.SigningBytes(), refCertSigningBytes(c); string(got) != string(want) {
			t.Fatalf("case %d: Certificate.SigningBytes\n got %q\nwant %q", i, got, want)
		}
	}
}

// TestHashOfDoesNotAllocate: the digest, the length prefix, the sum and
// the call site's variadic slice all stay on the stack.
func TestHashOfDoesNotAllocate(t *testing.T) {
	a, b := make([]byte, 400), make([]byte, 72)
	if got := testing.AllocsPerRun(100, func() { HashOf(a, b) }); got != 0 {
		t.Errorf("HashOf: %.0f allocations per call, want 0", got)
	}
}
