package cryptoutil

import (
	"math/rand"
	"testing"
)

// TestHashOfMatchesReference: 1 000 seeded cases against the
// implementation of d71331e.
func TestHashOfMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	blob := func(n int) []byte {
		if r.Intn(4) == 0 {
			return nil
		}
		b := make([]byte, r.Intn(n))
		r.Read(b)
		return b
	}
	for i := range 1000 {
		parts := make([][]byte, r.Intn(4))
		for j := range parts {
			parts[j] = blob(400)
		}
		if got, want := HashOf(parts...), refHashOf(parts...); got != want {
			t.Fatalf("case %d: HashOf %s, reference %s", i, got, want)
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
