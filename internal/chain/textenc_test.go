package chain

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cryptoutil"
)

// TestEncAppendsWhatTheVerbPrints holds every textEnc method to the fmt
// verb its comment names: the verbs were the encoders' first
// implementation, so what they print is the wire format.
func TestEncAppendsWhatTheVerbPrints(t *testing.T) {
	texts := []string{"", "plain", "a|b;c", "quote\"d \\ \n\t\x00\x7f", "straße — 東京", "\xff\xfe"}
	for _, s := range texts {
		got := string(textEnc("kept").Str(s).Sep().Hex([]byte(s)))
		if want := fmt.Sprintf("kept%s|%x", s, []byte(s)); got != want {
			t.Errorf("Str, Hex of %q = %q, %%s|%%x prints %q", s, got, want)
		}
	}
	for _, v := range []uint64{0, 1, 9, 10, 1 << 32, math.MaxInt64, math.MaxUint64} {
		if got, want := string(textEnc(nil).Uint(v)), fmt.Sprintf("%d", v); got != want {
			t.Errorf("Uint(%d) = %q, %%d prints %q", v, got, want)
		}
		if got, want := string(textEnc(nil).Int(int64(v))), fmt.Sprintf("%d", int64(v)); got != want {
			t.Errorf("Int(%d) = %q, %%d prints %q", int64(v), got, want)
		}
	}
	addr, hash := vecAddr(0xf0), cryptoutil.HashOf([]byte("x"))
	if got, want := string(textEnc(nil).Hex0x(addr[:]).Sep().Hex0x(hash[:])), fmt.Sprintf("%s|%s", addr, hash); got != want {
		t.Errorf("Hex0x of an address and a hash = %q, %%s|%%s prints %q", got, want)
	}
}
