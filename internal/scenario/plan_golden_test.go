package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// TestPlanVocabularyGolden pins what seeds, fuzz bytes and repro keywords
// mean across commits. A seed names a plan only for a given op table, so
// reordering, reweighting or inserting an op silently changes every
// seed's workload; these digests were recorded before the op table was
// introduced and must only change together with a note saying which
// plans moved and why.
func TestPlanVocabularyGolden(t *testing.T) {
	render := func(plan []Step) string {
		var b strings.Builder
		for _, st := range plan {
			fmt.Fprintf(&b, "%s\n", st)
		}
		return b.String()
	}
	digest := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:])
	}

	var generated, sabotaged strings.Builder
	for seed := int64(1); seed <= 8; seed++ {
		generated.WriteString(render(GeneratePlan(seed, 120, false)))
		sabotaged.WriteString(render(GeneratePlan(seed, 40, true)))
	}
	var decoded []byte
	for i := range 256 * 5 {
		decoded = append(decoded, byte(i/5))
	}
	var keywords strings.Builder
	for op := Op(0); op <= OpSabotage; op++ {
		if op != numOps {
			fmt.Fprintf(&keywords, "%d %s\n", op, op)
		}
	}

	for _, tc := range []struct{ name, text, want string }{
		{"GeneratePlan(1..8, 120, false)", generated.String(), "1ffe69357992d5884b62e4a714b4e3584b004245e4f84f8d19a8c69ff25d1d09"},
		{"GeneratePlan(1..8, 40, true)", sabotaged.String(), "d295c90eefc4a437086e556034abab51f5deb4377da924903f157e3c29a3bb94"},
		{"DecodePlan(bytes 0..255)", render(DecodePlan(decoded, 256)), "8b071cbc7d046d6ef0f8d186672a4657cdb729977ae7e5276e42706b02d5f1b8"},
		{"op keywords", keywords.String(), "97072c86e063653b9291c719499b9fcb9e9f12c724d1d40bf993c6f8bce4a1bd"},
	} {
		if got := digest(tc.text); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
