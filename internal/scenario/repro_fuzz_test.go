package scenario

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzReproDecode feeds DecodeRepro arbitrary bytes, seeded with every
// committed repros/*.repro file. On any input it returns a plan or an
// error and never panics; a plan it returns holds only decodable ops and
// non-negative operands, and re-encoding it with EncodeRepro decodes back
// to the same plan and the same replay-shaping config.
//
// CI smoke-runs this with -fuzz=FuzzReproDecode -fuzztime=10s.
func FuzzReproDecode(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("repros", "*.repro"))
	if err != nil {
		f.Fatal(err)
	}
	if len(files) == 0 {
		f.Fatal("no repros/*.repro files to seed from")
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, plan, err := DecodeRepro(data)
		if err != nil {
			return
		}
		if len(plan) == 0 || cfg.Steps != len(plan) {
			t.Fatalf("accepted a plan of %d steps with Steps = %d", len(plan), cfg.Steps)
		}
		for i, st := range plan {
			if int(st.Op) >= len(decodable) || st.A < 0 || st.B < 0 || st.C < 0 || st.Arg < 0 {
				t.Fatalf("step %d decoded to %+v", i, st)
			}
		}
		again, replan, err := DecodeRepro(EncodeRepro(cfg, &RunResult{Plan: plan}))
		if err != nil {
			t.Fatalf("re-encoded repro does not decode: %v", err)
		}
		if !slices.Equal(replan, plan) {
			t.Fatalf("plan changed across a re-encoding:\n%v\n%v", plan, replan)
		}
		if again.withDefaults().Validators != cfg.withDefaults().Validators ||
			again.DisableEquivocationGuard != cfg.DisableEquivocationGuard {
			t.Fatalf("config changed across a re-encoding: %+v, then %+v", cfg, again)
		}
	})
}
