package scenario

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// atProcs runs fn with GOMAXPROCS set to procs, which is every
// validator's executor width: 1 keeps each block on the serial path, and
// more sends blocks of four or more transactions through the parallel
// scheduler.
func atProcs(procs int, fn func() *RunResult) *RunResult {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	return fn()
}

// TestScenarioDifferentialProcs runs the same honest plans at
// GOMAXPROCS 1 (the serial executor) and 4 (the parallel scheduler) and
// requires bit-identical traces: same per-step outcomes, same
// invariant-check count, no failure either way. This is the end-to-end
// half of the parallel scheduler's determinism proof — the chain-level
// differential tests compare receipts and roots, this one compares
// everything the scenario model can observe through the full deployment
// (contracts, oracles, monitoring, remuneration).
func TestScenarioDifferentialProcs(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		run := func() *RunResult { return New(Config{Seed: seed, Steps: 25}).Run() }
		serial := atProcs(1, run)
		if serial.Failure != nil {
			t.Fatalf("seed %d serial run failed: %s\ntrace:\n%s", seed, serial.Failure, serial.Trace())
		}
		parallel := atProcs(4, run)
		if parallel.Failure != nil {
			t.Fatalf("seed %d parallel run failed: %s\ntrace:\n%s", seed, parallel.Failure, parallel.Trace())
		}
		if st, pt := serial.Trace(), parallel.Trace(); st != pt {
			t.Fatalf("seed %d: traces at GOMAXPROCS 1 and 4 diverge\nserial:\n%s\nparallel:\n%s", seed, st, pt)
		}
	}
}

// TestScenarioDifferentialProcsAdversarial replays every committed
// repro plan — the adversarial repertoire: equivocation, invalid blocks,
// credential replay, nonce floods, partitions — at GOMAXPROCS 1 and 4
// and requires identical traces. Fault handling must not depend on how
// blocks were executed.
func TestScenarioDifferentialProcsAdversarial(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("repros", "*.repro"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed repro files under repros/")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cfg, plan, err := DecodeRepro(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			run := func() *RunResult { return New(cfg).RunPlan(plan) }
			serial := atProcs(1, run)
			parallel := atProcs(4, run)
			if serial.Failure != nil || parallel.Failure != nil {
				t.Fatalf("repro regressed: serial=%v parallel=%v", serial.Failure, parallel.Failure)
			}
			if st, pt := serial.Trace(), parallel.Trace(); st != pt {
				t.Fatalf("traces at GOMAXPROCS 1 and 4 diverge\nserial:\n%s\nparallel:\n%s", st, pt)
			}
		})
	}
}
