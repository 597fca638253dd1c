package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cryptoutil"
)

// forgetting runs fn while a second goroutine keeps emptying the
// verified-signature table, so most of fn's repeated sightings miss where
// an undisturbed run would hit.
func forgetting(fn func()) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				cryptoutil.ForgetVerified()
			}
		}
	}()
	fn()
	close(stop)
	wg.Wait()
}

// TestScenarioColdWarmTable: what the scenario model observes through the
// whole deployment does not depend on which signature checks the table
// answered. Every TestScenarioSeedSweep seed and every committed repro is
// run with the table kept cold and again with it left alone, at
// ExecWorkers 1 and 2; the four traces must be one.
func TestScenarioColdWarmTable(t *testing.T) {
	run := func(t *testing.T, name string, once func(workers int) *RunResult) {
		t.Helper()
		var want string
		for _, workers := range []int{1, 2} {
			for _, table := range []string{"cold", "warm"} {
				var res *RunResult
				if table == "cold" {
					forgetting(func() { res = once(workers) })
				} else {
					res = once(workers)
				}
				if res.Failure != nil {
					t.Fatalf("%s, ExecWorkers=%d, %s table: %s\ntrace:\n%s", name, workers, table, res.Failure, res.Trace())
				}
				if got := res.Trace(); want == "" {
					want = got
				} else if got != want {
					t.Fatalf("%s: trace with ExecWorkers=%d and a %s table diverges from ExecWorkers=1, cold\n--- this ---\n%s\n--- first ---\n%s",
						name, workers, table, got, want)
				}
			}
		}
	}
	seeds, steps := int64(12), 120
	if testing.Short() {
		seeds, steps = 4, 40
	}
	for seed := int64(1); seed <= seeds; seed++ {
		run(t, fmt.Sprintf("seed %d", seed), func(workers int) *RunResult {
			return New(Config{Seed: seed, Steps: steps, ExecWorkers: workers}).Run()
		})
	}
	paths, err := filepath.Glob(filepath.Join("repros", "*.repro"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed repro files under repros/ (%v)", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg, plan, err := DecodeRepro(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		run(t, filepath.Base(path), func(workers int) *RunResult {
			cfg.ExecWorkers = workers
			return New(cfg).RunPlan(plan)
		})
	}
}
