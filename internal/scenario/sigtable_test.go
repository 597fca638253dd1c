package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
)

// forgetting runs fn while a second goroutine keeps emptying the
// verified-signature table, so most of fn's repeated sightings miss where
// an undisturbed run would hit. On one P the goroutine sleeps between
// passes: its timer fires at the run's next scheduling point, where a
// spinning goroutine would hold the P for a whole preemption slice and
// keep the network poller, and with it every loopback request, waiting.
func forgetting(fn func() *RunResult) *RunResult {
	pause := runtime.GOMAXPROCS(0) == 1
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
				if pause {
					time.Sleep(20 * time.Microsecond)
				}
			}
		}
	}()
	res := fn()
	close(stop)
	wg.Wait()
	return res
}

// TestScenarioColdWarmTable: what the scenario model observes through the
// whole deployment does not depend on which signature checks the table
// answered. Every TestScenarioSeedSweep seed and every committed repro is
// run with the table kept cold and again with it left alone, at
// GOMAXPROCS 1 and 2; the four traces must be one.
func TestScenarioColdWarmTable(t *testing.T) {
	run := func(t *testing.T, name string, once func() *RunResult) {
		t.Helper()
		var want string
		for _, procs := range []int{1, 2} {
			for _, table := range []string{"cold", "warm"} {
				fn := once
				if table == "cold" {
					fn = func() *RunResult { return forgetting(once) }
				}
				res := atProcs(procs, fn)
				if res.Failure != nil {
					t.Fatalf("%s, GOMAXPROCS %d, %s table: %s\ntrace:\n%s", name, procs, table, res.Failure, res.Trace())
				}
				if got := res.Trace(); want == "" {
					want = got
				} else if got != want {
					t.Fatalf("%s: trace at GOMAXPROCS %d with a %s table diverges from GOMAXPROCS 1, cold\n--- this ---\n%s\n--- first ---\n%s",
						name, procs, table, got, want)
				}
			}
		}
	}
	seeds, steps := int64(12), 120
	if testing.Short() {
		seeds, steps = 4, 40
	}
	for seed := int64(1); seed <= seeds; seed++ {
		run(t, fmt.Sprintf("seed %d", seed), func() *RunResult {
			return New(Config{Seed: seed, Steps: steps}).Run()
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
		run(t, filepath.Base(path), func() *RunResult {
			return New(cfg).RunPlan(plan)
		})
	}
}
