package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// smokeOps is a tiny op count per workload: enough to cross every code path
// (a modify chain, a PUT, two batches per submitter, two rounds), small
// enough that the whole package runs in seconds.
var smokeOps = map[string]int{
	"market-mix":    8,
	"chain-ingest":  4 * batchSize,
	"chain-hot":     4 * batchSize,
	"pod-serve":     20,
	"monitor-round": 2,
}

func smokeRun(t *testing.T, workload string, seed int64, traced bool) runResult {
	t.Helper()
	dir := t.TempDir()
	res, err := runWorkload(childConfig{
		workload: workload, seed: seed, ops: smokeOps[workload], traced: traced, setups: 1,
		dataRoot: filepath.Join(dir, "data"), outDir: filepath.Join(dir, "out"),
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	for _, c := range res.Checks {
		if !c.OK {
			t.Errorf("%s: check %s failed: %s", workload, c.Name, c.Detail)
		}
	}
	if res.Failed != 0 || res.Attempted != smokeOps[workload] {
		t.Errorf("%s: attempted %d, failed %d, want %d and 0 (%s)", workload, res.Attempted, res.Failed, smokeOps[workload], res.FirstError)
	}
	return res
}

// TestSmokeEmitsEveryMetric runs every workload traced at a tiny op count and
// checks that each metric BENCHMARK.json names comes out once, finite.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.Name, func(t *testing.T) {
			res := smokeRun(t, spec.Name, defaultSeed, true)
			res.Metrics["trace_overhead_pct"] = 0 // the supervisor's, from two processes
			want := make(map[string]bool)
			for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
				if want[m.Name] {
					t.Errorf("metric %s is specified twice", m.Name)
				}
				want[m.Name] = true
				v, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("metric %s is not emitted", m.Name)
				} else if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("metric %s = %v", m.Name, v)
				}
			}
			for name := range res.Metrics {
				if !want[name] && name != "fail_ratio" {
					t.Errorf("metric %s is emitted but not specified", name)
				}
			}
			for _, m := range endToEnd {
				if res.Metrics[m.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, res.Metrics[m.Name])
				}
			}
			if _, err := os.Stat(res.TraceFile); err != nil {
				t.Errorf("trace file: %v", err)
			}
			if c := res.Metrics["trace.self_time_coverage"]; c <= 0 || c > 1.0001 {
				t.Errorf("self-time coverage %v outside (0,1]", c)
			}
		})
	}
}

// TestWorkloadSplitShowsInTheLayers checks the predictions that make the
// chain-* pair a pair: no wasted execution on disjoint keys, a serial tail on
// the hot key.
func TestWorkloadSplitShowsInTheLayers(t *testing.T) {
	ingest := smokeRun(t, "chain-ingest", defaultSeed, true)
	hot := smokeRun(t, "chain-hot", defaultSeed, true)
	if r := ingest.Metrics["chain.serial_tail_ratio"]; r != 0 {
		t.Errorf("chain-ingest serial_tail_ratio = %v, want 0", r)
	}
	if r := hot.Metrics["chain.serial_tail_ratio"]; r < 0.9 {
		t.Errorf("chain-hot serial_tail_ratio = %v, want near 1", r)
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesBinary keeps the names, units, directions, bounds
// and run length in BENCHMARK.json and in spec.go from drifting apart.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, binary %d", doc.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, binary has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, binary %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, binary has %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: %+v, binary %+v", i, got, m)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, binary has %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: %+v, binary %+v", i, got, m)
		}
	}
}

// TestSeedFixesTheInputs: the same seed gives the same op sequence and the
// same transactions per op; another seed gives another sequence. Gas is
// compared to a part in a hundred, not exactly: records store the block
// timestamp, RFC3339Nano drops trailing zeros, and on the stalled simulated
// clock a block's time is its parent's plus 1 ns, so a record's size (and the
// gas of every later write to it) moves by a few bytes with the block number
// it happened to land in.
func TestSeedFixesTheInputs(t *testing.T) {
	for _, name := range []string{"market-mix", "chain-hot"} {
		a := smokeRun(t, name, 7, true)
		b := smokeRun(t, name, 7, true)
		c := smokeRun(t, name, 8, true)
		if a.OpDigest != b.OpDigest {
			t.Errorf("%s: seed 7 gave op digests %s and %s", name, a.OpDigest, b.OpDigest)
		}
		if a.OpDigest == c.OpDigest {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", name)
		}
		if x, y := a.Metrics["distexchange.txs_per_op"], b.Metrics["distexchange.txs_per_op"]; x != y || x == 0 {
			t.Errorf("%s: txs_per_op %v and %v", name, x, y)
		}
		if x, y := a.Metrics["gas_per_op"], b.Metrics["gas_per_op"]; math.Abs(x-y) > 1e-2*x || x == 0 {
			t.Errorf("%s: gas_per_op %v and %v", name, x, y)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestPreflightRejectsTooFewSamples(t *testing.T) {
	spec, _ := findWorkload("chain-ingest")
	if err := checkSamples(spec, 50*batchSize); err == nil {
		t.Error("50 batches accepted: p90 would have five samples beyond it")
	}
	for _, w := range workloads {
		if err := checkSamples(w, w.opsFor(runSeconds, false)); err != nil {
			t.Errorf("default size rejected: %v", err)
		}
	}
	if _, err := preflight(spec, batchSize+1, t.TempDir()); err == nil {
		t.Error("op count that is no multiple of the batch pair accepted")
	}
}
