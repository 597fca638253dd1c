package core

import (
	"strconv"
	"strings"
	"testing"
)

// The harness tests run every experiment in quick mode and assert the
// qualitative shape EXPERIMENTS.md records, not absolute numbers.

func quickHarness() *Harness { return &Harness{Quick: true} }

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestHarnessE1(t *testing.T) {
	tbl := quickHarness().E1PodInitiation()
	if len(tbl.Rows) < 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if parseF(t, row[1]) <= 0 {
			t.Fatalf("non-positive latency: %v", row)
		}
		if row[2] == "0" {
			t.Fatalf("zero gas: %v", row)
		}
	}
}

func TestHarnessE2AndE3(t *testing.T) {
	e2 := quickHarness().E2ResourceInitiation()
	for _, row := range e2.Rows {
		if row[0] != row[3] {
			t.Fatalf("index size %s != published %s", row[3], row[0])
		}
	}
	e3 := quickHarness().E3ResourceIndexing()
	if len(e3.Rows) < 2 {
		t.Fatal("missing rows")
	}
	// Full listing should cost more than a point lookup at equal index
	// size (shape check).
	for _, row := range e3.Rows {
		if parseF(t, row[2]) < parseF(t, row[1]) {
			t.Logf("warning: listing faster than point lookup: %v", row)
		}
	}
}

func TestHarnessE4(t *testing.T) {
	tbl := quickHarness().E4ResourceAccess()
	for _, row := range tbl.Rows {
		access, fetch := parseF(t, row[1]), parseF(t, row[2])
		// The end-to-end process includes the fetch plus consensus and TEE
		// work; allow 2x timing jitter on these single-shot wall-clock
		// measurements before declaring the shape wrong.
		if access*2 < fetch {
			t.Fatalf("end-to-end access implausibly faster than its fetch component: %v", row)
		}
	}
}

func TestHarnessE5(t *testing.T) {
	tbl := quickHarness().E5PolicyModification()
	for _, row := range tbl.Rows {
		n := row[0]
		if row[2] != n+"/"+n {
			t.Fatalf("not all copies deleted after expiry: %v", row)
		}
	}
}

func TestHarnessE6(t *testing.T) {
	tbl := quickHarness().E6PolicyMonitoring()
	history := 0
	for _, row := range tbl.Rows {
		if row[0] != row[3] {
			t.Fatalf("evidence count %s != devices %s", row[3], row[0])
		}
		if row[4] != "0" {
			t.Fatalf("compliant run produced violations: %v", row)
		}
		if row[0] == "16" {
			history++
		}
	}
	if history != 2 {
		t.Fatalf("want the 16-device round with and without earlier rounds, got %d rows: %v", history, tbl.Rows)
	}
}

func TestHarnessE7(t *testing.T) {
	tbl := quickHarness().E7LocalVsRemote()
	for _, row := range tbl.Rows {
		if speedup := parseF(t, row[3]); speedup <= 1 {
			t.Fatalf("local TEE use not faster than remote fetch (the §V-1 claim): %v", row)
		}
	}
}

func TestHarnessE8(t *testing.T) {
	tbl := quickHarness().E8Security()
	if len(tbl.Rows) < 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[1] != "true" {
			t.Fatalf("attack not rejected: %v", row)
		}
	}
}

func TestHarnessE9(t *testing.T) {
	tbl := quickHarness().E9Gas()
	ops := map[string]bool{}
	for _, row := range tbl.Rows {
		ops[row[0]] = true
	}
	for _, want := range []string{
		"registerPod", "registerResource", "registerDevice", "recordGrant",
		"confirmRetrieval", "updatePolicy", "requestMonitoring", "submitEvidence", "TOTAL",
	} {
		if !ops[want] {
			t.Fatalf("missing operation %q in gas table:\n%s", want, tbl)
		}
	}
}

func TestHarnessE10(t *testing.T) {
	tbl := quickHarness().E10Overhead()
	for _, row := range tbl.Rows {
		if overhead := parseF(t, row[3]); overhead < 0.2 {
			t.Fatalf("implausible overhead ratio: %v", row)
		}
	}
}

func TestHarnessE11(t *testing.T) {
	tbl := quickHarness().E11Remuneration()
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Payouts must be ordered by access share: 6 > 3 > 1 implies
	// monotone amounts once rows are matched by access count.
	amounts := map[string]float64{}
	for _, row := range tbl.Rows {
		amounts[row[1]] = parseF(t, row[2])
	}
	if !(amounts["6"] > amounts["3"] && amounts["3"] > amounts["1"]) {
		t.Fatalf("payouts not proportional: %v", amounts)
	}
}

func TestHarnessE12(t *testing.T) {
	tbl := quickHarness().E12Robustness()
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[4] != "true" {
			t.Fatalf("live nodes diverged with %s validators down: %v", row[0], row)
		}
		if parseF(t, row[3]) <= 0 {
			t.Fatalf("no throughput with %s validators down", row[0])
		}
	}
}

func TestHarnessAblationFanout(t *testing.T) {
	tbl := quickHarness().AblationOracleFanout()
	if len(tbl.Rows) < 2 {
		t.Fatal("missing rows")
	}
}

func TestHarnessAblationBlockInterval(t *testing.T) {
	tbl := quickHarness().AblationBlockInterval()
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Simulated propagation latency must grow with the block interval.
	first := parseF(t, tbl.Rows[0][1])
	last := parseF(t, tbl.Rows[len(tbl.Rows)-1][1])
	if last <= first {
		t.Fatalf("propagation did not grow with block interval:\n%s", tbl)
	}
}

func TestChainStatsTable(t *testing.T) {
	d := newDeployment(t, Config{})
	owner, err := d.NewOwner("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.InitializePod(t.Context(), nil); err != nil {
		t.Fatal(err)
	}
	tbl := ChainStats(d)
	if !strings.Contains(tbl.String(), "height") {
		t.Fatalf("stats table:\n%s", tbl)
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{Title: "demo", Header: []string{"a", "metric_with_long_name"}}
	tbl.Add(1, 2.5)
	tbl.Add("xyz", "v")
	out := tbl.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "2.500") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}
