package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestPrometheusGolden pins the exact exposition bytes for a registry
// covering all three instrument kinds, labels, and escaping.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("chain_mempool_admitted_total", "txs admitted to the mempool").Add(7)
	r.Gauge("chain_mempool_depth", "current mempool depth").Set(3)
	h := r.Histogram("chain_seal_duration_ns", "block seal latency")
	h.Observe(5) // exact bucket: every quantile reports 5
	r.Counter("solid_requests_total", "requests by route class", L("route", "resource"), L("method", "GET")).Inc()
	r.Counter("solid_requests_total", "requests by route class", L("route", "resource"), L("method", "PUT")).Add(2)
	r.Gauge("weird", "help with \\ and\nnewline", L("v", "a\"b\\c\nd")).Set(1)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP chain_mempool_admitted_total txs admitted to the mempool
# TYPE chain_mempool_admitted_total counter
chain_mempool_admitted_total 7
# HELP chain_mempool_depth current mempool depth
# TYPE chain_mempool_depth gauge
chain_mempool_depth 3
# HELP chain_seal_duration_ns block seal latency
# TYPE chain_seal_duration_ns summary
chain_seal_duration_ns{quantile="0.5"} 5
chain_seal_duration_ns{quantile="0.99"} 5
chain_seal_duration_ns{quantile="0.999"} 5
chain_seal_duration_ns_sum 5
chain_seal_duration_ns_count 1
# HELP solid_requests_total requests by route class
# TYPE solid_requests_total counter
solid_requests_total{route="resource",method="GET"} 1
solid_requests_total{route="resource",method="PUT"} 2
# HELP weird help with \\ and\nnewline
# TYPE weird gauge
weird{v="a\"b\\c\nd"} 1
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPrometheusStableOrder proves the output is independent of
// registration order.
func TestPrometheusStableOrder(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("zz_total", "").Inc()
	a.Gauge("aa", "").Set(1)
	b.Gauge("aa", "").Set(1)
	b.Counter("zz_total", "").Inc()
	var sa, sb strings.Builder
	if err := a.WritePrometheus(&sa); err != nil {
		t.Fatal(err)
	}
	if err := b.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sa.String() != sb.String() {
		t.Fatalf("order-dependent output:\n%s\nvs\n%s", sa.String(), sb.String())
	}
}

func TestWriteVarsIsValidJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(4)
	r.Histogram("h_ns", "").Observe(100)
	var b strings.Builder
	if err := r.WriteVars(&b); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(b.String()), &obj); err != nil {
		t.Fatalf("WriteVars produced invalid JSON: %v\n%s", err, b.String())
	}
	// The expvar package auto-publishes these two in every process.
	if _, ok := obj["memstats"]; !ok {
		t.Fatal("memstats missing from /debug/vars output")
	}
	// The registry's series: counters and gauges carry value; histograms
	// carry count, sum and quantiles.
	series, _ := obj["metrics"].([]any)
	if len(series) != 2 {
		t.Fatalf("metrics holds %d series, want 2: %v", len(series), obj["metrics"])
	}
	counter, _ := series[0].(map[string]any)
	if counter["name"] != "c_total" || counter["value"] != float64(4) {
		t.Fatalf("counter series = %v", counter)
	}
	histogram, _ := series[1].(map[string]any)
	if histogram["name"] != "h_ns" || histogram["count"] != float64(1) {
		t.Fatalf("histogram series = %v", histogram)
	}
}

// seriesCount counts exposition samples the way the CI smoke test does:
// non-comment, non-blank lines.
func seriesCount(exposition string) int {
	n := 0
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n++
	}
	return n
}

func TestSeriesCountHelper(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "x").Inc()
	r.Histogram("b_ns", "y").Observe(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	// 1 counter sample + 3 quantiles + _sum + _count = 6.
	if got := seriesCount(b.String()); got != 6 {
		t.Fatalf("seriesCount = %d, want 6", got)
	}
}
