package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// printRun prints one run: what ran, on what host, every metric by name with
// its unit, sample count and bound, and the correctness checks.
func printRun(w io.Writer, r runResult) {
	traced := r.Traced
	mode := "untraced"
	if traced {
		mode = "traced, quarter op count"
	}
	fmt.Fprintf(w, "\n== %s (%s)  seed %d  ops %d  attempted %d  failed %d  wall %.2f s  blocks %d  txs %d\n",
		r.Workload, mode, r.Seed, r.Ops, r.Attempted, r.Failed, r.WallS, r.Blocks, r.Txs)
	h := r.Host
	fmt.Fprintf(w, "   host: nproc %d  GOMAXPROCS %d  %s  %s  kernel %s  commit %s  data fs %s\n",
		h.NProc, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.Kernel, h.Commit, h.DataFS)
	fmt.Fprintf(w, "   yardstick: cryptoutil.sign_us %.1f  cryptoutil.verify_us %.1f\n", h.SignUs, h.VerifyUs)

	fmt.Fprintf(w, "   host speed factor %.3f (probe time / reference): time-valued metrics are scaled to reference host speed\n", r.HostSpeed)
	if !traced {
		fmt.Fprintf(w, "   %-18s %14s %-6s %9s %7s %14s\n", "end-to-end metric", "value", "unit", "samples", "bound", "raw clock")
		for _, m := range endToEnd {
			samples, raw := "", ""
			if m.Name == "op_p50_ms" || m.Name == "op_p90_ms" {
				samples = fmt.Sprint(r.Samples)
			}
			if v, ok := r.Raw[m.Name]; ok {
				raw = fmt.Sprintf("%.4f", v)
			}
			fmt.Fprintf(w, "   %-18s %14.4f %-6s %9s %6.0f%% %14s\n", m.Name, r.Metrics[m.Name], m.Unit, samples, 100*m.Bound, raw)
		}
		fmt.Fprintf(w, "   %-18s %14.4f %-6s\n", "gas_per_op", r.Metrics["gas_per_op"], "gas")
		fmt.Fprintf(w, "   %-18s %14.4f %-6s %9s %7s\n", "fail_ratio", r.Metrics["fail_ratio"], "ratio", "", "0")
	} else {
		fmt.Fprintf(w, "   this traced run: %.1f ops/s, p50 %.3f ms over %d samples; its untraced twin: %.1f ops/s (end-to-end numbers come from full-size untraced runs only)\n",
			r.Metrics["ops_per_s"], r.Metrics["op_p50_ms"], r.Samples, r.TwinOpsPerS)
		fmt.Fprintf(w, "   %-38s %14s %s\n", "per-layer metric", "value", "unit")
		for _, m := range perLayer {
			fmt.Fprintf(w, "   %-38s %14.4f %s\n", m.Name, r.Metrics[m.Name], m.Unit)
		}
		if r.TraceFile != "" {
			fmt.Fprintf(w, "   spans: %s\n", r.TraceFile)
		}
	}
	failedChecks := 0
	for _, c := range r.Checks {
		if !c.OK {
			failedChecks++
			fmt.Fprintf(w, "   CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "   checks: %d of %d passed\n", len(r.Checks)-failedChecks, len(r.Checks))
}

// quartiles returns the first quartile, median and third quartile of values
// by the exclusive method (what Python's statistics.quantiles(v, n=4) gives).
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		lo := int(math.Floor(pos))
		lo = min(max(lo, 1), n-1)
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

// printRepeat summarises the repeated runs of one workload: median,
// quartiles, and the interquartile range as a share of the median, per
// end-to-end metric. The relative IQR is what BENCHMARK.json's bounds are set
// against.
func printRepeat(w io.Writer, spec workloadSpec, runs []runResult) {
	fmt.Fprintf(w, "\n== %s: %d runs\n", spec.Name, len(runs))
	fmt.Fprintf(w, "   %-18s %14s %14s %14s %9s %7s\n", "metric", "q1", "median", "q3", "rel IQR", "bound")
	names := endToEnd
	names = append(names[:len(names):len(names)], metricSpec{Name: "gas_per_op", Unit: "gas"}, metricSpec{Name: "fail_ratio", Unit: "ratio"})
	for _, m := range names {
		var values []float64
		for _, r := range runs {
			if v, ok := r.Metrics[m.Name]; ok {
				values = append(values, v)
			}
		}
		q1, q2, q3 := quartiles(values)
		bound := "-" // gas_per_op has none, fail_ratio must be 0
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
		}
		fmt.Fprintf(w, "   %-18s %14.4f %14.4f %14.4f %8.2f%% %7s\n", m.Name, q1, q2, q3, 100*ratio(q3-q1, q2), bound)
	}
}
