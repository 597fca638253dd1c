package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/solid"
)

// An untraced run performs the whole set-up several times (fresh deployment
// each time); setup_s is their median and the measured phase runs on the last
// one. It is done at least minSetups times and, while the set-ups so far took
// less than cheapSetupBudget together, up to maxSetups times: the short
// set-ups (60-90 ms on market-mix and monitor-round) are the noisiest.
const (
	minSetups        = 3
	maxSetups        = 9
	cheapSetupBudget = 1500 * time.Millisecond
)

// childConfig is what one workload process is asked to do.
type childConfig struct {
	workload string
	seed     int64
	ops      int
	traced   bool
	setups   int    // exact number of set-ups; 0 = minSetups..maxSetups by cost
	dataRoot string // parent of the per-deployment data directories
	outDir   string // where trace files go
}

// runResult is what one workload process reports back, as one JSON line.
type runResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Traced    bool    `json:"traced"`
	Ops       int     `json:"ops"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Samples   int     `json:"samples"`
	WallS     float64 `json:"wall_s"`
	// HostSpeed is the host's slowness relative to the reference during the
	// measured phase (median over segments); Raw holds the time-valued
	// end-to-end metrics as the clock read them, before scaling.
	HostSpeed float64            `json:"host_speed"`
	Raw       map[string]float64 `json:"raw"`
	Blocks    int                `json:"blocks"` // sealed in the measured phase
	Txs       int                `json:"txs"`    // committed in the measured phase
	Metrics   map[string]float64 `json:"metrics"`
	Checks    []check            `json:"checks"`
	OpDigest  string             `json:"op_digest"`
	TraceFile string             `json:"trace_file,omitempty"`
	// TwinOpsPerS is the throughput of the untraced run of the same size that
	// a traced run is compared with for trace_overhead_pct.
	TwinOpsPerS float64  `json:"twin_ops_per_s,omitempty"`
	FirstError  string   `json:"first_error,omitempty"`
	Host        hostInfo `json:"host"`
}

// correct reports whether every check passed and no operation failed.
func (r runResult) correct() bool {
	if r.Failed != 0 || r.Attempted == 0 {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// runWorkload is the body of one workload process: calibrate, set up, run the
// fixed op count, check what it left behind, compute the metrics.
func runWorkload(cfg childConfig) (res runResult, err error) {
	spec, ok := findWorkload(cfg.workload)
	if !ok {
		return runResult{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res = runResult{Workload: spec.Name, Seed: cfg.seed, Traced: cfg.traced, Ops: cfg.ops, Host: readHost()}
	signUs, verifyUs, policyNs, err := calibrate()
	if err != nil {
		return res, fmt.Errorf("calibrate: %w", err)
	}
	res.Host.SignUs, res.Host.VerifyUs = signUs, verifyUs
	ctx := context.Background()

	// Set-up, several times over; the last deployment is the one measured.
	var e *env
	var w workload
	var setupRaw, setupRef []float64
	var setupTotal time.Duration
	for i := 0; !enoughSetups(cfg.setups, i, setupTotal); i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return res, fmt.Errorf("tear down set-up %d: %w", i-1, err)
			}
		}
		dir := filepath.Join(cfg.dataRoot, fmt.Sprintf("%s-%d-%d", spec.Name, os.Getpid(), i))
		speed := hostSpeed()
		t0 := time.Now()
		if e, err = newEnv(spec, cfg.ops, cfg.seed, dir, cfg.traced); err != nil {
			return res, fmt.Errorf("boot deployment: %w", err)
		}
		w = newWorkload(spec.Name)
		if err = w.setup(ctx, e); err == nil {
			err = e.drain(ctx)
		}
		if err != nil {
			return res, errors.Join(fmt.Errorf("set-up: %w", err), e.close())
		}
		took := time.Since(t0)
		speed = min(speed, hostSpeed()) // interference only ever slows a probe down
		setupRaw = append(setupRaw, took.Seconds())
		setupRef = append(setupRef, took.Seconds()/speed)
		setupTotal += took
	}
	defer func() {
		if cerr := e.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	res.OpDigest = e.opDigest()
	pods := hostedPods(e)

	// Measured phase.
	runtime.GC()
	node := e.d.Nodes[0]
	height0 := node.Height()
	sealer0 := e.sealer.stats()
	reg0 := scrapeRegistry(e.reg)
	oracleIn0, oracleOut0 := e.d.Metrics.In.Load(), e.d.Metrics.Out.Load()
	acl0 := aclGenerations(pods)
	before := readUsage()
	e.prog = newProgress(cfg.ops / spec.SampleOps / spec.Clients)
	merged := merge(w.run(ctx, e))
	e.prog.finish()
	after := readUsage()

	derr := e.drain(ctx)
	serr := e.sealer.stop()
	sealer1 := e.sealer.stats()
	ledger := ledgerBetween(node, height0, node.Height())
	res.Attempted, res.Failed, res.Samples = merged.attempted, merged.failed, len(merged.samples)
	if merged.firstErr != nil {
		res.FirstError = merged.firstErr.Error()
	}
	wall := after.at.Sub(before.at)
	res.WallS = wall.Seconds()
	res.Blocks, res.Txs = ledger.blocks, ledger.txs
	done := float64(max(merged.attempted-merged.failed, 1))

	// Correctness.
	res.Checks = append(res.Checks,
		checkf("ops.none_failed", merged.failed == 0, "%d of %d failed; first: %v", merged.failed, merged.attempted, merged.firstErr),
		checkf("ops.all_attempted", merged.attempted == cfg.ops, "attempted %d of %d", merged.attempted, cfg.ops),
		checkf("chain.drained", derr == nil, "%v", derr),
		checkf("chain.sealer_healthy", serr == nil, "%v", serr),
		checkf("chain.receipts_ok", ledger.reverted == 0, "%d reverted receipts in the measured phase", ledger.reverted),
		headsAgree(e),
	)
	if spec.Name == "pod-serve" {
		res.Checks = append(res.Checks, checkf("chain.idle_on_pod_serve", ledger.blocks == 0, "%d blocks sealed during pod-serve", ledger.blocks))
	}
	res.Checks = append(res.Checks, w.verify(e)...)

	// Time-valued metrics at reference host speed (see hostSpeed): every
	// segment and every latency sample is scaled by the probe taken beside it.
	segs := e.prog.segments()
	var speeds, rates, cpus []float64
	for _, sg := range segs {
		speeds = append(speeds, sg.speed)
		rates = append(rates, sg.ops/sg.to.Sub(sg.from).Seconds()*sg.speed)
		cpus = append(cpus, float64(sg.cpu.Microseconds())/1e3/sg.ops/sg.speed)
	}
	res.HostSpeed = median(speeds)
	rawNs, refNs := make([]int64, len(merged.samples)), make([]int64, len(merged.samples))
	for i, sm := range merged.samples {
		rawNs[i] = sm.ns
		refNs[i] = int64(float64(sm.ns) / speedAt(segs, sm.end))
	}
	res.Raw = map[string]float64{
		"ops_per_s":     done / wall.Seconds(),
		"op_p50_ms":     quantile(rawNs, 0.5) / 1e6,
		"op_p90_ms":     quantile(rawNs, 0.9) / 1e6,
		"cpu_ms_per_op": float64((after.cpu - before.cpu).Microseconds()) / 1e3 / done,
		"setup_s":       median(setupRaw),
	}
	opsPerS, cpuMsPerOp := median(rates), median(cpus)
	if len(segs) < segments/2 { // a smoke run: too few segments to take a median of
		opsPerS, cpuMsPerOp = res.Raw["ops_per_s"]*res.HostSpeed, res.Raw["cpu_ms_per_op"]/res.HostSpeed
	}
	res.Metrics = map[string]float64{
		"ops_per_s":       opsPerS,
		"op_p50_ms":       quantile(refNs, 0.5) / 1e6,
		"op_p90_ms":       quantile(refNs, 0.9) / 1e6,
		"cpu_ms_per_op":   cpuMsPerOp,
		"mallocs_per_op":  float64(after.mallocs-before.mallocs) / done,
		"alloc_kb_per_op": float64(after.bytes-before.bytes) / 1024 / done,
		"gas_per_op":      float64(ledger.gas) / done,
		"fail_ratio":      float64(merged.failed) / float64(max(merged.attempted, 1)),
		"setup_s":         median(setupRef),
	}

	if cfg.traced {
		spans, unplaced := linkSeals(e.tr.all(), e.sealer.seals[sealer0.seals:], e.tr)
		reg1 := scrapeRegistry(e.reg)
		layers := layerMetrics(layerInputs{
			e: e, ops: int(done), wallNs: float64(wall.Nanoseconds()), spans: spans, ledger: ledger,
			sealer:   sealerStats{busy: sealer1.busy - sealer0.busy, blocks: sealer1.blocks - sealer0.blocks},
			reg:      delta{reg0, reg1},
			oracleIn: float64(e.d.Metrics.In.Load() - oracleIn0), oracleOut: float64(e.d.Metrics.Out.Load() - oracleOut0),
			aclBumps:  float64(aclGenerations(pods) - acl0),
			peakRSSKB: after.rssKB, signUs: signUs, verifyUs: verifyUs, policyNs: policyNs,
		})
		units := make(map[string]string, len(perLayer))
		for _, m := range perLayer {
			units[m.Name] = m.Unit
		}
		for k, v := range layers {
			res.Metrics[k] = atReferenceSpeed(v, units[k], res.HostSpeed)
		}
		res.Metrics["host.speed_factor"] = res.HostSpeed
		if spec.Name == "chain-ingest" || spec.Name == "chain-hot" {
			res.Checks = append(res.Checks, checkf("solid.idle_on_chain", layers["solid.requests"] == 0, "%v pod requests during %s", layers["solid.requests"], spec.Name))
		}
		res.Checks = append(res.Checks, checkf("trace.seals_placed", unplaced == 0 || float64(unplaced) < 0.01*float64(ledger.txs),
			"%d of %d sealed txs had no waiting span", unplaced, ledger.txs))
		if res.TraceFile, err = writeTrace(cfg.outDir, spec.Name, spans); err != nil {
			return res, fmt.Errorf("write trace: %w", err)
		}
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Checks = append(res.Checks, checkf("metric.finite."+name, false, "%v", v))
		}
	}
	return res, err
}

// atReferenceSpeed scales a time-valued metric, recognised by its unit, from
// the host's speed during the run to the reference speed.
func atReferenceSpeed(v float64, unit string, speed float64) float64 {
	switch unit {
	case "s", "ms", "us", "ns":
		return v / speed
	case "1/s":
		return v * speed
	}
	return v
}

// enoughSetups reports whether done set-ups, which took total, suffice.
func enoughSetups(exact, done int, total time.Duration) bool {
	if exact > 0 {
		return done >= exact
	}
	return done >= maxSetups || (done >= minSetups && total >= cheapSetupBudget)
}

// headsAgree checks that all three validators ended on the same head block.
func headsAgree(e *env) check {
	head := e.d.Nodes[0].Head().Hash()
	for i, n := range e.d.Nodes[1:] {
		if h := n.Head().Hash(); h != head {
			return checkf("chain.heads_agree", false, "validator %d head %s, validator 0 head %s", i+1, h.Short(), head.Short())
		}
	}
	return check{Name: "chain.heads_agree", OK: true}
}

// hostedPods lists the pods mounted on the deployment's host.
func hostedPods(e *env) []*solid.Pod {
	var pods []*solid.Pod
	for _, name := range e.d.Host.Names() {
		if p, ok := e.d.Host.Lookup(name); ok && p != nil {
			pods = append(pods, p)
		}
	}
	return pods
}

// aclGenerations sums the pods' ACL-cache generations; the difference over a
// phase is the number of cache invalidations the phase caused.
func aclGenerations(pods []*solid.Pod) uint64 {
	var total uint64
	for _, p := range pods {
		total += p.ACLGeneration()
	}
	return total
}
