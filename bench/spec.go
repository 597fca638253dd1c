package main

// This file is the one place that names workloads and metrics. BENCHMARK.json
// repeats the names for the driver; bench_test.go fails when the two drift.

// runSeconds is BENCHMARK.json's run_seconds: the measured-phase length the op
// counts below are sized for on the authoring host (2 CPUs).
const runSeconds = 10

// defaultSeed is the workload seed used when -seed is not given.
const defaultSeed = 20231009

// clients is the number of closed-loop agents (goroutines); each waits for a
// Fig. 2 reply before it issues its next request.
const clients = 2

// workloadSpec names one workload and sizes its fixed operation count.
type workloadSpec struct {
	Name string
	// OpsPerSecond sizes the run: a run executes OpsPerSecond × -seconds
	// operations, rounded to a multiple of Quantum. The count is fixed before
	// the run starts; the run is never cut off by a clock, because per-op cost
	// grows with ledger state and only equal work is comparable across commits.
	OpsPerSecond int
	// Quantum is the granule the op count is rounded to (a batch, or the
	// modify/put period).
	Quantum int
	// SampleOps is how many operations one latency sample covers (256 for the
	// batch pipelines, 1 elsewhere).
	SampleOps int
	// Clients is the number of closed-loop agents the workload runs.
	Clients int
	Why     string
}

var workloads = []workloadSpec{
	{Name: "market-mix", OpsPerSecond: 260, Quantum: 8, SampleOps: 1, Clients: clients,
		Why: "the paper's own Fig. 2 traffic: every layer takes part, blocks hold 1-2 txs, per-block fixed cost dominates"},
	{Name: "chain-ingest", OpsPerSecond: 4096, Quantum: 2 * batchSize, SampleOps: batchSize, Clients: clients,
		Why: "pre-signed registerPod txs on disjoint keys in 256-tx batches: chain, store and cryptoutil do all the work, 0% conflicts"},
	{Name: "chain-hot", OpsPerSecond: 3072, Quantum: 2 * batchSize, SampleOps: batchSize, Clients: clients,
		Why: "same pipeline, every tx bumps one hot policy per submitter: 100% conflicts, the parallel executor's serial tail"},
	{Name: "pod-serve", OpsPerSecond: 4000, Quantum: 20, SampleOps: 1, Clients: clients,
		Why: "certificate- and quote-decorated GETs with 1 in 10 owner PUTs: solid, podmanager hook, market and cryptoutil; chain idle"},
	{Name: "monitor-round", OpsPerSecond: 14, Quantum: 1, SampleOps: 1, Clients: 1,
		Why: "serial Fig. 2-6 rounds over 16 attested devices: oracle pull-in fan-out, evidence signing, 17+ dependent txs per op"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// opsFor is the fixed operation count of a run sized for the given seconds.
// Traced runs execute a quarter of it.
func (w workloadSpec) opsFor(seconds int, traced bool) int {
	n := w.OpsPerSecond * seconds
	if traced {
		n /= 4
	}
	n -= n % w.Quantum
	if n < w.Quantum {
		n = w.Quantum
	}
	return n
}

// metricSpec is one named metric. Bound is the allowed relative worsening of
// an end-to-end metric before a change counts as a regression (0 for per-layer
// metrics, which have none).
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists the metrics BENCHMARK.json bounds. Every workload reports all
// of them from the untraced run. gas_per_op and fail_ratio, the other two
// end-to-end numbers the runs print, are not here because the driver's
// contract wants metrics that are never 0: gas_per_op is 0 on pod-serve and
// fail_ratio is 0 on a healthy run. gas_per_op is listed with the per-layer
// metrics and fail_ratio is the failed/attempted pair of every result.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"mallocs_per_op", "count", "lower", 0.02},
	{"alloc_kb_per_op", "KiB", "lower", 0.12},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the traced run's metrics, grouped by package under internal/.
var perLayer = []metricSpec{
	{"core.pod_init_p50_ms", "ms", "lower", 0},
	{"core.publish_p50_ms", "ms", "lower", 0},
	{"core.grant_p50_ms", "ms", "lower", 0},
	{"core.index_p50_us", "us", "lower", 0},
	{"core.access_p50_ms", "ms", "lower", 0},
	{"core.use_p50_us", "us", "lower", 0},
	{"core.modify_p50_ms", "ms", "lower", 0},
	{"core.settle_ms", "ms", "lower", 0},
	{"core.monitor_p50_ms", "ms", "lower", 0},
	{"core.peak_rss_mb", "MiB", "lower", 0},

	{"chain.submit_us_per_tx", "us", "lower", 0},
	{"chain.verify_us_per_tx", "us", "lower", 0},
	{"chain.admit_us_per_tx", "us", "lower", 0},
	{"chain.seal_us_per_tx", "us", "lower", 0},
	{"chain.seal_ms_per_block", "ms", "lower", 0},
	{"chain.fold_us_per_block", "us", "lower", 0},
	{"chain.receipt_wait_p50_ms", "ms", "lower", 0},
	{"chain.txs_per_block", "count", "higher", 0},
	{"chain.blocks", "count", "lower", 0},
	{"chain.sealer_busy_ratio", "ratio", "lower", 0},
	{"chain.exec_conflict_ratio", "ratio", "lower", 0},
	{"chain.serial_tail_ratio", "ratio", "lower", 0},
	{"chain.snapshot_count", "count", "lower", 0},
	{"chain.snapshot_ms_total", "ms", "lower", 0},
	{"chain.backpressure_retries", "count", "lower", 0},

	{"store.wal_append_us_per_block", "us", "lower", 0},
	{"store.wal_bytes_per_tx", "B", "lower", 0},
	{"store.fsyncs_per_block", "ratio", "lower", 0},
	{"store.fsync_p50_us", "us", "lower", 0},

	{"solid.get_p50_us", "us", "lower", 0},
	{"solid.get_p90_us", "us", "lower", 0},
	{"solid.put_p50_us", "us", "lower", 0},
	{"solid.server_read_p50_us", "us", "lower", 0},
	{"solid.server_write_p50_us", "us", "lower", 0},
	{"solid.auth_cache_hit_ratio", "ratio", "higher", 0},
	{"solid.acl_generation_bumps", "count", "lower", 0},
	{"solid.requests", "count", "lower", 0},

	{"podmanager.publish_p50_ms", "ms", "lower", 0},
	{"podmanager.grant_p50_ms", "ms", "lower", 0},
	{"podmanager.modify_p50_ms", "ms", "lower", 0},
	{"podmanager.start_monitoring_p50_ms", "ms", "lower", 0},
	{"podmanager.collect_monitoring_p50_ms", "ms", "lower", 0},

	{"oracle.msgs_in_per_op", "count", "lower", 0},
	{"oracle.msgs_out_per_op", "count", "lower", 0},
	{"oracle.evidence_txs_per_round", "count", "lower", 0},

	{"tee.store_p50_us", "us", "lower", 0},
	{"tee.use_p50_us", "us", "lower", 0},
	{"tee.evidence_p50_us", "us", "lower", 0},

	{"market.payfee_p50_us", "us", "lower", 0},
	{"market.settle_ms", "ms", "lower", 0},

	{"distexchange.txs_per_op", "count", "lower", 0},
	{"distexchange.query_p50_us", "us", "lower", 0},
	{"distexchange.reverted", "count", "lower", 0},
	{"gas_per_op", "gas", "lower", 0},

	{"cryptoutil.sign_us", "us", "lower", 0},
	{"cryptoutil.verify_us", "us", "lower", 0},
	{"policy.evaluate_ns", "ns", "lower", 0},

	{"host.speed_factor", "ratio", "lower", 0},
	{"trace.self_time_coverage", "ratio", "higher", 0},
	{"trace_overhead_pct", "%", "lower", 0},
}
