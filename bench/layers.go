package main

import (
	"strings"

	"repro/internal/obs"
)

// series names one obs series the layers already export; scrape resolves it on
// the registry handed to core.Config.Obs (validator 0 and the pod host).
type series struct {
	name   string
	labels []obs.Label
}

var (
	sBackpressure   = series{name: "chain_mempool_backpressure_total"}
	sQuotaRejected  = series{"chain_mempool_rejected_total", []obs.Label{obs.L("cause", "quota")}}
	sConflicts      = series{name: "chain_exec_conflicts_total"}
	sParallelBlocks = series{"chain_exec_blocks_total", []obs.Label{obs.L("path", "parallel")}}
	sSerialTail     = series{name: "chain_exec_serial_tail_txs_total"}
	sWALBytes       = series{name: "store_wal_appended_bytes_total"}
	sFsyncs         = series{name: "store_wal_fsync_total"}
	sAuthHit        = series{"solid_auth_cache_total", []obs.Label{obs.L("outcome", "hit")}}
	sAuthMiss       = series{"solid_auth_cache_total", []obs.Label{obs.L("outcome", "miss")}}

	hVerify      = series{name: "chain_verify_latency_ns"}
	hFold        = series{name: "chain_state_fold_ns"}
	hReceiptWait = series{name: "chain_receipt_wait_ns"}
	hSnapshot    = series{name: "chain_snapshot_write_ns"}
	hWALAppend   = series{name: "store_wal_append_ns"}
	hFsync       = series{name: "store_wal_fsync_ns"}
	hSolidRead   = solidLatency("resource", "read")
	hSolidWrite  = solidLatency("resource", "write")

	counterSeries = []series{sBackpressure, sQuotaRejected, sConflicts, sParallelBlocks, sSerialTail, sWALBytes, sFsyncs, sAuthHit, sAuthMiss}
	histSeries    = []series{hVerify, hFold, hReceiptWait, hSnapshot, hWALAppend, hFsync, hSolidRead, hSolidWrite,
		solidLatency("container", "read"), solidLatency("container", "write")}
)

func solidLatency(class, mode string) series {
	return series{"solid_request_latency_ns", []obs.Label{obs.L("class", class), obs.L("mode", mode)}}
}

func (s series) key() string {
	var b strings.Builder
	b.WriteString(s.name)
	for _, l := range s.labels {
		b.WriteString("," + l.Key + "=" + l.Value)
	}
	return b.String()
}

// scrape is a reading of the registry's counters and histogram totals.
type scrape struct {
	counter map[string]uint64
	count   map[string]uint64
	sum     map[string]uint64
}

// scrapeRegistry reads every series the per-layer table uses. A nil registry
// (the untraced run) reads as all zeros.
func scrapeRegistry(reg *obs.Registry) scrape {
	out := scrape{counter: map[string]uint64{}, count: map[string]uint64{}, sum: map[string]uint64{}}
	for _, s := range counterSeries {
		out.counter[s.key()] = reg.Counter(s.name, "", s.labels...).Value()
	}
	for _, s := range histSeries {
		h := reg.Histogram(s.name, "", s.labels...)
		out.count[s.key()], out.sum[s.key()] = h.Count(), h.Sum()
	}
	return out
}

// delta is the registry's movement over the measured phase.
type delta struct{ before, after scrape }

func (d delta) counter(s series) float64 {
	return float64(d.after.counter[s.key()] - d.before.counter[s.key()])
}
func (d delta) count(s series) float64 {
	return float64(d.after.count[s.key()] - d.before.count[s.key()])
}
func (d delta) sum(s series) float64 { return float64(d.after.sum[s.key()] - d.before.sum[s.key()]) }

// quantile is the histogram's q-quantile in nanoseconds, or 0 when the measured
// phase added no observation to it. The histogram also holds the set-up
// phase's few samples; obs exports no way to subtract them.
func (d delta) quantile(reg *obs.Registry, s series, q float64) float64 {
	if d.count(s) == 0 {
		return 0
	}
	return reg.Histogram(s.name, "", s.labels...).Quantile(q)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// spanStats indexes one traced run's spans by name.
type spanStats struct {
	durations map[string][]int64
	totals    map[string]int64
}

func indexSpans(spans []span) spanStats {
	st := spanStats{durations: map[string][]int64{}, totals: map[string]int64{}}
	for _, s := range spans {
		d := s.End - s.Start
		st.durations[s.Name] = append(st.durations[s.Name], d)
		st.totals[s.Name] += d
	}
	return st
}

// q is the q-quantile of the named spans' durations, in nanoseconds.
func (st spanStats) q(q float64, names ...string) float64 {
	var all []int64
	for _, n := range names {
		all = append(all, st.durations[n]...)
	}
	return quantile(all, q)
}

// selfTimeCoverage is the share of the ops' wall time that some layer span
// below the op root accounts for: 1 − Σ self(root) / Σ duration(root). Without
// concurrency inside an op this equals the summed self times of the layer
// spans over the op's wall time; with it (the oracle's fan-out) the sum would
// count parallel time twice. What is missing is time the harness itself spent
// between layer calls.
func selfTimeCoverage(spans []span) float64 {
	self := selfTimes(spans)
	var uncovered, wall int64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "op.") {
			wall += s.End - s.Start
			uncovered += self[s.ID]
		}
	}
	if wall == 0 {
		return 0
	}
	return 1 - float64(uncovered)/float64(wall)
}

// layerInputs is everything the per-layer table is computed from.
type layerInputs struct {
	e                             *env
	ops                           int // completed operations
	wallNs                        float64
	spans                         []span
	ledger                        ledgerDelta
	sealer                        sealerStats // movement over the measured phase
	reg                           delta
	oracleIn, oracleOut, aclBumps float64
	peakRSSKB                     int64
	signUs, verifyUs, policyNs    float64
}

// layerMetrics computes the per-layer table of one traced run. Every layer is
// measured from outside: benchmark-side spans around its public calls, or the
// obs series it already exports.
func layerMetrics(in layerInputs) map[string]float64 {
	st := indexSpans(in.spans)
	reg := in.e.reg
	ops, txs, blocks := float64(in.ops), float64(in.ledger.txs), float64(in.ledger.blocks)
	const us, ms = 1e3, 1e6

	submitUs := ratio(float64(st.totals["chain.submit"])/us, txs)
	verifyUs := ratio(in.reg.sum(hVerify)/us, txs)
	admitUs := 0.0
	if submitUs > 0 {
		admitUs = submitUs - verifyUs
	}
	solidRequests := 0.0
	for _, s := range histSeries {
		if s.name == hSolidRead.name {
			solidRequests += in.reg.count(s)
		}
	}
	rounds := float64(in.ledger.byMethod["requestMonitoring"])
	// Where the benchmark itself waits for receipts (chain-*: one span per
	// batch, submit return to last receipt) that is the queue wait; elsewhere
	// the layers wait internally and validator 0's histogram has it per tx.
	receiptWait := st.q(0.5, "chain.receipt_wait")
	if receiptWait == 0 {
		receiptWait = in.reg.quantile(reg, hReceiptWait, 0.5)
	}

	return map[string]float64{
		"core.pod_init_p50_ms": quantile(in.e.podInitNs, 0.5) / ms,
		"core.publish_p50_ms":  st.q(0.5, "core.publish") / ms,
		"core.grant_p50_ms":    st.q(0.5, "core.grant") / ms,
		"core.index_p50_us":    st.q(0.5, "core.index") / us,
		"core.access_p50_ms":   st.q(0.5, "core.access") / ms,
		"core.use_p50_us":      st.q(0.5, "core.use") / us,
		"core.modify_p50_ms":   st.q(0.5, "core.modify") / ms,
		"core.settle_ms":       float64(st.totals["market.settle"]) / ms,
		"core.monitor_p50_ms":  st.q(0.5, "core.monitor") / ms,
		"core.peak_rss_mb":     float64(in.peakRSSKB) / 1024,

		"chain.submit_us_per_tx":     submitUs,
		"chain.verify_us_per_tx":     verifyUs,
		"chain.admit_us_per_tx":      admitUs,
		"chain.seal_us_per_tx":       ratio(float64(in.sealer.busy.Nanoseconds())/us, txs),
		"chain.seal_ms_per_block":    ratio(float64(in.sealer.busy.Nanoseconds())/ms, float64(in.sealer.blocks)),
		"chain.fold_us_per_block":    ratio(in.reg.sum(hFold)/us, in.reg.count(hFold)),
		"chain.receipt_wait_p50_ms":  receiptWait / ms,
		"chain.txs_per_block":        ratio(txs, blocks),
		"chain.blocks":               blocks,
		"chain.sealer_busy_ratio":    ratio(float64(in.sealer.busy.Nanoseconds()), in.wallNs),
		"chain.exec_conflict_ratio":  ratio(in.reg.counter(sConflicts), in.reg.counter(sParallelBlocks)),
		"chain.serial_tail_ratio":    ratio(in.reg.counter(sSerialTail), txs),
		"chain.snapshot_count":       in.reg.count(hSnapshot),
		"chain.snapshot_ms_total":    in.reg.sum(hSnapshot) / ms,
		"chain.backpressure_retries": in.reg.counter(sBackpressure) + in.reg.counter(sQuotaRejected),

		"store.wal_append_us_per_block": ratio(in.reg.sum(hWALAppend)/us, in.reg.count(hWALAppend)),
		"store.wal_bytes_per_tx":        ratio(in.reg.counter(sWALBytes), txs),
		"store.fsyncs_per_block":        ratio(in.reg.counter(sFsyncs), blocks),
		"store.fsync_p50_us":            in.reg.quantile(reg, hFsync, 0.5) / us,

		"solid.get_p50_us":           st.q(0.5, "solid.get") / us,
		"solid.get_p90_us":           st.q(0.9, "solid.get") / us,
		"solid.put_p50_us":           st.q(0.5, "solid.put") / us,
		"solid.server_read_p50_us":   in.reg.quantile(reg, hSolidRead, 0.5) / us,
		"solid.server_write_p50_us":  in.reg.quantile(reg, hSolidWrite, 0.5) / us,
		"solid.auth_cache_hit_ratio": ratio(in.reg.counter(sAuthHit), in.reg.counter(sAuthHit)+in.reg.counter(sAuthMiss)),
		"solid.acl_generation_bumps": in.aclBumps,
		"solid.requests":             solidRequests,

		"podmanager.publish_p50_ms":            st.q(0.5, "podmanager.publish") / ms,
		"podmanager.grant_p50_ms":              st.q(0.5, "podmanager.grant") / ms,
		"podmanager.modify_p50_ms":             st.q(0.5, "podmanager.modify") / ms,
		"podmanager.start_monitoring_p50_ms":   st.q(0.5, "podmanager.start_monitoring") / ms,
		"podmanager.collect_monitoring_p50_ms": st.q(0.5, "podmanager.collect_monitoring") / ms,

		"oracle.msgs_in_per_op":         ratio(in.oracleIn, ops),
		"oracle.msgs_out_per_op":        ratio(in.oracleOut, ops),
		"oracle.evidence_txs_per_round": ratio(float64(in.ledger.byMethod["submitEvidence"]), rounds),

		"tee.store_p50_us":    st.q(0.5, "tee.store") / us,
		"tee.use_p50_us":      st.q(0.5, "tee.use") / us,
		"tee.evidence_p50_us": st.q(0.5, "tee.evidence") / us,

		"market.payfee_p50_us": st.q(0.5, "market.payfee") / us,
		"market.settle_ms":     float64(st.totals["market.settle"]) / ms,

		"distexchange.txs_per_op":   ratio(txs, ops),
		"distexchange.query_p50_us": st.q(0.5, "distexchange.query", "core.index") / us,
		"distexchange.reverted":     float64(in.ledger.reverted),
		"gas_per_op":                ratio(float64(in.ledger.gas), ops),

		"cryptoutil.sign_us":   in.signUs,
		"cryptoutil.verify_us": in.verifyUs,
		"policy.evaluate_ns":   in.policyNs,

		"trace.self_time_coverage": selfTimeCoverage(in.spans),
	}
}
