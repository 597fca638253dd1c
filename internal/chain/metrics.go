package chain

import "repro/internal/obs"

// Metrics bundles the chain layer's instruments. Every field is a
// nil-safe obs instrument, so instrumented code records unconditionally:
// a node built without a registry (the default) carries all-nil
// instruments and every recording call is a branch and a return.
//
// The chain package is replay-deterministic (see internal/lint), so no
// code here may read the wall clock directly; latencies are measured
// with the obs Timer idiom (Histogram.Start / Timer.Stop), which keeps
// every clock read inside internal/obs.
type Metrics struct {
	// Admission (mempool) counters.
	Admitted        *obs.Counter // transactions accepted into the mempool
	Duplicates      *obs.Counter // rebroadcasts of queued transactions
	Stale           *obs.Counter // nonces below the committed sequence
	RejectedNonce   *obs.Counter // nonce gaps
	RejectedGas     *obs.Counter // gas limit above the protocol cap
	QuotaRejected   *obs.Counter // per-sender pending quota exceeded
	RejectedReplace *obs.Counter // replace-by-fee bids below the bump threshold
	Backpressured   *obs.Counter // full-pool rejections (retryable backpressure)
	Evicted         *obs.Counter // cheapest tails evicted by better-priced arrivals
	Replaced        *obs.Counter // queued transactions superseded by fee bumps
	MempoolDepth    *obs.Gauge   // queued transactions after the last admission/drain
	PoolOccupancy   *obs.Gauge   // pool fill fraction, permille of capacity

	// Latency histograms (nanoseconds).
	VerifyLatency *obs.Histogram // signature verification per submit call
	SealDuration  *obs.Histogram // whole seal: drain, execute, sign, commit
	FoldLatency   *obs.Histogram // delta fold into committed state (under mu)
	ReceiptWait   *obs.Histogram // WaitForReceipt blocking time

	// Commit counters.
	BlocksCommitted *obs.Counter
	BlockTxs        *obs.Histogram // transactions per committed block

	// Block-validation signature checks (ApplyBlock): per transaction of
	// a validated block, whether its admission-time verification was
	// reused or it was verified now.
	SigsReused   *obs.Counter
	SigsVerified *obs.Counter

	// Parallel-execution scheduler stats (see parallel.go).
	ExecWorkers    *obs.Gauge   // workers used by the last parallel block
	ParallelBlocks *obs.Counter // blocks through the optimistic scheduler
	SerialBlocks   *obs.Counter // blocks on the serial path (one worker or tiny)
	ExecConflicts  *obs.Counter // blocks whose optimistic run hit a conflict
	SerialTailTxs  *obs.Counter // transactions re-executed on the serial tail
	ExecDiscarded  *obs.Counter // optimistic executions started whose result was not merged

	// Durability.
	SnapshotWrite  *obs.Histogram // background snapshot encode+write
	SnapshotBytes  *obs.Counter   // snapshot payload bytes written (÷ WAL bytes = write amplification)
	RecoveryReplay *obs.Histogram // OpenNode WAL replay time

	// Tracer records tx lifecycles (submit → admit → exec → commit →
	// receipt). Unlike the instruments above it is checked for nil at
	// call sites, because rendering a trace ID costs a hash-to-hex
	// conversion the disabled path must not pay.
	Tracer *obs.Tracer
}

// NewMetrics registers the chain series on reg and returns the handle
// the Config carries. A nil reg yields all-nil (no-op) instruments and
// no tracer — the zero-overhead default.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{
		Admitted:        reg.Counter("chain_mempool_admitted_total", "transactions accepted into the mempool"),
		Duplicates:      reg.Counter("chain_mempool_duplicate_total", "rebroadcasts of already-queued transactions"),
		Stale:           reg.Counter("chain_mempool_stale_total", "submissions with nonces below the committed sequence"),
		RejectedNonce:   reg.Counter("chain_mempool_rejected_total", "rejected submissions by cause", obs.L("cause", "nonce")),
		RejectedGas:     reg.Counter("chain_mempool_rejected_total", "rejected submissions by cause", obs.L("cause", "gas")),
		QuotaRejected:   reg.Counter("chain_mempool_rejected_total", "rejected submissions by cause", obs.L("cause", "quota")),
		RejectedReplace: reg.Counter("chain_mempool_rejected_total", "rejected submissions by cause", obs.L("cause", "replace")),
		Backpressured:   reg.Counter("chain_mempool_backpressure_total", "full-pool rejections answered with backpressure"),
		Evicted:         reg.Counter("chain_mempool_evicted_total", "cheapest speculative tails evicted by better-priced arrivals"),
		Replaced:        reg.Counter("chain_mempool_replaced_total", "queued transactions superseded by replace-by-fee bumps"),
		MempoolDepth:    reg.Gauge("chain_mempool_depth", "queued transactions after the last admission or drain"),
		PoolOccupancy:   reg.Gauge("chain_mempool_occupancy_permille", "mempool fill fraction in permille of configured capacity"),

		VerifyLatency: reg.Histogram("chain_verify_latency_ns", "signature verification latency per submit call"),
		SealDuration:  reg.Histogram("chain_seal_duration_ns", "block seal latency: drain, execute, sign, commit"),
		FoldLatency:   reg.Histogram("chain_state_fold_ns", "delta fold into committed state under the ledger lock"),
		ReceiptWait:   reg.Histogram("chain_receipt_wait_ns", "WaitForReceipt blocking time"),

		BlocksCommitted: reg.Counter("chain_blocks_committed_total", "blocks durably committed"),
		BlockTxs:        reg.Histogram("chain_block_txs", "transactions per committed block"),

		SigsReused:   reg.Counter("chain_block_sigs_total", "signatures of validated blocks' transactions by check", obs.L("result", "reused")),
		SigsVerified: reg.Counter("chain_block_sigs_total", "signatures of validated blocks' transactions by check", obs.L("result", "verified")),

		ExecWorkers:    reg.Gauge("chain_exec_workers", "workers used by the last parallel block execution"),
		ParallelBlocks: reg.Counter("chain_exec_blocks_total", "blocks executed by path", obs.L("path", "parallel")),
		SerialBlocks:   reg.Counter("chain_exec_blocks_total", "blocks executed by path", obs.L("path", "serial")),
		ExecConflicts:  reg.Counter("chain_exec_conflicts_total", "parallel blocks whose optimistic run hit a conflict"),
		SerialTailTxs:  reg.Counter("chain_exec_serial_tail_txs_total", "transactions re-executed on the serial tail"),
		ExecDiscarded:  reg.Counter("chain_exec_discarded_total", "optimistic executions started whose result was not merged"),

		SnapshotWrite:  reg.Histogram("chain_snapshot_write_ns", "background snapshot encode and write duration"),
		SnapshotBytes:  reg.Counter("chain_snapshot_bytes_total", "snapshot payload bytes written"),
		RecoveryReplay: reg.Histogram("chain_recovery_replay_ns", "OpenNode WAL replay and state rebuild time"),
	}
	if reg != nil {
		m.Tracer = obs.NewTracer(256)
	}
	return m
}

// noopMetrics is the shared all-nil handle nodes without a registry use.
var noopMetrics = &Metrics{}

// orNoop normalizes a possibly-nil Config.Metrics so instrumentation
// sites never nil-check the struct itself.
func (m *Metrics) orNoop() *Metrics {
	if m == nil {
		return noopMetrics
	}
	return m
}
