package chain

import (
	"sync"
	"sync/atomic"

	"repro/internal/cryptoutil"
	"repro/internal/obs"
)

// Parallel intra-block execution (Block-STM-style optimistic concurrency
// control, scaled to this node's single-block scope).
//
// Sealing and validation both execute a block's transactions against a
// copy-on-write overlay of the committed state. The serial path
// (replayTxs) runs them one at a time; on every validator, so single-core
// execution caps the whole cluster's commit throughput. The parallel
// scheduler instead:
//
//  1. executes transactions optimistically, in claim order, each against
//     its own child overlay of the (quiescent) block overlay, recording
//     the keys it read (including misses and Keys-listing prefixes) and
//     wrote — and, while workers execute, walks the finished children in
//     block order (the frontier), accumulating the write keys of the
//     children it has passed. A child whose read set is disjoint from
//     the writes ahead of it observed exactly the state the serial path
//     would have shown it, so its receipt and write set are already
//     correct. The first child whose read set hits them fixes the
//     conflict index; workers stop claiming transactions, the few
//     executions already in flight finish and are dropped;
//  2. once every worker has returned, merges the clean prefix — the
//     children before the conflict index — into the block overlay, in
//     block order;
//  3. re-executes the conflicting transaction and everything after it
//     serially against the block overlay (which now holds exactly the
//     effects of the merged prefix), which is the serial path by
//     construction.
//
// The schedule is deterministic. The block overlay is not written until
// every worker has returned (the frontier only reads finished children),
// so a child's read and write sets depend only on the base state and its
// transaction, never on which other children ran, finished, or were
// never started. The conflict index is the smallest i whose reads hit
// the writes of children 0..i-1: a function of those sets alone, found
// by a walk that visits indexes in order whatever order they finish in.
// Every receipt, the event order, the state root, and the block diff are
// therefore identical for every worker count, including 1, and under
// every goroutine schedule; only the number of optimistic executions
// thrown away varies (about one per worker on a conflicting block). The
// differential and schedule tests in parallel_test.go pin this against
// the serial path.

// minParallelTxs is the block size below which the scheduler falls back
// to the serial path: per-child overlay setup and merge bookkeeping cost
// more than they save on tiny blocks.
const minParallelTxs = 4

// frontier is the block-order conflict walk that runs beside optimistic
// execution. It has no goroutine of its own: a worker that publishes a
// child while no pass is running carries the walk over every child
// published so far and goes back to executing; a worker that publishes
// while a pass is running leaves a count and goes straight back, and the
// running pass goes round again before it retires. No worker ever waits
// for another.
type frontier struct {
	// children[i] is set, once, when transaction i's optimistic
	// execution is final; the atomic store is what publishes the child's
	// maps to the pass that reads them.
	children []atomic.Pointer[Overlay]
	// pending counts publications no finished pass has accounted for.
	// The publisher that takes it from 0 to 1 owns the pass until it
	// brings it back to 0; that hand-over orders one pass's writes to at
	// and written before the next pass's reads.
	pending atomic.Int64
	// stop tells workers the conflict index is known: claim no more.
	stop atomic.Bool

	at      int                 // next index to examine; owned by the running pass
	written map[string]struct{} // write keys of children [0, at); owned by the running pass
}

// publish records transaction i's finished child and, if no pass is
// running, walks the frontier forward. When every worker has returned,
// every published child has been seen by a pass that started after its
// publication, so at is the block's first conflict index (or len(children)).
func (f *frontier) publish(i int, child *Overlay) {
	f.children[i].Store(child)
	if f.pending.Add(1) != 1 {
		return
	}
	for {
		seen := f.pending.Load()
		f.walk()
		if f.pending.Add(-seen) == 0 {
			return
		}
	}
}

// walk advances at over the contiguous published children, folding each
// one's write keys into written, until it meets an unpublished slot or
// the first child whose reads hit the writes ahead of it. It only reads
// children: the block overlay they execute against stays untouched.
func (f *frontier) walk() {
	for !f.stop.Load() && f.at < len(f.children) {
		child := f.children[f.at].Load()
		if child == nil {
			return
		}
		if child.conflictsWith(f.written) {
			f.stop.Store(true)
			return
		}
		child.addWriteKeys(f.written)
		f.at++
	}
}

// replayTxsParallelObs executes one block's transactions against parent
// with up to workers goroutines, producing exactly the receipts, final
// overlay layer, and root that replayTxs would. Node.executeBlock
// passes GOMAXPROCS; the differential suites pass their own widths. One
// worker (and a block under minParallelTxs) degenerates to the serial
// path. The parent overlay must be quiescent (sealMu excludes all other
// state writers, exactly as on the serial path). hashes are the block's
// precomputed transaction hashes (parallel to txs); scheduler stats are
// recorded into m (never nil): workers used, blocks by path, conflict
// count, serial-tail length, and optimistic executions discarded.
// Metrics are observers only — they never influence the schedule, so
// instrumented and bare runs produce bit-identical blocks.
func replayTxsParallelObs(ex Executor, parent *Overlay, txs []*Tx, hashes []cryptoutil.Hash, bctx BlockContext, workers int, m *Metrics) []*Receipt {
	if workers > len(txs) {
		workers = len(txs)
	}
	if workers <= 1 || len(txs) < minParallelTxs {
		m.SerialBlocks.Inc()
		return replayTxs(ex, parent, txs, hashes, bctx)
	}
	m.ParallelBlocks.Inc()
	m.ExecWorkers.Set(int64(workers))

	// Phase 1: optimistic execution in claim order, each transaction
	// against its own read-recording child overlay, with the frontier
	// walking the finished children in block order beside it. Workers
	// pull indexes from an atomic counter until it runs out or the
	// frontier has found the conflict; results land in per-index slots,
	// so scheduling order never influences the outcome.
	receipts := make([]*Receipt, len(txs))
	f := frontier{
		children: make([]atomic.Pointer[Overlay], len(txs)),
		written:  make(map[string]struct{}),
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for !f.stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(txs) {
					return
				}
				child := newChildOverlay(parent)
				r := ex.ExecuteTx(child, txs[i], bctx)
				if r.Status != StatusOK {
					// Mirror the serial path: a reverted transaction
					// leaves no state effects and no events. The read
					// set survives the revert — the decision to revert
					// was itself based on those reads.
					child.RevertTo(0)
					r.Events = nil
				}
				receipts[i] = r
				f.publish(i, child)
			}
		}()
	}
	wg.Wait()

	// Every published child has been walked (see frontier.publish), so
	// the frontier rests on the first conflict, or past the last
	// transaction when there is none. Executions were claimed
	// contiguously from 0, so those at or past it are the wasted ones.
	conflictAt := f.at
	started := min(int(next.Load()), len(txs))
	m.ExecDiscarded.Add(uint64(started - conflictAt))
	if conflictAt < len(txs) {
		m.ExecConflicts.Inc()
		m.SerialTailTxs.Add(uint64(len(txs) - conflictAt))
	}

	// Phase 2: merge the clean prefix in transaction order. Only now,
	// with no child left executing, is the block overlay written.
	for i := range conflictAt {
		parent.mergeChild(f.children[i].Load())
	}

	if tr := m.Tracer; tr != nil {
		for i, h := range hashes {
			if i < conflictAt {
				tr.Mark(h.String(), obs.StageMerge)
			} else {
				tr.Mark(h.String(), obs.StageSerialTail)
			}
		}
	}

	// Phase 3: the conflicting tail re-executes serially against the
	// block overlay, which holds exactly the serial path's state after
	// the merged prefix.
	for i := conflictAt; i < len(txs); i++ {
		checkpoint := parent.Checkpoint()
		r := ex.ExecuteTx(parent, txs[i], bctx)
		if r.Status != StatusOK {
			parent.RevertTo(checkpoint)
			r.Events = nil
		}
		receipts[i] = r
	}

	// Receipt bookkeeping, identical to replayTxs: block-local event
	// indexes run across the whole block in transaction order.
	eventIndex := 0
	for i, r := range receipts {
		r.TxHash = hashes[i]
		r.BlockNumber = bctx.Number
		for j := range r.Events {
			r.Events[j].BlockNumber = bctx.Number
			r.Events[j].TxHash = r.TxHash
			r.Events[j].Index = eventIndex
			eventIndex++
		}
	}
	return receipts
}
