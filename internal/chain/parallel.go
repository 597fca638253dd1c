package chain

import (
	"runtime"
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
//  1. executes every transaction optimistically against its own child
//     overlay of the (quiescent) block overlay, recording the keys it
//     read (including misses and Keys-listing prefixes) and wrote;
//  2. walks the transactions in block order, merging each child whose
//     read set is disjoint from the write sets merged ahead of it —
//     such a transaction observed exactly the state the serial path
//     would have shown it, so its receipt and write set are already
//     correct;
//  3. on the first conflict, abandons the remaining children and
//     re-executes that transaction and everything after it serially
//     against the block overlay (which now holds exactly the effects of
//     the merged prefix), which is the serial path by construction.
//
// The schedule is deterministic: the children's read/write sets depend
// only on the base state and the transactions (phase 1 is
// order-independent), so the first-conflict index — and therefore every
// receipt, the event order, the state root, and the block diff — is
// identical for every worker count, including 1. The differential tests
// in parallel_test.go pin this against the serial path.

// minParallelTxs is the block size below which the scheduler falls back
// to the serial path: per-child overlay setup and merge bookkeeping cost
// more than they save on tiny blocks.
const minParallelTxs = 4

// execWorkerCount resolves a Config.ExecWorkers value: <= 0 selects
// GOMAXPROCS, anything else is taken as given.
func execWorkerCount(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// replayTxsParallel executes one block's transactions against parent
// with up to workers goroutines, producing exactly the receipts, final
// overlay layer, and root that replayTxs would. workers <= 0 selects
// GOMAXPROCS; workers == 1 (and small blocks) degenerate to the serial
// path. The parent overlay must be quiescent (sealMu excludes all other
// state writers, exactly as on the serial path).
func replayTxsParallel(ex Executor, parent *Overlay, txs []*Tx, bctx BlockContext, workers int) []*Receipt {
	return replayTxsParallelObs(ex, parent, txs, txHashes(txs), bctx, workers, noopMetrics)
}

// replayTxsParallelObs is replayTxsParallel given the block's
// precomputed transaction hashes (parallel to txs), with scheduler stats
// recorded into m (never nil): workers used, blocks by path, conflict
// count, and serial-tail length. Metrics are observers only — they
// never influence the schedule, so instrumented and bare runs produce
// bit-identical blocks.
func replayTxsParallelObs(ex Executor, parent *Overlay, txs []*Tx, hashes []cryptoutil.Hash, bctx BlockContext, workers int, m *Metrics) []*Receipt {
	workers = execWorkerCount(workers)
	if workers > len(txs) {
		workers = len(txs)
	}
	if workers <= 1 || len(txs) < minParallelTxs {
		m.SerialBlocks.Inc()
		return replayTxs(ex, parent, txs, hashes, bctx)
	}
	m.ParallelBlocks.Inc()
	m.ExecWorkers.Set(int64(workers))

	// Phase 1: optimistic execution, every transaction against its own
	// read-recording child overlay. Workers pull indexes from an atomic
	// counter; results land in per-index slots, so scheduling order
	// never influences the outcome.
	children := make([]*Overlay, len(txs))
	receipts := make([]*Receipt, len(txs))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
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
				children[i], receipts[i] = child, r
			}
		}()
	}
	wg.Wait()

	// Phase 2: merge in transaction order. written accumulates the keys
	// the merged prefix wrote; the first transaction whose reads touch
	// it ends the optimistic run.
	conflictAt := len(txs)
	written := make(map[string]struct{})
	for i, child := range children {
		if child.conflictsWith(written) {
			conflictAt = i
			break
		}
		parent.mergeChild(child)
		child.addWriteKeys(written)
		children[i] = nil // drop the child's maps eagerly
	}

	if conflictAt < len(txs) {
		m.ExecConflicts.Inc()
		m.SerialTailTxs.Add(uint64(len(txs) - conflictAt))
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

// ReplayBlock executes a block's transactions against a fresh overlay of
// st with the given worker count and returns the receipts plus the net
// block diff — the block-execution core as a single call, exported for
// benchmarks and the ucbench parexec ablation. workers == 1 is the exact
// serial path; <= 0 selects GOMAXPROCS.
func ReplayBlock(ex Executor, st *State, txs []*Tx, bctx BlockContext, workers int) ([]*Receipt, []Delta) {
	overlay := NewOverlay(st)
	var receipts []*Receipt
	if workers == 1 {
		receipts = replayTxs(ex, overlay, txs, txHashes(txs), bctx)
	} else {
		receipts = replayTxsParallel(ex, overlay, txs, bctx, workers)
	}
	return receipts, overlay.TakeDeltas()
}
