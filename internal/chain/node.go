package chain

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/store"
)

// BlockContext exposes block-level environment data to contract execution.
type BlockContext struct {
	// Number is the block height being executed.
	Number uint64
	// Time is the block timestamp. Contracts must use it (never the wall
	// clock) so that every node executes deterministically.
	Time time.Time
}

// Executor runs transactions against state. It is implemented by the
// contract runtime (package contract); the indirection keeps the chain
// package free of contract semantics, as an EVM is pluggable in a real
// node. Execution receives the StateRW interface rather than a concrete
// *State: block production and validation run against a copy-on-write
// *Overlay of the committed state, while queries read the committed
// *State directly — the executor cannot tell the difference.
type Executor interface {
	// ExecuteTx runs a state-mutating transaction and returns its receipt.
	// On a revert, the executor must leave the state untouched (the node
	// additionally guards with a checkpoint).
	ExecuteTx(st StateRW, tx *Tx, bctx BlockContext) *Receipt
	// Query runs a read-only method with no transaction and no gas
	// accounting. It must not mutate state.
	Query(st StateRW, contract cryptoutil.Address, method string, args []byte, bctx BlockContext) ([]byte, error)
}

// maxTxsPerBlock caps the transactions one block carries.
const maxTxsPerBlock = 1024

// MaxBlockTxBytes is a block's byte budget: the encoded size of its
// transactions, each counted at txSizeHint (a bound from above). Take
// fills it, ApplyBlock refuses a block over it, and admission refuses a
// transaction that could never fit it (ErrTxTooLarge). It is a sixteenth
// of store.MaxRecordSize, so the block's WAL record keeps room for its
// receipts and state diff: a record the WAL refuses would fail every
// seal of the same selection and halt the chain. The largest block
// record any benchmark workload writes, receipts and diff included, is
// about 0.4 MB.
const MaxBlockTxBytes = store.MaxRecordSize / 16

// Config configures a Node.
type Config struct {
	// Key is this node's authority key.
	Key *cryptoutil.KeyPair
	// Authorities is the proof-of-authority proposer set, in rotation
	// order. It must contain the node's own address for the node to
	// propose blocks.
	Authorities []cryptoutil.Address
	// Executor executes transactions.
	Executor Executor
	// Clock supplies block timestamps; defaults to the real clock.
	Clock simclock.Clock
	// GenesisTime is the timestamp of block 0.
	GenesisTime time.Time
	// MempoolCapacity bounds the transaction pool; defaults to 8192. At
	// capacity, admission evicts the cheapest speculative tail when the
	// incoming transaction strictly price-beats it, and rejects with
	// ErrPoolFull/ErrUnderpriced (retryable backpressure) otherwise.
	MempoolCapacity int
	// MaxPendingPerSender caps one sender's queued transactions; defaults
	// to 1024. Beyond it, admission rejects with ErrQuotaExceeded.
	MaxPendingPerSender int
	// ExecWorkers bounds the parallel transaction scheduler used by block
	// sealing and validation (see parallel.go). 0 (the default) uses
	// GOMAXPROCS; 1 forces the exact legacy serial execution path. Every
	// worker count produces bit-identical blocks — this only trades
	// latency for cores.
	ExecWorkers int
	// DataDir, when non-empty, makes the node durable: sealed and applied
	// blocks are appended to a write-ahead log under this directory and
	// state snapshots bound recovery replay. Empty keeps the node fully
	// in-memory (the historical behaviour). Only OpenNode honours it;
	// NewNode always builds an in-memory node.
	DataDir string
	// Persist configures the write-ahead log (fsync policy). Ignored
	// without DataDir.
	Persist store.Options
	// Metrics receives the node's observability instruments (see
	// metrics.go). nil (the default) records nothing — every recording
	// site degenerates to a nil-receiver branch.
	Metrics *Metrics
}

// Node is a proof-of-authority blockchain node: it holds the ledger and
// state, accepts transactions into a mempool, seals blocks when it is its
// turn, validates and applies blocks sealed by other authorities, and
// serves read-only queries and event subscriptions.
//
// Locking discipline (see the package documentation for the full
// contract): mu guards the ledger (blocks, state handle, receipt
// waiters); mpMu guards transaction admission (mempool, nonces); sealMu
// serializes block production and application. Lock order is always
// sealMu → mpMu → mu, and no lock is held while calling out to the
// Executor's Query path.
type Node struct {
	key         *cryptoutil.KeyPair
	authorities []cryptoutil.Address
	executor    Executor
	clock       simclock.Clock
	execWorkers int

	mu       sync.RWMutex
	state    *State                              // guarded by mu
	blocks   []*Block                            // guarded by mu
	waiters  map[cryptoutil.Hash][]chan *Receipt // guarded by mu
	receipts map[cryptoutil.Hash]*Receipt        // guarded by mu; hash → receipt index over blocks

	mpMu    sync.Mutex
	mempool *mempool                      // guarded by mpMu
	nonces  map[cryptoutil.Address]uint64 // guarded by mpMu

	feed  *eventFeed
	costs CostLedger

	// metrics is never nil (normalized from Config.Metrics); its
	// instruments are nil-safe no-ops when no registry was supplied.
	metrics *Metrics

	// wal is the durable block log (nil for in-memory nodes). It is
	// written by commitBlock OUTSIDE mu (sealMu already serializes
	// commits, so records stay in block order); snap is the background
	// snapshot writer. tailBytes is the diff payload committed since the
	// last snapshot (what a recovery would replay) and snapFloor the
	// store.SnapshotDue floor (tests lower it); both belong to
	// commitBlock, whose callers hold sealMu.
	wal       *store.WAL
	snap      *snapshotWriter
	tailBytes int64
	snapFloor int64

	sealMu  sync.Mutex
	scratch blockScratch // guarded by sealMu; doc.go, "Buffers a node reuses"

	// Byzantine-fault bookkeeping (see byzantine.go): evMu guards the
	// collected double-seal evidence; equivGuardOff disables the
	// equivocation rejection path (fault-injection hook only).
	evMu          sync.Mutex
	evidence      []EquivocationEvidence // guarded by evMu
	equivGuardOff atomic.Bool
}

// Node construction and submission errors.
var (
	ErrNoAuthorities = errors.New("chain: empty authority set")
	ErrBadNonce      = errors.New("chain: bad nonce")
	ErrNotOurTurn    = errors.New("chain: not this node's turn to propose")
	// ErrTxStale reports a transaction that reuses a nonce this node has
	// already committed to a different transaction: a replay attempt. It
	// matches ErrBadNonce under errors.Is.
	ErrTxStale = fmt.Errorf("%w: nonce already committed", ErrBadNonce)
)

// NewNode creates a node with a genesis block.
func NewNode(cfg Config) (*Node, error) {
	if len(cfg.Authorities) == 0 {
		return nil, ErrNoAuthorities
	}
	if cfg.Key == nil {
		return nil, errors.New("chain: missing node key")
	}
	if cfg.Executor == nil {
		return nil, errors.New("chain: missing executor")
	}
	clk := cfg.Clock
	if clk == nil {
		clk = simclock.Real{}
	}
	poolCap := cfg.MempoolCapacity
	if poolCap <= 0 {
		poolCap = 8192
	}
	quota := cfg.MaxPendingPerSender
	if quota <= 0 {
		quota = 1024
	}
	n := &Node{
		key:         cfg.Key,
		authorities: append([]cryptoutil.Address(nil), cfg.Authorities...),
		executor:    cfg.Executor,
		clock:       clk,
		execWorkers: cfg.ExecWorkers,
		state:       NewState(),
		mempool:     newMempool(poolCap, quota),
		nonces:      make(map[cryptoutil.Address]uint64),
		waiters:     make(map[cryptoutil.Hash][]chan *Receipt),
		receipts:    make(map[cryptoutil.Hash]*Receipt),
		feed:        newEventFeed(),
		metrics:     cfg.Metrics.orNoop(),
	}
	genesis := &Block{Header: Header{
		Number:      0,
		Time:        cfg.GenesisTime,
		TxRoot:      txRoot(nil, nil),
		ReceiptRoot: receiptRoot(nil, nil),
		StateRoot:   n.state.Root(),
	}}
	n.blocks = []*Block{genesis}
	return n, nil
}

// Address returns the node's authority address.
func (n *Node) Address() cryptoutil.Address { return n.key.Address() }

// Height returns the latest block number.
func (n *Node) Height() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.blocks[len(n.blocks)-1].Header.Number
}

// Head returns the latest block.
func (n *Node) Head() *Block {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.blocks[len(n.blocks)-1]
}

// BlockByNumber returns a block by height, or nil if out of range.
func (n *Node) BlockByNumber(num uint64) *Block {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if num >= uint64(len(n.blocks)) {
		return nil
	}
	return n.blocks[num]
}

// NonceFor returns the next nonce for an address (committed plus pending).
func (n *Node) NonceFor(addr cryptoutil.Address) uint64 {
	n.mpMu.Lock()
	defer n.mpMu.Unlock()
	return n.nonces[addr] + n.mempool.PendingFrom(addr)
}

// CommittedNonce returns the next expected nonce considering only
// committed transactions (no mempool pending). Invariant checkers compare
// it against the per-sender sequence reconstructed from the ledger.
func (n *Node) CommittedNonce(addr cryptoutil.Address) uint64 {
	n.mpMu.Lock()
	defer n.mpMu.Unlock()
	return n.nonces[addr]
}

// TxVerdict is the per-transaction outcome of a submission: the
// transaction's hash plus the admission error, nil when the transaction
// is queued (or was already queued, or already committed) wherever it
// was submitted.
type TxVerdict struct {
	Hash cryptoutil.Hash
	Err  error
}

// Admitted reports whether the transaction was accepted.
func (v TxVerdict) Admitted() bool { return v.Err == nil }

// checked runs the first two stages of the submission pipeline, shared
// by Node.Submit and Network.Submit: hash every transaction and check
// its signature on the verifier pool, whose latency is recorded on each
// observer's VerifyLatency. A verdict that already carries an error is
// skipped by admit.
func checked(txs []*Tx, observers []*Node) []TxVerdict {
	tms := make([]obs.Timer, len(observers))
	for i, n := range observers {
		tms[i] = n.metrics.VerifyLatency.Start()
	}
	out := verify(txs)
	for _, tm := range tms {
		tm.Stop()
	}
	return out
}

// Submit is the one way into this node's mempool: hash once, verify on
// the pool, admit under a single mempool lock acquisition. It answers
// per transaction and admits what it can; a refused transaction takes
// its same-sender successors in the batch with it (transactions sharing
// a sender must appear in nonce order). Resubmitting a transaction that
// is queued here, or that this node has already committed, is an
// idempotent success.
func (n *Node) Submit(txs []*Tx) []TxVerdict {
	out := checked(txs, []*Node{n})
	n.admit(txs, out)
	return out
}

// errPredecessorRefused is the verdict of a transaction whose sender had
// an earlier transaction of the same submission refused.
var errPredecessorRefused = fmt.Errorf("%w: an earlier transaction of this sender was refused", ErrBadNonce)

// admit enqueues signature-checked transactions — out[i].Hash is
// txs[i].Hash() — under one mempool lock acquisition, skipping those
// whose verdict already failed and recording each refusal in out[i].Err.
// A refusal takes the sender's later transactions in the batch with it,
// whether or not this node's own queue would have let them continue (a
// peer's refusal arrives here as a failed verdict), so withdrawing a
// refused transaction never leaves a successor queued behind the gap. A
// replay on a committed nonce is the exception: it was never queued, so
// no successor hangs on it. admit returns the indexes it newly queued
// (duplicates and committed rebroadcasts excluded), which is what
// withdraw undoes. It is the only caller of enqueueLocked, so nothing
// enters a mempool unverified unless a test hands admit an unverified
// transaction on purpose.
func (n *Node) admit(txs []*Tx, out []TxVerdict) (added []int) {
	added = make([]int, 0, len(txs))
	var refused map[cryptoutil.Address]bool // senders with a refusal so far
	n.mpMu.Lock()
	defer n.mpMu.Unlock()
	for i, tx := range txs {
		switch {
		case out[i].Err != nil: // refused upstream: by verification, or by a peer
		case refused[tx.From]:
			n.metrics.RejectedNonce.Inc()
			out[i].Err = errPredecessorRefused
		default:
			var took bool
			if took, out[i].Err = n.enqueueLocked(tx, out[i].Hash); took {
				added = append(added, i)
			}
		}
		if err := out[i].Err; err != nil && !errors.Is(err, ErrTxStale) {
			if refused == nil {
				refused = make(map[cryptoutil.Address]bool)
			}
			refused[tx.From] = true
		}
	}
	return added
}

// withdraw removes from the mempool the transactions of added (indexes
// into out, as admit returned them) whose verdict failed, or all of them.
// The network layer uses it to undo an admission a peer refused; a block
// being sealed concurrently still carries what it selected.
func (n *Node) withdraw(out []TxVerdict, added []int, all bool) {
	n.mpMu.Lock()
	defer n.mpMu.Unlock()
	for _, i := range added {
		if all || out[i].Err != nil {
			n.mempool.Remove(out[i].Hash)
		}
	}
}

// enqueueLocked admits one signature-checked transaction with hash h;
// mpMu must be held. The nonce must either continue the sender's
// committed+pending sequence (append) or land on an already-queued slot
// with a sufficient price bump (replace-by-fee). Appends are subject to
// the sender quota and the pool capacity; at a full pool the transaction
// must price-beat the cheapest speculative tail, which is evicted. A
// transaction already queued, or committed by this node, is a success
// that adds nothing; another transaction on a committed nonce is
// ErrTxStale.
func (n *Node) enqueueLocked(tx *Tx, h cryptoutil.Hash) (added bool, err error) {
	m := n.metrics
	if n.mempool.Contains(h) {
		m.Duplicates.Inc()
		return false, nil
	}
	committed := n.nonces[tx.From]
	if tx.Nonce < committed {
		m.Stale.Inc()
		// commitBlock advances a nonce and indexes the block's receipts
		// in one section under mpMu, so the index already holds every
		// transaction below committed that this node committed.
		n.mu.RLock()
		r := n.receipts[h]
		n.mu.RUnlock()
		if r != nil {
			return false, nil
		}
		return false, fmt.Errorf("%w: got %d, committed %d", ErrTxStale, tx.Nonce, committed)
	}
	if tx.GasLimit > MaxTxGasLimit {
		m.RejectedGas.Inc()
		return false, fmt.Errorf("%w: declares %d, cap %d",
			ErrGasTooLarge, tx.GasLimit, MaxTxGasLimit)
	}
	expected := committed + n.mempool.PendingFrom(tx.From)
	if tx.Nonce < expected {
		// The slot is queued: this is a replace-by-fee attempt.
		old, err := n.mempool.Replace(h, tx)
		if err != nil {
			m.RejectedReplace.Inc()
			return false, err
		}
		m.Replaced.Inc()
		if tr := m.Tracer; tr != nil {
			tr.Finish(old.hash.String(), obs.StageReplace)
			id := h.String()
			tr.Begin(id, obs.StageSubmit)
			tr.Mark(id, obs.StageAdmit)
		}
		return true, nil
	}
	if tx.Nonce > expected {
		m.RejectedNonce.Inc()
		return false, fmt.Errorf("%w: got %d, want %d", ErrBadNonce, tx.Nonce, expected)
	}
	evicted, err := n.mempool.Add(h, tx)
	if err != nil {
		switch {
		case errors.Is(err, ErrQuotaExceeded):
			m.QuotaRejected.Inc()
		case errors.Is(err, ErrPoolFull):
			m.Backpressured.Inc()
		}
		return false, err
	}
	if evicted != nil {
		m.Evicted.Inc()
		if tr := m.Tracer; tr != nil {
			tr.Finish(evicted.hash.String(), obs.StageEvict)
		}
	}
	m.Admitted.Inc()
	n.noteOccupancyLocked()
	if tr := m.Tracer; tr != nil {
		id := h.String()
		tr.Begin(id, obs.StageSubmit)
		tr.Mark(id, obs.StageAdmit)
	}
	return true, nil
}

// noteOccupancyLocked refreshes the mempool depth and occupancy gauges;
// mpMu must be held.
func (n *Node) noteOccupancyLocked() {
	n.metrics.MempoolDepth.Set(int64(n.mempool.Len()))
	n.metrics.PoolOccupancy.Set(int64(n.mempool.Len()) * 1000 / int64(n.mempool.Capacity()))
}

// PendingTxs returns the number of mempool transactions.
func (n *Node) PendingTxs() int {
	n.mpMu.Lock()
	defer n.mpMu.Unlock()
	return n.mempool.Len()
}

// proposerFor returns the authority whose turn it is at the given height.
func (n *Node) proposerFor(number uint64) cryptoutil.Address {
	return n.authorities[number%uint64(len(n.authorities))]
}

// isAuthority reports whether addr belongs to the authority set.
func (n *Node) isAuthority(addr cryptoutil.Address) bool {
	for _, a := range n.authorities {
		if a == addr {
			return true
		}
	}
	return false
}

// Seal produces, signs, and applies the next block from the mempool. It
// returns the sealed block (possibly empty of transactions). It fails with
// ErrNotOurTurn when another authority should propose at this height; use
// SealOutOfTurn to take over for a failed in-turn authority (clique-style,
// where any authority may propose but the in-turn one is preferred).
func (n *Node) Seal() (*Block, error) { return n.seal(false) }

// SealOutOfTurn seals even when another authority is scheduled. The block
// remains valid for the cluster because validation requires only set
// membership (see ApplyBlock).
func (n *Node) SealOutOfTurn() (*Block, error) { return n.seal(true) }

func (n *Node) seal(force bool) (*Block, error) {
	n.sealMu.Lock()
	defer n.sealMu.Unlock()
	scratch := &n.scratch

	n.mu.RLock()
	parent := n.blocks[len(n.blocks)-1]
	n.mu.RUnlock()
	number := parent.Header.Number + 1
	if !force && n.proposerFor(number) != n.key.Address() {
		return nil, fmt.Errorf("%w: height %d belongs to %s", ErrNotOurTurn, number, n.proposerFor(number))
	}
	sealTm := n.metrics.SealDuration.Start()
	defer sealTm.Stop()

	// Select the block's transactions. They stay queued, and nonces stay
	// put, until commitBlock settles the block, so admission runs on
	// during execution and a seal that fails changes nothing.
	n.mpMu.Lock()
	txs, hashes := n.mempool.Take(maxTxsPerBlock, MaxBlockTxBytes, n.nonces)
	n.mpMu.Unlock()

	bctx := BlockContext{Number: number, Time: n.clock.Now()}
	if !bctx.Time.After(parent.Header.Time) {
		// Guarantee strictly monotone block timestamps even under a
		// stalled simulated clock.
		bctx.Time = parent.Header.Time.Add(time.Nanosecond)
	}

	// Execute against a copy-on-write overlay of the committed state:
	// no node lock is held while contracts run, so readers are never
	// blocked by execution, and the overlay's drained write set is the
	// block's net diff with no separate Diff pass. sealMu excludes every
	// other state writer for the overlay's whole lifetime.
	n.mu.RLock()
	st := n.state
	n.mu.RUnlock()
	overlay := NewOverlay(st)
	receipts := n.executeBlock(overlay, txs, hashes, bctx)
	header := Header{
		Number:      number,
		ParentHash:  parent.Hash(),
		Time:        bctx.Time,
		Proposer:    n.key.Address(),
		TxRoot:      txRoot(scratch, hashes),
		ReceiptRoot: receiptRoot(scratch, receipts),
		StateRoot:   overlay.Root(),
	}
	sig, err := n.key.Sign(header.SigningBytes())
	if err != nil {
		return nil, err
	}
	header.Signature = sig
	block := &Block{Header: header, Txs: txs, Receipts: receipts}
	if err := n.commitBlock(block, overlay.TakeDeltas(), scratch); err != nil {
		return nil, err
	}
	return block, nil
}

// executeBlock runs one block's transactions against a fresh overlay,
// with the parallel scheduler when ExecWorkers allows it and the exact
// legacy serial path when ExecWorkers is 1 (or the block is too small to
// be worth splitting). Both sealing and validation funnel through here,
// so proposers and validators always agree on the execution semantics —
// which are identical anyway (see parallel.go's determinism argument).
// hashes are the block's transaction hashes, parallel to txs.
func (n *Node) executeBlock(overlay *Overlay, txs []*Tx, hashes []cryptoutil.Hash, bctx BlockContext) []*Receipt {
	if n.execWorkers == 1 {
		n.metrics.SerialBlocks.Inc()
		return replayTxs(n.executor, overlay, txs, hashes, bctx)
	}
	return replayTxsParallelObs(n.executor, overlay, txs, hashes, bctx, n.execWorkers, n.metrics)
}

// commitBlock persists and applies a fully formed block whose execution
// effects are captured in deltas (an overlay's drained write set). The
// caller must hold sealMu (and no other node lock) and passes the node's
// scratch, which the WAL frame is built in.
//
// Persistence happens first and entirely OUTSIDE mu: the record is
// encoded and appended to the WAL while readers continue against the
// previous committed state. A WAL failure aborts the commit with memory
// untouched — the deltas are simply dropped — so the PR 4 invariant
// (memory never ahead of disk-acknowledged state) holds with no rollback
// path at all. Only then is the block settled, in one section under mpMu
// and mu: nonces and the mempool (settleLocked), the O(touched-keys)
// delta fold, the ledger append, the gas charge, the receipt index and
// waiter wakeups. When a snapshot is due, a copy-on-write export is
// taken after the locks are released (sealMu alone keeps writers out)
// and handed to the background writer.
func (n *Node) commitBlock(block *Block, deltas []Delta, scratch *blockScratch) error {
	if n.wal != nil {
		frame := encodeWALBlock(scratch, &walBlock{
			Header:   block.Header,
			Txs:      block.Txs,
			Receipts: block.Receipts,
			Diff:     deltas,
		})
		err := n.wal.AppendFrame(frame)
		scratch.keep(frame) // the log has written it, or refused it
		if err != nil {
			return fmt.Errorf("chain: persist block %d: %w", block.Header.Number, err)
		}
	}
	var events []Event
	tr := n.metrics.Tracer
	n.mpMu.Lock()
	n.settleLocked(block.Txs)
	n.mu.Lock()
	st := n.state
	foldTm := n.metrics.FoldLatency.Start()
	st.applyDeltas(deltas)
	foldTm.Stop()
	n.blocks = append(n.blocks, block)
	// Gas is charged here — after the WAL accepted the block, so a
	// dropped block is never charged, and before any waiter is woken, so
	// whoever can see a receipt can see its gas in the cost ledger.
	n.costs.Record(block.GasUsed())
	for _, r := range block.Receipts {
		n.receipts[r.TxHash] = r
		events = append(events, r.Events...)
		if chans, ok := n.waiters[r.TxHash]; ok {
			for _, ch := range chans {
				// Waiter channels are buffered (capacity 1) at
				// registration, so this send cannot block the commit; the
				// non-blocking form guards the invariant even against a
				// misregistered channel. A slow WaitForReceipt consumer
				// therefore never stalls sealing.
				select {
				case ch <- r:
				default:
				}
				close(ch)
			}
			delete(n.waiters, r.TxHash)
			if tr != nil {
				id := r.TxHash.String()
				tr.Mark(id, obs.StageCommit)
				tr.Finish(id, obs.StageReceipt)
			}
		} else if tr != nil {
			tr.Finish(r.TxHash.String(), obs.StageCommit)
		}
	}
	n.mu.Unlock()
	n.mpMu.Unlock()
	if len(events) > 0 {
		// Published outside mu; sealMu keeps cross-block event order.
		n.feed.publish(events)
	}
	if n.snap != nil {
		n.tailBytes += diffBytes(deltas)
		if store.SnapshotDue(n.tailBytes, st.Bytes(), n.snapFloor) {
			// O(keys) map copy sharing the immutable value slices; the
			// background writer serializes it without holding any node lock.
			n.snap.enqueue(block.Header.Number, st.ExportShared())
			n.tailBytes = 0
		}
	}
	n.metrics.BlocksCommitted.Inc()
	n.metrics.BlockTxs.Observe(int64(len(block.Txs)))
	return nil
}

// settleLocked is the one writer of n.nonces: it moves each sender of a
// committed block's transactions past its nonce and drops what the
// sender still queues below it — the block's own transactions, or a
// replacement of one of them. mpMu must be held.
func (n *Node) settleLocked(txs []*Tx) {
	for _, tx := range txs {
		n.nonces[tx.From] = tx.Nonce + 1
		n.mempool.Settle(tx.From, tx.Nonce+1)
	}
	n.noteOccupancyLocked()
}

// WaitForReceipt blocks until the transaction is included in a block or
// the context is done. If the receipt is already available it returns
// immediately.
func (n *Node) WaitForReceipt(ctx context.Context, txHash cryptoutil.Hash) (*Receipt, error) {
	tm := n.metrics.ReceiptWait.Start()
	defer tm.Stop()
	n.mu.Lock()
	if r := n.findReceiptLocked(txHash); r != nil {
		n.mu.Unlock()
		return r, nil
	}
	// Capacity 1 is load-bearing: commitBlock delivers without blocking,
	// so a waiter that is slow to read (or has already given up via ctx)
	// can never stall a commit.
	ch := make(chan *Receipt, 1)
	n.waiters[txHash] = append(n.waiters[txHash], ch)
	n.mu.Unlock()

	select {
	case r := <-ch:
		return r, nil
	case <-ctx.Done():
		// Deregister so abandoned waits don't grow the waiters map for
		// transactions that never commit. A commit may have raced the
		// cancellation and already delivered into the buffered channel —
		// prefer the receipt in that case.
		n.mu.Lock()
		chans := n.waiters[txHash]
		for i, c := range chans {
			if c == ch {
				n.waiters[txHash] = append(chans[:i:i], chans[i+1:]...)
				break
			}
		}
		if len(n.waiters[txHash]) == 0 {
			delete(n.waiters, txHash)
		}
		n.mu.Unlock()
		select {
		case r, ok := <-ch:
			if ok && r != nil {
				return r, nil
			}
		default:
		}
		return nil, ctx.Err()
	}
}

// Receipt returns the receipt for a transaction if it has been included.
func (n *Node) Receipt(txHash cryptoutil.Hash) *Receipt {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.findReceiptLocked(txHash)
}

// findReceiptLocked resolves a transaction's receipt through the
// hash → receipt index (maintained by commitBlock, rebuilt on recovery),
// replacing the historical O(blocks × receipts) ledger scan that made
// every Receipt/WaitForReceipt call linear in chain length.
func (n *Node) findReceiptLocked(txHash cryptoutil.Hash) *Receipt {
	return n.receipts[txHash]
}

// Query serves a read-only contract call against the current state. This
// is the on-chain half of the pull-out oracle pattern. No node lock is
// held while the executor runs (State is internally synchronized), so
// queries never serialize behind sealing.
func (n *Node) Query(contract cryptoutil.Address, method string, args []byte) ([]byte, error) {
	n.mu.RLock()
	head := n.blocks[len(n.blocks)-1]
	bctx := BlockContext{Number: head.Header.Number, Time: head.Header.Time}
	st := n.state
	n.mu.RUnlock()
	return n.executor.Query(st, contract, method, args, bctx)
}

// SubscribeEvents returns a subscription delivering committed events that
// match the filter.
func (n *Node) SubscribeEvents(filter EventFilter, buffer int) *Subscription {
	return n.feed.subscribe(filter, buffer)
}

// EventsDropped reports events lost to slow subscribers.
func (n *Node) EventsDropped() uint64 { return n.feed.Dropped() }

// Costs returns the node's gas cost ledger.
func (n *Node) Costs() *CostLedger { return &n.costs }

// State returns the node's state store. Contracts deployed on the
// executor share it; external callers must treat it as read-only.
func (n *Node) State() *State {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.state
}
