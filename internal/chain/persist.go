package chain

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/store"
)

// walFileName is the block log's filename inside a node's data dir.
const walFileName = "wal.log"

// snapshotsKept bounds the snapshot files retained per node; older ones
// are pruned after each write (recovery only ever needs one intact
// snapshot, and keeping a couple of spares survives a corrupt newest).
const snapshotsKept = 3

// WALPath returns the write-ahead log path inside a node data dir (fault
// injection and tooling truncate or inspect it).
func WALPath(dataDir string) string { return filepath.Join(dataDir, walFileName) }

// Persistent-store errors.
var (
	// ErrStoreMismatch reports a data dir whose recorded identity (authority
	// set) contradicts the opening Config — opening it would fork history.
	ErrStoreMismatch = errors.New("chain: store does not match node config")
	// ErrStoreCorrupt reports a store whose intact records contradict each
	// other (e.g. a replayed diff that does not reproduce the committed
	// state root) — damage that torn-tail truncation cannot explain away.
	ErrStoreCorrupt = errors.New("chain: store corrupt")
)

// walRecord is the decoded form of one WAL record: exactly one of the
// fields is set. The first record of a log is always the meta record.
// On disk, records are written in the tagged binary format of codec.go.
type walRecord struct {
	Meta  *walMeta
	Block *walBlock
}

// walMeta pins the chain identity the log belongs to. GenesisTime is
// authoritative on reopen (the caller's Config value is ignored), so a
// process restarted with a wall-clock genesis still reproduces the
// original genesis block.
type walMeta struct {
	GenesisTime time.Time
	Authorities []cryptoutil.Address
}

// walBlock is a sealed block plus the net state diff its execution
// produced. Recovery applies the diff instead of re-executing
// transactions, so it needs no executor determinism and is O(mutations).
type walBlock struct {
	Header   Header
	Txs      []*Tx
	Receipts []*Receipt
	Diff     []Delta
}

// chainSnapshot is the durable state snapshot payload: the full
// key-value content as of Height. Blocks at or below Height replay
// ledger-only on recovery; blocks above it replay their diffs.
type chainSnapshot struct {
	Height uint64
	State  map[string][]byte
}

// OpenNode opens (or bootstraps) a durable node from cfg.DataDir: it
// loads the newest usable state snapshot, replays the write-ahead log's
// block tail (truncating any torn tail back to the last complete
// record), rebuilds nonces and the cost ledger from the recovered
// blocks, and attaches the log so subsequent commits are durable. The
// mempool starts empty — unsealed submissions do not survive a restart.
//
// With an empty DataDir, OpenNode is exactly NewNode (the in-memory
// behaviour every existing caller keeps).
func OpenNode(cfg Config) (*Node, error) {
	if cfg.DataDir == "" {
		return NewNode(cfg)
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("chain: create data dir: %w", err)
	}
	wal, records, err := store.OpenWAL(WALPath(cfg.DataDir), cfg.Persist)
	if err != nil {
		return nil, err
	}
	tm := cfg.Metrics.orNoop().RecoveryReplay.Start()
	n, err := recoverNode(cfg, wal, records)
	tm.Stop()
	if err != nil {
		return nil, errors.Join(err, wal.Close())
	}
	return n, nil
}

// attachStore arms the node's durable-commit path and starts the
// background snapshot writer. The tail counter starts at the diffs
// recovery replayed, so a crash-looping node still reaches its snapshot.
func (n *Node) attachStore(cfg Config, wal *store.WAL, tailDiffs [][]Delta) {
	n.wal = wal
	n.snapFloor = store.SnapshotFloor
	for _, diff := range tailDiffs {
		n.tailBytes += diffBytes(diff)
	}
	n.snap = startSnapshotWriter(cfg.DataDir, n.metrics)
}

// diffBytes is the payload of one block's net diff, Σ len(K)+len(V): what
// store.SnapshotDue weighs against State.Bytes. Counting the diff, not
// the WAL record, keeps a block of many transactions over a few hot keys
// from passing for a long replay.
func diffBytes(diff []Delta) (n int64) {
	for i := range diff {
		n += int64(len(diff[i].K) + len(diff[i].V))
	}
	return n
}

// recoverNode rebuilds a node from a decoded log.
func recoverNode(cfg Config, wal *store.WAL, records []store.Record) (*Node, error) {
	if len(records) == 0 {
		// Empty data dir (or a log torn back to nothing): bootstrap fresh
		// and stamp the chain identity as record 0.
		n, err := NewNode(cfg)
		if err != nil {
			return nil, err
		}
		buf := encodeWALMeta(&walMeta{
			GenesisTime: cfg.GenesisTime,
			Authorities: cfg.Authorities,
		})
		if err := wal.Append(buf); err != nil {
			return nil, err
		}
		n.attachStore(cfg, wal, nil)
		return n, nil
	}

	// A log written in an earlier record format opens with another tag.
	// Its blocks would not link under this one, and recovery would
	// truncate them all, so the log is refused as it is.
	metaRec, err := decodeWALRecord(records[0].Payload)
	if err != nil || metaRec.Meta == nil {
		return nil, fmt.Errorf("%w: first record is not a meta record of this format; start from an empty directory", ErrStoreCorrupt)
	}
	meta := metaRec.Meta
	if len(meta.Authorities) != len(cfg.Authorities) {
		return nil, fmt.Errorf("%w: store has %d authorities, config %d",
			ErrStoreMismatch, len(meta.Authorities), len(cfg.Authorities))
	}
	for i, a := range meta.Authorities {
		if a != cfg.Authorities[i] {
			return nil, fmt.Errorf("%w: authority %d is %s on disk, %s in config",
				ErrStoreMismatch, i, a.Short(), cfg.Authorities[i].Short())
		}
	}
	// The stored genesis time is authoritative: it reproduces the genesis
	// block the logged chain descends from.
	cfg.GenesisTime = meta.GenesisTime
	n, err := NewNode(cfg)
	if err != nil {
		return nil, err
	}

	// Decode the block tail, validating linkage as we go. A record that
	// decodes but does not extend the chain marks damage the CRC cannot
	// see (e.g. an interleaved foreign write); everything from it on is
	// truncated away, exactly like a torn tail.
	blocks := make([]*Block, 0, len(records)-1)
	diffs := make([][]Delta, 0, len(records)-1)
	prev := n.blocks[0]
	lastGoodEnd := records[0].End
	for _, rec := range records[1:] {
		wr, err := decodeWALRecord(rec.Payload)
		if err != nil || wr.Block == nil {
			break
		}
		b := &Block{Header: wr.Block.Header, Txs: wr.Block.Txs, Receipts: wr.Block.Receipts}
		if b.Header.Number != prev.Header.Number+1 || b.Header.ParentHash != prev.Hash() {
			// Before discarding the tail, check whether this record is a
			// second block at an already-recovered height from the same
			// proposer — a double-seal that made it into the log. Recovery
			// surfaces it as evidence so an equivocation is not silently
			// laundered through a crash-restart cycle.
			if ev, ok := equivocalRecord(blocks, b); ok {
				n.recordEquivocation(ev)
			}
			break
		}
		blocks = append(blocks, b)
		diffs = append(diffs, wr.Block.Diff)
		prev = b
		lastGoodEnd = rec.End
	}
	if lastGoodEnd < wal.Size() {
		if err := wal.TruncateTo(lastGoodEnd); err != nil {
			return nil, err
		}
	}

	st, base, err := rebuildState(cfg.DataDir, blocks, diffs)
	if err != nil {
		return nil, err
	}

	// Rebuild admission and accounting views from the recovered ledger:
	// committed nonces and the gas cost ledger are pure functions of the
	// blocks, so they need no dedicated records. Nonces go through the
	// one settlement path commits use (the mempool is still empty).
	n.mpMu.Lock()
	for _, b := range blocks {
		n.settleLocked(b.Txs)
		n.costs.Record(b.GasUsed())
		// The hash → receipt index is likewise a pure function of the
		// blocks; rebuilding it here keeps Receipt/WaitForReceipt O(1)
		// across a restart.
		for _, r := range b.Receipts {
			n.receipts[r.TxHash] = r
		}
	}
	n.mpMu.Unlock()
	n.blocks = append(n.blocks, blocks...)
	n.state = st
	n.attachStore(cfg, wal, diffs[base:]) // blocks[i] is height i+1
	return n, nil
}

// equivocalRecord classifies a WAL record that failed linkage during
// recovery: it is equivocation evidence when it holds a block at an
// already-recovered height, from that height's committed proposer, with a
// different hash. The record's signature was verified before it was ever
// appended (the WAL only logs committed blocks), so no re-verification is
// needed — the log is this node's own trust domain.
func equivocalRecord(recovered []*Block, b *Block) (EquivocationEvidence, bool) {
	num := b.Header.Number
	if num == 0 || num > uint64(len(recovered)) {
		return EquivocationEvidence{}, false
	}
	committed := recovered[num-1] // recovered[0] is height 1
	if committed.Header.Proposer != b.Header.Proposer || committed.Hash() == b.Hash() {
		return EquivocationEvidence{}, false
	}
	return EquivocationEvidence{
		Height:        num,
		Proposer:      b.Header.Proposer,
		CommittedHash: committed.Hash(),
		OfferedHash:   b.Hash(),
	}, true
}

// rebuildState reconstitutes the post-head state: it prefers the newest
// usable snapshot at or below the recovered head and applies only the
// diffs past it, falling back to a full from-genesis diff replay when no
// snapshot qualifies or the snapshot contradicts the committed roots.
// Every applied block's resulting root is checked against its header, so
// a recovery that completes is bit-for-bit the state the chain committed.
// base is the height of the snapshot used (0 for a full replay).
func rebuildState(dataDir string, blocks []*Block, diffs [][]Delta) (st *State, base uint64, err error) {
	var headHeight uint64
	if len(blocks) > 0 {
		headHeight = blocks[len(blocks)-1].Header.Number
	}
	if seq, payload, ok := store.LatestSnapshot(dataDir, headHeight); ok {
		if st, err := stateFromSnapshot(seq, payload, blocks, diffs); err == nil {
			return st, seq, nil
		}
		// Snapshot unusable (corrupt content or root mismatch): recovery
		// falls back to the full replay below — snapshots are strictly an
		// optimization.
	}
	st = NewState()
	if err := applyDiffsFrom(st, blocks, diffs, 0); err != nil {
		return nil, 0, err
	}
	return st, 0, nil
}

// stateFromSnapshot builds state from a snapshot payload and the diff
// tail above it.
func stateFromSnapshot(seq uint64, payload []byte, blocks []*Block, diffs [][]Delta) (*State, error) {
	snap, err := decodeChainSnapshot(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: snapshot %d: %v", ErrStoreCorrupt, seq, err)
	}
	if snap.Height != seq {
		return nil, fmt.Errorf("%w: snapshot file %d claims height %d", ErrStoreCorrupt, seq, snap.Height)
	}
	st := NewState()
	for k, v := range snap.State {
		st.Set(k, v)
	}
	st.DiscardJournal()
	// The snapshot must reproduce the root committed at its height.
	if snap.Height > 0 {
		idx := int(snap.Height) - 1
		if idx >= len(blocks) {
			return nil, fmt.Errorf("%w: snapshot %d above recovered head", ErrStoreCorrupt, seq)
		}
		if got := st.Root(); got != blocks[idx].Header.StateRoot {
			return nil, fmt.Errorf("%w: snapshot %d root mismatch", ErrStoreCorrupt, seq)
		}
	}
	if err := applyDiffsFrom(st, blocks, diffs, snap.Height); err != nil {
		return nil, err
	}
	return st, nil
}

// applyDiffsFrom replays the recorded diffs of every block above height
// from, checking each block's committed state root.
func applyDiffsFrom(st *State, blocks []*Block, diffs [][]Delta, from uint64) error {
	for i, b := range blocks {
		if b.Header.Number <= from {
			continue
		}
		st.ApplyDiff(diffs[i])
		if got := st.Root(); got != b.Header.StateRoot {
			return fmt.Errorf("%w: replaying block %d produced root %s, header commits %s",
				ErrStoreCorrupt, b.Header.Number, got.Short(), b.Header.StateRoot.Short())
		}
	}
	return nil
}

// snapshotJob is one queued snapshot: a height and a copy-on-write
// state export (shared immutable value slices) taken at commit point.
type snapshotJob struct {
	height uint64
	state  map[string][]byte
}

// snapshotWriter serializes and writes chain state snapshots on a
// dedicated goroutine, so commits (and therefore readers) never wait on
// snapshot encoding or disk I/O. Handover never blocks the committer:
// at most one job is pending, and a newer snapshot replaces a pending
// older one (newest wins — recovery only ever wants the latest).
// Snapshots the writer never got to are simply absent, which recovery
// treats as a longer diff tail; they are strictly an optimization.
type snapshotWriter struct {
	dataDir string
	m       *Metrics // never nil
	buf     []byte   // encode buffer reused across snapshots; run goroutine only
	mu      sync.Mutex
	pending *snapshotJob  // guarded by mu
	closed  bool          // guarded by mu
	kick    chan struct{} // capacity 1: "pending changed" signal
	done    chan struct{}
}

func startSnapshotWriter(dataDir string, m *Metrics) *snapshotWriter {
	w := &snapshotWriter{
		dataDir: dataDir,
		m:       m.orNoop(),
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	go w.run()
	return w
}

func (w *snapshotWriter) run() {
	defer close(w.done)
	for {
		w.mu.Lock()
		job := w.pending
		w.pending = nil
		closed := w.closed
		w.mu.Unlock()
		if job != nil {
			w.write(job)
			continue // a newer job may have arrived during the write
		}
		if closed {
			return
		}
		<-w.kick
	}
}

func (w *snapshotWriter) write(job *snapshotJob) {
	tm := w.m.SnapshotWrite.Start()
	defer tm.Stop()
	w.buf = appendChainSnapshot(w.buf[:0], job.height, job.state)
	if err := store.WriteSnapshot(w.dataDir, job.height, w.buf); err != nil {
		// A failed snapshot must not surface as a commit failure: the
		// block is already durable in the WAL, and recovery without
		// this snapshot merely replays a longer diff tail.
		log.Printf("chain: snapshot at height %d skipped: %v", job.height, err)
		return
	}
	w.m.SnapshotBytes.Add(uint64(len(w.buf)))
	if _, err := store.PruneSnapshots(w.dataDir, snapshotsKept); err != nil {
		log.Printf("chain: prune snapshots: %v", err)
	}
}

// enqueue hands a snapshot job to the writer without ever blocking the
// committing goroutine. A job the writer has not yet started is
// replaced (the newer snapshot subsumes it).
func (w *snapshotWriter) enqueue(height uint64, state map[string][]byte) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.pending = &snapshotJob{height: height, state: state}
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// stop writes any still-pending job and waits for the writer to exit.
// Idempotent.
func (w *snapshotWriter) stop() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
	<-w.done
}

// Close drains the snapshot writer, and flushes and closes the durable
// store (no-op for in-memory nodes). The clean-shutdown path for durable
// nodes.
func (n *Node) Close() error {
	if n.snap != nil {
		n.snap.stop()
	}
	if n.wal != nil {
		return n.wal.Close()
	}
	return nil
}

// Crash abandons the durable store WITHOUT the final flush, modelling a
// process crash for fault injection. Pair with OpenNode to exercise
// crash-restart recovery. The snapshot writer is
// still stopped (and any queued job written) so test runs stay
// deterministic; atomic temp-and-rename writes mean a real crash can
// only ever lose a whole snapshot, which recovery treats as absent.
func (n *Node) Crash() error {
	if n.snap != nil {
		n.snap.stop()
	}
	if n.wal != nil {
		return n.wal.Abandon()
	}
	return nil
}
