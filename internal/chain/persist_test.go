package chain

import (
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simclock"
	"repro/internal/store"
)

// durableConfig builds a durable single-authority node config rooted at
// dir.
func durableConfig(dir string, key *cryptoutil.KeyPair, clk *simclock.Sim) Config {
	return Config{
		Key:         key,
		Authorities: []cryptoutil.Address{key.Address()},
		Executor:    testExecutor{},
		Clock:       clk,
		GenesisTime: chainEpoch,
		DataDir:     dir,
		Persist:     store.Options{Sync: store.SyncNever},
	}
}

// openWithFloor opens a durable node and lowers its snapshot floor: the
// in-package seam for tests that need snapshots on a ledger far smaller
// than store.SnapshotFloor. With floor 1 the rule alone decides — fresh
// keys snapshot at geometrically spaced heights, rewrites of one key at
// every block.
func openWithFloor(t testing.TB, cfg Config, floor int64) *Node {
	t.Helper()
	n, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.snapFloor = floor
	return n
}

// sealSet seals one block containing a single "set" transaction.
func sealSet(t *testing.T, n *Node, key *cryptoutil.KeyPair, clk *simclock.Sim, nonce uint64, k, v string) *Block {
	t.Helper()
	if _, err := submit1(n, mustTx(t, key, nonce, testContractAddr(), k, v)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	block, err := n.Seal()
	if err != nil {
		t.Fatal(err)
	}
	return block
}

// requireEquivalent asserts that a recovered node reproduces a reference
// node's observable chain state: head, state root, full ledger, nonces,
// and the gas cost ledger.
func requireEquivalent(t *testing.T, recovered, ref *Node, senders ...cryptoutil.Address) {
	t.Helper()
	if gh, wh := recovered.Height(), ref.Height(); gh != wh {
		t.Fatalf("height = %d, want %d", gh, wh)
	}
	if gh, wh := recovered.Head().Hash(), ref.Head().Hash(); gh != wh {
		t.Fatalf("head hash = %s, want %s", gh.Short(), wh.Short())
	}
	if gr, wr := recovered.State().Root(), ref.State().Root(); gr != wr {
		t.Fatalf("state root = %s, want %s", gr.Short(), wr.Short())
	}
	for h := uint64(0); h <= ref.Height(); h++ {
		g, w := recovered.BlockByNumber(h), ref.BlockByNumber(h)
		if g == nil {
			t.Fatalf("block %d missing after recovery", h)
		}
		if g.Hash() != w.Hash() {
			t.Fatalf("block %d hash differs", h)
		}
		if len(g.Receipts) != len(w.Receipts) {
			t.Fatalf("block %d has %d receipts, want %d", h, len(g.Receipts), len(w.Receipts))
		}
		for i := range w.Receipts {
			if g.Receipts[i].Digest() != w.Receipts[i].Digest() {
				t.Fatalf("block %d receipt %d differs", h, i)
			}
		}
	}
	for _, s := range senders {
		if gn, wn := recovered.CommittedNonce(s), ref.CommittedNonce(s); gn != wn {
			t.Fatalf("nonce of %s = %d, want %d", s.Short(), gn, wn)
		}
	}
	if gt, wt := recovered.Costs().TotalSpent(), ref.Costs().TotalSpent(); gt != wt {
		t.Fatalf("total gas = %d, want %d", gt, wt)
	}
	if recovered.PendingTxs() != 0 {
		t.Fatal("recovered node has mempool content")
	}
}

// TestOpenNodeBootstrapEmptyDir: the empty-data-dir leg — OpenNode on a
// fresh dir behaves like NewNode, and the dir is immediately reopenable.
func TestOpenNodeBootstrapEmptyDir(t *testing.T) {
	dir := t.TempDir()
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	n, err := OpenNode(durableConfig(dir, key, clk))
	if err != nil {
		t.Fatal(err)
	}
	if n.Height() != 0 {
		t.Fatalf("bootstrap height = %d", n.Height())
	}
	sealSet(t, n, key, clk, 0, "a", "1")
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	n2, err := OpenNode(durableConfig(dir, key, clk))
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	requireEquivalent(t, n2, n, key.Address())
}

// TestOpenNodeDataDirlessFallback: an empty DataDir is exactly NewNode.
func TestOpenNodeDataDirlessFallback(t *testing.T) {
	key := cryptoutil.MustGenerateKey()
	n, err := OpenNode(Config{
		Key:         key,
		Authorities: []cryptoutil.Address{key.Address()},
		Executor:    testExecutor{},
		GenesisTime: chainEpoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.wal != nil {
		t.Fatal("in-memory node got a WAL")
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryCleanClose: seal a tail of blocks (including a reverted
// transaction), close cleanly, reopen — the matrix's clean-close leg.
func TestRecoveryCleanClose(t *testing.T) {
	dir := t.TempDir()
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	n, err := OpenNode(durableConfig(dir, key, clk))
	if err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		sealSet(t, n, key, clk, uint64(i), fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	// A reverted transaction must recover too (charged gas, no state).
	failTx, err := NewTx(key, 5, testContractAddr(), "fail", []byte(`{}`), 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit1(n, failTx); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if _, err := n.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	n2, err := OpenNode(durableConfig(dir, key, clk))
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	requireEquivalent(t, n2, n, key.Address())
	// The recovered node keeps sealing on the same chain.
	sealSet(t, n2, key, clk, 6, "post", "recovery")
	if n2.Height() != 7 {
		t.Fatalf("post-recovery height = %d, want 7", n2.Height())
	}
}

// TestLocalZoneWALRecovers: de-node stamps headers, and the WAL meta its
// genesis time, from the wall clock, whose times carry the Local zone
// rather than UTC. A data dir written so must reopen whole: a codec that
// refused those times would find a CRC-valid record it cannot decode and
// truncate the log from it. CI runs this under a non-UTC TZ too.
func TestLocalZoneWALRecovers(t *testing.T) {
	dir := t.TempDir()
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch.In(time.Local))
	cfg := durableConfig(dir, key, clk)
	cfg.GenesisTime = chainEpoch.In(time.Local)
	n, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		sealSet(t, n, key, clk, uint64(i), fmt.Sprintf("k%d", i), "v")
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	n2, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if n2.Height() != 3 {
		t.Fatalf("recovered height = %d, want 3", n2.Height())
	}
	requireEquivalent(t, n2, n, key.Address())
}

// TestRecoveryCrashAfterSync: the crash-after-fsync leg — Crash abandons
// the WAL without the final flush; nothing acknowledged is lost.
func TestRecoveryCrashAfterSync(t *testing.T) {
	dir := t.TempDir()
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	cfg := durableConfig(dir, key, clk)
	cfg.Persist = store.Options{Sync: store.SyncAlways}
	n, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		sealSet(t, n, key, clk, uint64(i), fmt.Sprintf("k%d", i), "v")
	}
	if err := n.Crash(); err != nil {
		t.Fatal(err)
	}
	n2, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	requireEquivalent(t, n2, n, key.Address())
}

// TestRecoveryTornTail: the torn-tail legs — a WAL truncated inside the
// last record (partial payload, partial length prefix) or with a flipped
// byte (bad CRC) recovers to the last complete block.
func TestRecoveryTornTail(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(t *testing.T, path string)
	}{
		{"partial-payload", func(t *testing.T, path string) {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()-7); err != nil {
				t.Fatal(err)
			}
		}},
		{"partial-length-prefix", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Rewrite the file as (everything but the last record) plus 3
			// stray header bytes — a crash mid-header.
			offset := 0
			prev := 0
			for offset < len(raw) {
				_, consumed, err := store.DecodeRecord(raw[offset:])
				if err != nil {
					t.Fatal(err)
				}
				prev = offset
				offset += consumed
			}
			if err := os.WriteFile(path, raw[:prev+3], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bad-crc", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-10] ^= 0xff
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			key := cryptoutil.MustGenerateKey()
			clk := simclock.NewSim(chainEpoch)
			n, err := OpenNode(durableConfig(dir, key, clk))
			if err != nil {
				t.Fatal(err)
			}
			for i := range 4 {
				sealSet(t, n, key, clk, uint64(i), fmt.Sprintf("k%d", i), "v")
			}
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			tc.mutate(t, WALPath(dir))

			n2, err := OpenNode(durableConfig(dir, key, clk))
			if err != nil {
				t.Fatal(err)
			}
			defer n2.Close()
			// The last block is gone; everything before it is intact.
			if n2.Height() != 3 {
				t.Fatalf("recovered height = %d, want 3", n2.Height())
			}
			if n2.Head().Hash() != n.BlockByNumber(3).Hash() {
				t.Fatal("recovered head is not the last complete block")
			}
			if got := n2.State().Root(); got != n.BlockByNumber(3).Header.StateRoot {
				t.Fatalf("recovered root %s, want block 3's %s",
					got.Short(), n.BlockByNumber(3).Header.StateRoot.Short())
			}
			// Nonces rewound with the lost block: the chain accepts the
			// lost transaction again.
			if got := n2.CommittedNonce(key.Address()); got != 3 {
				t.Fatalf("recovered nonce = %d, want 3", got)
			}
			sealSet(t, n2, key, clk, 3, "k3", "again")
			if n2.Height() != 4 {
				t.Fatalf("post-recovery height = %d", n2.Height())
			}
		})
	}
}

// TestRecoverySnapshotPlusTail: the snapshot+tail-replay leg — three
// keys rewritten over 8 blocks snapshot whenever three blocks' worth of
// diff has accumulated (heights 1, 4, 7), so recovery must start from the
// newest snapshot (7) and replay only block 8, producing identical
// state. Snapshots must exist and be pruned to the retention bound.
func TestRecoverySnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	n := openWithFloor(t, durableConfig(dir, key, clk), 1)
	for i := range 8 {
		sealSet(t, n, key, clk, uint64(i), fmt.Sprintf("k%d", i%3), fmt.Sprintf("v%d", i))
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := store.ListSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) == 0 || seqs[0] != 7 {
		t.Fatalf("snapshots = %v, want newest 7", seqs)
	}
	if len(seqs) > snapshotsKept {
		t.Fatalf("%d snapshots retained, want <= %d", len(seqs), snapshotsKept)
	}

	n2, err := OpenNode(durableConfig(dir, key, clk))
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	requireEquivalent(t, n2, n, key.Address())
	if want := diffBytes([]Delta{{K: testContractAddr().String() + "/k1", V: []byte("v7")}}); n2.tailBytes != want {
		t.Fatalf("recovery replayed %d diff bytes, want block 8's %d", n2.tailBytes, want)
	}
}

// TestRecoverySnapshotAheadOfTornWAL: a snapshot taken at the height of
// a block the torn tail destroyed must be bypassed for an older one (or
// a genesis replay) — never trusted above the recovered head.
func TestRecoverySnapshotAheadOfTornWAL(t *testing.T) {
	dir := t.TempDir()
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	// One key rewritten at every block snapshots at every block.
	n := openWithFloor(t, durableConfig(dir, key, clk), 1)
	for i := range 4 {
		sealSet(t, n, key, clk, uint64(i), "k", fmt.Sprintf("v%d", i))
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if seqs, err := store.ListSnapshots(dir); err != nil || len(seqs) == 0 || seqs[0] != 4 {
		t.Fatalf("snapshots = %v, %v; want newest 4", seqs, err)
	}
	// Chop the block-4 record: the snapshot at 4 now refers to a height
	// beyond the recoverable head.
	info, err := os.Stat(WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(WALPath(dir), info.Size()-5); err != nil {
		t.Fatal(err)
	}
	n2, err := OpenNode(durableConfig(dir, key, clk))
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if n2.Height() != 3 {
		t.Fatalf("recovered height = %d, want 3", n2.Height())
	}
	if got := n2.State().Root(); got != n.BlockByNumber(3).Header.StateRoot {
		t.Fatal("state root does not match the last complete block")
	}
}

// TestRecoveryCorruptSnapshotFallsBack: a byte-flipped snapshot is
// skipped and recovery replays the full diff log instead.
func TestRecoveryCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	n := openWithFloor(t, durableConfig(dir, key, clk), 1)
	for i := range 4 {
		sealSet(t, n, key, clk, uint64(i), fmt.Sprintf("k%d", i%2), fmt.Sprintf("v%d", i))
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := store.ListSnapshots(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("snapshots = %v, %v", seqs, err)
	}
	for _, seq := range seqs {
		path := fmt.Sprintf("%s/snap-%016x.snap", dir, seq)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n2, err := OpenNode(durableConfig(dir, key, clk))
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	requireEquivalent(t, n2, n, key.Address())
}

// TestOpenNodeRejectsForeignStore: a data dir recorded under a different
// authority set must not open (it would fork history).
func TestOpenNodeRejectsForeignStore(t *testing.T) {
	dir := t.TempDir()
	keyA := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	n, err := OpenNode(durableConfig(dir, keyA, clk))
	if err != nil {
		t.Fatal(err)
	}
	sealSet(t, n, keyA, clk, 0, "a", "1")
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	keyB := cryptoutil.MustGenerateKey()
	if _, err := OpenNode(durableConfig(dir, keyB, clk)); !errors.Is(err, ErrStoreMismatch) {
		t.Fatalf("foreign store opened: %v", err)
	}
}

// TestOpenNodeRestartWithDifferentGenesisTime: the meta record's genesis
// time wins over the config's, so a restart with a "wrong" wall-clock
// genesis still reproduces the logged chain.
func TestOpenNodeRestartWithDifferentGenesisTime(t *testing.T) {
	dir := t.TempDir()
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	n, err := OpenNode(durableConfig(dir, key, clk))
	if err != nil {
		t.Fatal(err)
	}
	sealSet(t, n, key, clk, 0, "a", "1")
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := durableConfig(dir, key, clk)
	cfg.GenesisTime = chainEpoch.Add(42 * time.Hour) // a lying config
	n2, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	requireEquivalent(t, n2, n, key.Address())
}

// TestDurableClusterApplyBlock: a durable validator persists blocks it
// validated (not sealed), and recovers them.
func TestDurableClusterApplyBlock(t *testing.T) {
	dirB := t.TempDir()
	keyA := cryptoutil.MustGenerateKey()
	keyB := cryptoutil.MustGenerateKey()
	auths := []cryptoutil.Address{keyA.Address(), keyB.Address()}
	clk := simclock.NewSim(chainEpoch)
	mk := func(key *cryptoutil.KeyPair, dir string) *Node {
		cfg := Config{
			Key: key, Authorities: auths, Executor: testExecutor{},
			Clock: clk, GenesisTime: chainEpoch,
			DataDir: dir, Persist: store.Options{Sync: store.SyncNever},
		}
		n, err := OpenNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a := mk(keyA, "") // in-memory sealer
	b := mk(keyB, dirB)
	net, err := NewNetwork(a, b)
	if err != nil {
		t.Fatal(err)
	}
	sender := cryptoutil.MustGenerateKey()
	for i := range 3 {
		if _, err := submit1(net, mustTx(t, sender, uint64(i), testContractAddr(), fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
		if _, err := net.SealNext(); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := mk(keyB, dirB)
	defer b2.Close()
	requireEquivalent(t, b2, a, sender.Address())
}

// TestCommitRollsBackOnWALFailure: when the WAL refuses the block
// record, the commit is aborted AND the executed mutations are reverted
// — the node stays exactly at its previous committed block (memory
// consistent with disk and peers), rather than diverging silently. Its
// admission state stays too: nonces, the queued transaction and the
// cost ledger read as they did before the seal.
func TestCommitRollsBackOnWALFailure(t *testing.T) {
	dir := t.TempDir()
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	n, err := OpenNode(durableConfig(dir, key, clk))
	if err != nil {
		t.Fatal(err)
	}
	sealSet(t, n, key, clk, 0, "a", "1")
	headBefore := n.Head().Hash()
	rootBefore := n.State().Root()

	// Sabotage the store: close the WAL out from under the node.
	if err := n.wal.Close(); err != nil {
		t.Fatal(err)
	}
	queued := mustTx(t, key, 1, testContractAddr(), "b", "2")
	if _, err := submit1(n, queued); err != nil {
		t.Fatal(err)
	}
	addr := key.Address()
	committed, next, spent := n.CommittedNonce(addr), n.NonceFor(addr), n.Costs().TotalSpent()
	clk.Advance(time.Second)
	if _, err := n.Seal(); err == nil {
		t.Fatal("seal succeeded with a dead WAL")
	}
	if n.Head().Hash() != headBefore {
		t.Fatal("ledger advanced despite the WAL failure")
	}
	if n.State().Root() != rootBefore {
		t.Fatal("state diverged despite the WAL failure")
	}
	if n.State().Root() != n.Head().Header.StateRoot {
		t.Fatal("live state root no longer matches the committed head root")
	}
	if got := n.CommittedNonce(addr); got != committed {
		t.Fatalf("CommittedNonce = %d after the refused seal, want %d", got, committed)
	}
	if got := n.NonceFor(addr); got != next {
		t.Fatalf("NonceFor = %d after the refused seal, want %d", got, next)
	}
	n.mpMu.Lock()
	stillQueued := n.mempool.Contains(queued.Hash())
	n.mpMu.Unlock()
	if n.PendingTxs() != 1 || !stillQueued {
		t.Fatalf("PendingTxs = %d (queued tx present: %v), want the nonce-1 tx still queued", n.PendingTxs(), stillQueued)
	}
	if got := n.Costs().TotalSpent(); got != spent {
		t.Fatalf("cost ledger = %d after the refused seal, want %d", got, spent)
	}
	if h, err := submit1(n, queued); err != nil || h != queued.Hash() {
		t.Fatalf("resubmitting the queued tx: hash %s, err %v; want its hash and nil", h.Short(), err)
	}
	if n.PendingTxs() != 1 {
		t.Fatalf("PendingTxs after the resubmission = %d, want 1", n.PendingTxs())
	}
}

// openDurableCluster opens size durable validators, each with its own
// data directory, behind one Network; they are closed when t ends.
func openDurableCluster(t *testing.T, clk *simclock.Sim, size int) ([]*Node, *Network) {
	t.Helper()
	keys := make([]*cryptoutil.KeyPair, size)
	auths := make([]cryptoutil.Address, size)
	for i := range keys {
		keys[i] = cryptoutil.MustGenerateKey()
		auths[i] = keys[i].Address()
	}
	nodes := make([]*Node, size)
	for i := range nodes {
		cfg := durableConfig(t.TempDir(), keys[i], clk)
		cfg.Authorities = auths
		n, err := OpenNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		nodes[i] = n
	}
	net, err := NewNetwork(nodes...)
	if err != nil {
		t.Fatal(err)
	}
	return nodes, net
}

// TestFailedSealLeavesValidatorsAgreed: the in-turn proposer of a
// three-validator durable cluster fails its WAL append. Every validator
// keeps the admission view it had, so the round taken over out of turn
// commits the transaction and the sender's next nonce is admitted on
// every live node.
func TestFailedSealLeavesValidatorsAgreed(t *testing.T) {
	clk := simclock.NewSim(chainEpoch)
	nodes, net := openDurableCluster(t, clk, 3)
	sender := cryptoutil.MustGenerateKey()
	addr := sender.Address()
	tx0 := mustTx(t, sender, 0, testContractAddr(), "k", "0")
	if _, err := submit1(net, tx0); err != nil {
		t.Fatal(err)
	}
	type view struct {
		committed, next uint64
		pending         int
	}
	viewOf := func(n *Node) view { return view{n.CommittedNonce(addr), n.NonceFor(addr), n.PendingTxs()} }
	before := make([]view, len(nodes))
	for i, n := range nodes {
		before[i] = viewOf(n)
	}

	inTurn := nodes[1] // height 1 belongs to authorities[1]
	if err := inTurn.wal.Close(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if _, err := net.SealNext(); err == nil {
		t.Fatal("SealNext succeeded with the in-turn proposer's WAL closed")
	}
	for i, n := range nodes {
		if got := viewOf(n); got != before[i] {
			t.Fatalf("node %d after the refused round: %+v, want %+v", i, got, before[i])
		}
	}

	net.SetDown(inTurn.Address(), true)
	clk.Advance(time.Second)
	block, err := net.SealNext()
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != 1 || block.Txs[0].Hash() != tx0.Hash() {
		t.Fatalf("out-of-turn block carries %d txs, want tx0 alone", len(block.Txs))
	}
	tx1 := mustTx(t, sender, 1, testContractAddr(), "k", "1")
	if _, err := submit1(net, tx1); err != nil {
		t.Fatalf("next nonce after the out-of-turn commit: %v", err)
	}
	for i, n := range nodes {
		if n == inTurn {
			continue
		}
		if got, want := viewOf(n), (view{1, 2, 1}); got != want {
			t.Fatalf("live node %d: %+v, want %+v", i, got, want)
		}
	}
}
