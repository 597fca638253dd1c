package chain

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/store"
)

// ruleFloor is the lowered snapshot floor the rule tests run under: a few
// dozen blocks of the test executor's diffs instead of store.SnapshotFloor.
const ruleFloor = 4096

// setDiffBytes is the diff payload of a block whose net effect is one
// "set" of k to v through the test executor.
func setDiffBytes(k, v string) int64 {
	return diffBytes([]Delta{{K: testContractAddr().String() + "/" + k, V: []byte(v)}})
}

// TestSnapshotRuleAmortisation drives three write shapes through a
// durable node and checks what the recovery-cost rule promises whatever
// the shape: a commit that does not snapshot leaves a tail shorter than
// max(floor, state) — so a recovery never replays more than that — and
// the state bytes snapshotted never exceed the diff bytes committed (at
// most one byte written per byte committed, amortised). Per shape: fresh
// keys (N blocks of B fresh bytes) write at most ⌈log₂(N·B/floor)⌉+1
// snapshots holding at most 2×final+floor bytes; a hot key writes one
// per floor's worth of diff and none before.
func TestSnapshotRuleAmortisation(t *testing.T) {
	value := strings.Repeat("x", 200)
	for _, tc := range []struct {
		name         string
		blocks       int
		key          func(i int) string // the key block i writes
		maxSnapshots func(committed int64) int
	}{
		{"fresh-keys", 64, func(i int) string { return fmt.Sprintf("k%03d", i) },
			func(c int64) int { return bits.Len64(uint64((c-1)/ruleFloor)) + 1 }},
		{"hot-key", 64, func(int) string { return "hot" },
			func(c int64) int { return int(c / ruleFloor) }},
		{"fresh-and-hot", 96, func(i int) string {
			if i%2 == 0 {
				return "hot"
			}
			return fmt.Sprintf("k%03d", i)
		}, func(c int64) int { return int(c / ruleFloor) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key := cryptoutil.MustGenerateKey()
			clk := simclock.NewSim(chainEpoch)
			cfg := durableConfig(t.TempDir(), key, clk)
			cfg.Metrics = NewMetrics(obs.NewRegistry())
			n := openWithFloor(t, cfg, ruleFloor)

			var committed, snapshotted int64
			var snapshots int
			var lastFired uint64 // height of the newest snapshot the rule asked for
			for i := range tc.blocks {
				diff := setDiffBytes(tc.key(i), value)
				tail := n.tailBytes + diff
				committed += diff
				sealSet(t, n, key, clk, uint64(i), tc.key(i), value)
				state := n.State().Bytes()
				switch {
				case n.tailBytes == 0:
					if tail < ruleFloor {
						t.Fatalf("block %d: snapshot with %d diff bytes pending, below the floor", i+1, tail)
					}
					snapshots++
					snapshotted += state
					lastFired = uint64(i + 1)
				case n.tailBytes != tail:
					t.Fatalf("block %d: tail = %d, want %d", i+1, n.tailBytes, tail)
				case tail >= max(ruleFloor, state):
					t.Fatalf("block %d: tail %d >= max(floor, state %d) without a snapshot", i+1, tail, state)
				}
				if snapshotted > committed {
					t.Fatalf("block %d: %d bytes snapshotted for %d committed", i+1, snapshotted, committed)
				}
			}
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			final := n.State().Bytes()
			// The writer is newest-wins: a snapshot still queued when the
			// next comes due is replaced by it, so a loaded host writes
			// fewer files than the rule fired — never none, never more, and
			// Close writes whatever is still queued, so the newest on disk
			// is the last one the rule asked for.
			written := cfg.Metrics.SnapshotWrite.Count()
			if written < 1 || written > uint64(snapshots) {
				t.Fatalf("%d snapshot files written, rule fired %d times", written, snapshots)
			}
			seqs, err := store.ListSnapshots(cfg.DataDir)
			if err != nil || len(seqs) == 0 || seqs[0] != lastFired {
				t.Fatalf("snapshots on disk = %v, %v; want the newest at height %d", seqs, err, lastFired)
			}
			// Every file written was counted; pruning only ever removes.
			var onDisk uint64
			for _, seq := range seqs {
				payload, err := store.LoadSnapshot(cfg.DataDir, seq)
				if err != nil {
					t.Fatal(err)
				}
				onDisk += uint64(len(payload))
			}
			if total := cfg.Metrics.SnapshotBytes.Value(); total < onDisk || (written == uint64(len(seqs)) && total != onDisk) {
				t.Fatalf("chain_snapshot_bytes_total = %d after %d writes; the %d files on disk hold %d", total, written, len(seqs), onDisk)
			}
			if limit := tc.maxSnapshots(committed); snapshots == 0 || snapshots > limit {
				t.Fatalf("%d snapshots over %d diff bytes, want 1..%d", snapshots, committed, limit)
			}
			if tc.name == "fresh-keys" && snapshotted > 2*final+ruleFloor {
				t.Fatalf("snapshotted %d bytes, want <= 2x final state %d + floor", snapshotted, final)
			}
			t.Logf("%d diff bytes committed, final state %d: %d snapshots holding %d bytes", committed, final, snapshots, snapshotted)
		})
	}
}

// TestSnapshotRuleCountsDiffNotTxBytes is the chain-hot shape under the
// real floor: 10 000 rewrites of one key, 100 to a block, commit 100
// one-key diffs. Megabytes of transactions went through the WAL, but a
// recovery would replay a few kilobytes of diff, so no snapshot is due.
func TestSnapshotRuleCountsDiffNotTxBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("signs 10 000 transactions")
	}
	dir := t.TempDir()
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	n, err := OpenNode(durableConfig(dir, key, clk))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const blocks, perBlock = 100, 100
	for b := range blocks {
		txs := make([]*Tx, perBlock)
		for i := range txs {
			txs[i] = mustTx(t, key, uint64(b*perBlock+i), testContractAddr(), "hot", "value")
		}
		if _, err := submitAll(n, txs); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
		if _, err := n.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if want := blocks * setDiffBytes("hot", "value"); n.tailBytes != want {
		t.Fatalf("tail = %d bytes, want %d (one key per block)", n.tailBytes, want)
	}
	if walSize := n.wal.Size(); walSize < store.SnapshotFloor {
		t.Fatalf("WAL holds %d bytes; the test needs more than a floor's worth of transactions", walSize)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if seqs, err := store.ListSnapshots(dir); err != nil || len(seqs) != 0 {
		t.Fatalf("snapshots = %v, %v; want none", seqs, err)
	}
}

// TestSnapshotRuleBoundedRecovery crashes a randomly generated run after
// every block. Each recovery must reproduce the committed state, replay
// less diff than max(floor, the state it rebuilds) — the snapshot that
// would have replaced that tail was not yet worth writing — and come
// back with exactly the tail the crashed node had counted.
func TestSnapshotRuleBoundedRecovery(t *testing.T) {
	const floor = 512
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(21))
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	cfg := durableConfig(dir, key, clk)
	senders := []*cryptoutil.KeyPair{key, cryptoutil.MustGenerateKey()}
	nonces := make([]uint64, len(senders))
	n := openWithFloor(t, cfg, floor)
	fromSnapshot := 0
	for block := 1; block <= 40; block++ {
		for _, tx := range randomBlockTxs(t, rng, senders, nonces) {
			if _, err := submit1(n, tx); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(time.Second)
		if _, err := n.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := n.Crash(); err != nil {
			t.Fatal(err)
		}
		crashed := n
		n = openWithFloor(t, cfg, floor)
		requireEquivalent(t, n, crashed, senders[0].Address(), senders[1].Address())
		if n.tailBytes != crashed.tailBytes {
			t.Fatalf("block %d: reopened with tail %d, the crashed node had counted %d", block, n.tailBytes, crashed.tailBytes)
		}
		if limit := max(floor, n.State().Bytes()); n.tailBytes >= limit {
			t.Fatalf("block %d: recovery replayed %d diff bytes, want < max(floor, state) = %d", block, n.tailBytes, limit)
		}
		if seq, _, ok := store.LatestSnapshot(dir, n.Height()); ok && seq > 0 {
			fromSnapshot++
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if fromSnapshot == 0 {
		t.Fatal("no recovery started from a snapshot; the run exercises nothing")
	}
}

// TestSnapshotRuleCrashLoop: a node that crashes every few blocks, each
// life committing far less than the floor, must still snapshot once the
// lives add up — the tail counter is seeded from what recovery replayed,
// not restarted at zero.
func TestSnapshotRuleCrashLoop(t *testing.T) {
	dir := t.TempDir()
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	cfg := durableConfig(dir, key, clk)
	value := strings.Repeat("x", 100)
	const perLife = 4
	if perLife*setDiffBytes("hot", value) >= ruleFloor/4 {
		t.Fatal("one life must commit well under the floor")
	}
	nonce := uint64(0)
	for life := 0; ; life++ {
		if life == 100 {
			t.Fatal("100 lives and no snapshot: the tail restarts at zero on reopen")
		}
		n := openWithFloor(t, cfg, ruleFloor)
		for range perLife {
			sealSet(t, n, key, clk, nonce, "hot", value)
			nonce++
		}
		if err := n.Crash(); err != nil {
			t.Fatal(err)
		}
		seqs, err := store.ListSnapshots(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(seqs) > 0 {
			unit := setDiffBytes("hot", value)
			if want := uint64((ruleFloor + unit - 1) / unit); seqs[0] != want {
				t.Fatalf("first snapshot at height %d, want %d (the block that crosses the floor)", seqs[0], want)
			}
			return
		}
	}
}

// TestSnapshotRuleValidatorsAgree: the rule reads committed bytes only,
// so the validators of a network — sealer and followers alike — hold
// snapshot files at identical heights.
func TestSnapshotRuleValidatorsAgree(t *testing.T) {
	clk := simclock.NewSim(chainEpoch)
	keys := make([]*cryptoutil.KeyPair, 3)
	auths := make([]cryptoutil.Address, len(keys))
	for i := range keys {
		keys[i] = cryptoutil.MustGenerateKey()
		auths[i] = keys[i].Address()
	}
	dirs := make([]string, len(keys))
	nodes := make([]*Node, len(keys))
	for i, k := range keys {
		dirs[i] = t.TempDir()
		cfg := durableConfig(dirs[i], k, clk)
		cfg.Authorities = auths
		nodes[i] = openWithFloor(t, cfg, ruleFloor)
	}
	net, err := NewNetwork(nodes...)
	if err != nil {
		t.Fatal(err)
	}
	sender := cryptoutil.MustGenerateKey()
	value := strings.Repeat("x", 200)
	for i := range 90 {
		k := "hot"
		if i%3 == 0 {
			k = fmt.Sprintf("k%02d", i)
		}
		if _, err := submit1(net, mustTx(t, sender, uint64(i), testContractAddr(), k, value)); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
		if _, err := net.SealNext(); err != nil {
			t.Fatal(err)
		}
	}
	var want []uint64
	for i, n := range nodes {
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		seqs, err := store.ListSnapshots(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = seqs
			continue
		}
		if !slices.Equal(seqs, want) {
			t.Fatalf("validator %d holds snapshots at %v, validator 0 at %v", i, seqs, want)
		}
	}
	if len(want) < 2 {
		t.Fatalf("snapshots at %v; the run should cross the threshold more than once", want)
	}
}

// TestSnapshotExportOutsideLedgerLock: the O(keys) export a due snapshot
// needs is taken after the ledger lock is released, so Height, Head,
// Receipt and WaitForReceipt never wait for it. The test parks the
// committing goroutine inside the export (by holding the state's own
// lock) and reads the ledger meanwhile.
func TestSnapshotExportOutsideLedgerLock(t *testing.T) {
	dir := t.TempDir()
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	n, err := OpenNode(durableConfig(dir, key, clk))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	tx := mustTx(t, key, 0, testContractAddr(), "k", "v")
	if _, err := submit1(n, tx); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	n.tailBytes = store.SnapshotFloor // this commit snapshots

	// Stall the commit between releasing the ledger lock and the export:
	// event publication sits exactly there.
	n.feed.mu.Lock()
	sealed := make(chan error, 1)
	go func() {
		_, err := n.Seal()
		sealed <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); n.Height() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("block 1 never became visible")
		}
	}
	st := n.State()
	st.mu.Lock()
	n.feed.mu.Unlock()

	// The committer now needs st.mu for the export. Readers of the ledger
	// must not queue behind it.
	select {
	case err := <-sealed:
		st.mu.Unlock()
		t.Fatalf("Seal returned (%v) while the state lock was held: the export was not taken after the ledger lock was released", err)
	case <-time.After(100 * time.Millisecond):
	}
	read := make(chan *Receipt, 1)
	go func() {
		_ = n.Head()
		_ = n.BlockByNumber(1)
		read <- n.Receipt(tx.Hash())
	}()
	select {
	case r := <-read:
		if r == nil || r.BlockNumber != 1 {
			t.Errorf("receipt = %+v, want block 1's", r)
		}
	case <-time.After(10 * time.Second):
		t.Error("ledger readers are blocked for the duration of the export")
	}
	st.mu.Unlock()
	if err := <-sealed; err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if seqs, err := store.ListSnapshots(dir); err != nil || !slices.Equal(seqs, []uint64{1}) {
		t.Fatalf("snapshots = %v, %v; want [1]", seqs, err)
	}
}
