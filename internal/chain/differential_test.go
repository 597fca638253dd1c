package chain

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simclock"
	"repro/internal/store"
)

// randomBlockTxs builds one block's worth of random transactions from a
// set of senders: mostly "set" (random key/value over a bounded key
// space, so overwrites and fresh keys both occur), with occasional
// reverts ("fail", which writes a key of the same space before it
// reverts) and gas burns sprinkled in.
func randomBlockTxs(t testing.TB, rng *rand.Rand, keys []*cryptoutil.KeyPair, nonces []uint64) []*Tx {
	t.Helper()
	var txs []*Tx
	for i := range 1 + rng.Intn(8) {
		s := rng.Intn(len(keys))
		var tx *Tx
		var err error
		switch rng.Intn(10) {
		case 0:
			tx, err = NewTx(keys[s], nonces[s], testContractAddr(), "fail", setArgs{Key: fmt.Sprintf("k%03d", i)}, 100_000)
		case 1:
			tx, err = NewTx(keys[s], nonces[s], testContractAddr(), "burn", burnArgs{Amount: uint64(rng.Intn(50_000))}, 100_000)
		default:
			tx, err = NewTx(keys[s], nonces[s], testContractAddr(), "set", setArgs{
				Key:   fmt.Sprintf("k%03d", rng.Intn(64)),
				Value: fmt.Sprintf("v%d-%d", i, rng.Int63()),
			}, 200_000)
		}
		if err != nil {
			t.Fatal(err)
		}
		nonces[s]++
		txs = append(txs, tx)
	}
	return txs
}

// mapState is the reference model the overlay differential runs
// against: a plain map that shares no code with State or Overlay. A
// checkpoint clones the whole map and a revert restores the clone;
// written collects the keys a surviving transaction wrote, which are the
// keys a block's diff lists.
type mapState struct {
	data    map[string][]byte
	written map[string]bool
}

// newMapState copies base's content into a fresh model.
func newMapState(base StateReader) *mapState {
	m := &mapState{data: make(map[string][]byte), written: make(map[string]bool)}
	for _, k := range base.Keys("") {
		m.data[k], _ = base.Get([]byte(k))
	}
	return m
}

func (m *mapState) Get(key []byte) ([]byte, bool) {
	v, ok := m.data[string(key)]
	return bytes.Clone(v), ok
}

func (m *mapState) Set(key string, value []byte) {
	m.data[key] = bytes.Clone(value)
	m.written[key] = true
}

func (m *mapState) Delete(key string) {
	if _, ok := m.data[key]; ok {
		delete(m.data, key)
		m.written[key] = true
	}
}

func (m *mapState) Keys(prefix string) []string {
	var out []string
	for k := range m.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func (m *mapState) checkpoint() mapState {
	return mapState{data: maps.Clone(m.data), written: maps.Clone(m.written)}
}

func (m *mapState) revert(cp mapState) { *m = cp }

// replayReference executes one block on the model the way a block
// executes: transactions in order, a reverted one leaving no writes and
// no events, receipts stamped with the block and block-local event
// indexes.
func replayReference(ex Executor, m *mapState, txs []*Tx, bctx BlockContext) []*Receipt {
	receipts := make([]*Receipt, 0, len(txs))
	index := 0
	for _, tx := range txs {
		cp := m.checkpoint()
		r := ex.ExecuteTx(m, tx, bctx)
		if r.Status != StatusOK {
			m.revert(cp)
			r.Events = nil
		}
		r.TxHash = tx.Hash()
		r.BlockNumber = bctx.Number
		for j := range r.Events {
			r.Events[j].BlockNumber = bctx.Number
			r.Events[j].TxHash = r.TxHash
			r.Events[j].Index = index
			index++
		}
		receipts = append(receipts, r)
	}
	return receipts
}

// mapDiff is the reference block diff: every key whose value differs
// between before and after, sorted by key.
func mapDiff(before, after map[string][]byte) []Delta {
	var diff []Delta
	for k, v := range after {
		if old, ok := before[k]; !ok || !bytes.Equal(old, v) {
			diff = append(diff, Delta{K: k, V: v})
		}
	}
	for k := range before {
		if _, ok := after[k]; !ok {
			diff = append(diff, Delta{K: k, Del: true})
		}
	}
	sort.Slice(diff, func(i, j int) bool { return diff[i].K < diff[j].K })
	return diff
}

// TestDifferentialOverlayVsCloneReplay: the overlay replay must be
// observationally identical to a clone-and-replay reference — the model
// above, which clones its whole map at every checkpoint — on random
// workloads: same receipts, same state roots, same net diffs, block
// after block as the ledger grows. The reference's root is recomputed
// from every leaf, and its diff is the difference of the maps before and
// after the block, so the overlay's incremental root, journal and layer
// are checked against nothing that shares their code.
func TestDifferentialOverlayVsCloneReplay(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			keys := []*cryptoutil.KeyPair{
				cryptoutil.MustGenerateKey(), cryptoutil.MustGenerateKey(), cryptoutil.MustGenerateKey(),
			}
			nonces := make([]uint64, len(keys))
			ex := testExecutor{}
			st := NewState() // canonical committed state, advanced via overlay deltas
			model := newMapState(st)
			for block := range 40 {
				txs := randomBlockTxs(t, rng, keys, nonces)
				bctx := BlockContext{Number: uint64(block + 1), Time: chainEpoch.Add(time.Duration(block) * time.Second)}

				// The overlay, as sealing and validation run it.
				overlay := NewOverlay(st)
				ovReceipts := replayTxs(ex, overlay, txs, txHashes(nil, txs), bctx)
				ovRoot := overlay.Root()

				// The reference: the same block on the map model.
				before := maps.Clone(model.data)
				clear(model.written)
				refReceipts := replayReference(ex, model, txs, bctx)
				refRoot, refBytes := recompute(model)

				if len(ovReceipts) != len(refReceipts) {
					t.Fatalf("block %d: receipt counts differ", block)
				}
				for i := range refReceipts {
					if ovReceipts[i].Digest() != refReceipts[i].Digest() {
						t.Fatalf("block %d: receipt %d differs:\noverlay   %+v\nreference %+v",
							block, i, ovReceipts[i], refReceipts[i])
					}
				}
				if ovRoot != refRoot {
					t.Fatalf("block %d: overlay root %s != reference root %s", block, ovRoot.Short(), refRoot.Short())
				}

				// The overlay's diff lists exactly the keys a surviving
				// transaction wrote; the entries that change the ledger
				// are the maps' difference, and the rest (a key created
				// and deleted, or rewritten with its value) change nothing.
				deltas := overlay.TakeDeltas()
				var net []Delta
				for _, d := range deltas {
					if !model.written[d.K] {
						t.Fatalf("block %d: diff entry %+v for a key no surviving transaction wrote", block, d)
					}
					if old, ok := before[d.K]; d.Del && ok || !d.Del && (!ok || !bytes.Equal(old, d.V)) {
						net = append(net, d)
					}
				}
				if len(deltas) != len(model.written) {
					t.Fatalf("block %d: overlay diff has %d entries, the reference wrote %d keys", block, len(deltas), len(model.written))
				}
				want := mapDiff(before, model.data)
				if len(net) != len(want) {
					t.Fatalf("block %d: overlay diff changes %d keys, reference %d:\n%+v\n%+v",
						block, len(net), len(want), net, want)
				}
				for i := range want {
					if net[i].K != want[i].K || net[i].Del != want[i].Del || !bytes.Equal(net[i].V, want[i].V) {
						t.Fatalf("block %d: diff entry %d differs: %+v vs %+v", block, i, net[i], want[i])
					}
				}

				// Advance the canonical state the way commitBlock does and
				// check it against the reference.
				st.applyDeltas(deltas)
				if st.Root() != refRoot || st.Bytes() != refBytes {
					t.Fatalf("block %d: folded root or size diverged", block)
				}
				// Stored slices are handed over, never copied, so the
				// root must still be that of the bytes the state holds.
				if root, _ := recompute(st); root != st.Root() {
					t.Fatalf("block %d: a stored value changed after it was hashed", block)
				}
			}
		})
	}
}

// TestDifferentialCrashRestartEquivalence: the same random workloads,
// driven through a durable node (overlay commits, binary WAL, background
// snapshots), must recover bit-for-bit after a crash — the
// recovery-equivalence property the scenario engine checks system-wide,
// pinned here at the chain layer.
func TestDifferentialCrashRestartEquivalence(t *testing.T) {
	for _, seed := range []int64{11, 12, 13} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(seed))
			key := cryptoutil.MustGenerateKey()
			clk := simclock.NewSim(chainEpoch)
			cfg := durableConfig(dir, key, clk)
			n := openWithFloor(t, cfg, 1) // the rule alone: exercise snapshot+tail
			senders := []*cryptoutil.KeyPair{key, cryptoutil.MustGenerateKey()}
			nonces := make([]uint64, len(senders))
			for range 12 {
				for _, tx := range randomBlockTxs(t, rng, senders, nonces) {
					if _, err := submit1(n, tx); err != nil {
						t.Fatal(err)
					}
				}
				clk.Advance(time.Second)
				if _, err := n.Seal(); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.Crash(); err != nil {
				t.Fatal(err)
			}
			n2, err := OpenNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer n2.Close()
			requireEquivalent(t, n2, n, key.Address(), senders[1].Address())
			// The recovered state must also satisfy the live-root half of
			// the scenario engine's recovery-equivalence invariant.
			if n2.State().Root() != n2.Head().Header.StateRoot {
				t.Fatal("recovered live root != committed head root")
			}
		})
	}
}

// TestConcurrentReadersDuringCommit hammers the read API (state gets,
// queries, head/receipt scans, key listings) from many goroutines while
// blocks commit with snapshots enabled — the -race proof that off-lock
// persistence and the COW snapshot export introduce no data races and
// that readers are never starved by a commit.
func TestConcurrentReadersDuringCommit(t *testing.T) {
	dir := t.TempDir()
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	n, err := OpenNode(durableConfig(dir, key, clk))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch (i + r) % 4 {
				case 0:
					n.State().Get([]byte(fmt.Sprintf("%s/k%d", testContractAddr(), i%32)))
				case 1:
					// k0 is written by block 1; a query that starts after that
					// must succeed. The height is read first: read after a
					// failed query it may already be past a block 1 the
					// query itself ran before.
					before := n.Height()
					if _, err := n.Query(testContractAddr(), "get", []byte(`{"key":"k0"}`)); err != nil && before > 0 {
						select {
						case <-stop:
							return
						default:
							t.Errorf("query failed at height %d: %v", before, err)
							return
						}
					}
				case 2:
					_ = n.Head()
					_ = n.State().Keys(testContractAddr().String() + "/")
				case 3:
					_ = n.State().Root()
				}
			}
		}()
	}

	for i := range 24 {
		tx := mustTx(t, key, uint64(i), testContractAddr(), fmt.Sprintf("k%d", i%32), fmt.Sprintf("v%d", i))
		if _, err := submit1(n, tx); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
		if i%2 == 1 {
			// Pretend a floor's worth of diff is pending, so every second
			// commit exports: constant snapshot traffic under the readers.
			n.tailBytes = store.SnapshotFloor
		}
		if _, err := n.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if n.Height() != 24 {
		t.Fatalf("height = %d", n.Height())
	}
}

// TestSlowReceiptWaiterCannotStallSealing: waiters that registered a
// receipt channel but will never read it (context already given up)
// must not block the commit — the capacity-1 buffered channel plus the
// non-blocking send guarantee sealing completes regardless of consumer
// behaviour.
func TestSlowReceiptWaiterCannotStallSealing(t *testing.T) {
	n, key, clk := newTestNode(t)
	tx := mustTx(t, key, 0, testContractAddr(), "a", "1")
	if _, err := submit1(n, tx); err != nil {
		t.Fatal(err)
	}

	// Register many waiters whose consumers have already abandoned the
	// wait: their channels stay parked in n.waiters unread.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for range 64 {
		if _, err := n.WaitForReceipt(cancelled, tx.Hash()); err == nil {
			t.Fatal("cancelled wait returned a receipt")
		}
	}
	// And one healthy waiter that reads only AFTER sealing finished.
	got := make(chan *Receipt, 1)
	ready := make(chan struct{})
	go func() {
		close(ready)
		r, err := n.WaitForReceipt(context.Background(), tx.Hash())
		if err != nil {
			t.Errorf("wait: %v", err)
		}
		got <- r
	}()
	<-ready

	clk.Advance(time.Second)
	sealed := make(chan error, 1)
	go func() {
		_, err := n.Seal()
		sealed <- err
	}()
	select {
	case err := <-sealed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sealing stalled behind unread receipt waiters")
	}
	select {
	case r := <-got:
		if r == nil || r.TxHash != tx.Hash() {
			t.Fatalf("receipt = %+v", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("healthy waiter never woke")
	}
	if n.PendingTxs() != 0 {
		t.Fatal("mempool not drained")
	}
}
