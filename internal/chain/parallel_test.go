package chain

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simclock"
)

// parallelWorkerCounts are the scheduler widths the differential tests
// sweep; each must be bit-identical to the serial path.
var parallelWorkerCounts = []int{2, 4, 8}

// randomParallelBlockTxs builds one large block mixing conflict-free
// writes, read-modify-write collisions on a small shared key space,
// reverts, and gas burns — big enough to clear minParallelTxs and
// adversarial enough to exercise every scheduler phase.
func randomParallelBlockTxs(t testing.TB, rng *rand.Rand, keys []*cryptoutil.KeyPair, nonces []uint64) []*Tx {
	t.Helper()
	var txs []*Tx
	for i := range 32 + rng.Intn(32) {
		s := rng.Intn(len(keys))
		var tx *Tx
		var err error
		switch rng.Intn(10) {
		case 0:
			tx, err = NewTx(keys[s], nonces[s], testContractAddr(), "fail", struct{}{}, 100_000)
		case 1:
			tx, err = NewTx(keys[s], nonces[s], testContractAddr(), "burn", burnArgs{Amount: uint64(rng.Intn(50_000))}, 100_000)
		case 2, 3, 4:
			// Shared counters: read-modify-write over 4 keys, so conflicts
			// are common but not total.
			tx, err = NewTx(keys[s], nonces[s], testContractAddr(), "incr", setArgs{
				Key: fmt.Sprintf("ctr%d", rng.Intn(4)),
			}, 200_000)
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

// requireSameExecution compares a parallel replay against the serial
// reference: receipts (digests cover status, gas, error, and the full
// ordered event list), state roots, and the drained block diffs must be
// bit-identical. It returns the serial diff so callers can advance the
// canonical state.
func requireSameExecution(t *testing.T, label string, serial, par []*Receipt, serialOv, parOv *Overlay) []Delta {
	t.Helper()
	if len(serial) != len(par) {
		t.Fatalf("%s: receipt counts differ: serial %d, parallel %d", label, len(serial), len(par))
	}
	for i := range serial {
		if serial[i].Digest() != par[i].Digest() {
			t.Fatalf("%s: receipt %d differs:\nserial   %+v\nparallel %+v", label, i, serial[i], par[i])
		}
	}
	if sr, pr := serialOv.Root(), parOv.Root(); sr != pr {
		t.Fatalf("%s: serial root %s != parallel root %s", label, sr.Short(), pr.Short())
	}
	sd, pd := serialOv.TakeDeltas(), parOv.TakeDeltas()
	if len(sd) != len(pd) {
		t.Fatalf("%s: serial diff has %d entries, parallel %d:\n%+v\n%+v", label, len(sd), len(pd), sd, pd)
	}
	for i := range sd {
		if sd[i].K != pd[i].K || sd[i].Del != pd[i].Del || string(sd[i].V) != string(pd[i].V) {
			t.Fatalf("%s: diff entry %d differs: %+v vs %+v", label, i, sd[i], pd[i])
		}
	}
	return sd
}

// TestDifferentialParallelVsSerialRandom: across 5 seeds and every
// worker count, the parallel scheduler must produce bit-identical
// receipts, event order, state roots, and block diffs to the serial
// path on random mixed workloads, block after block as state evolves.
func TestDifferentialParallelVsSerialRandom(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		for _, workers := range parallelWorkerCounts {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				keys := []*cryptoutil.KeyPair{
					cryptoutil.MustGenerateKey(), cryptoutil.MustGenerateKey(), cryptoutil.MustGenerateKey(),
				}
				nonces := make([]uint64, len(keys))
				ex := testExecutor{}
				st := NewState()
				for block := range 20 {
					txs := randomParallelBlockTxs(t, rng, keys, nonces)
					bctx := BlockContext{Number: uint64(block + 1), Time: chainEpoch.Add(time.Duration(block) * time.Second)}

					serialOv := NewOverlay(st)
					serial := replayTxs(ex, serialOv, txs, txHashes(txs), bctx)
					parOv := NewOverlay(st)
					par := replayTxsParallel(ex, parOv, txs, bctx, workers)

					deltas := requireSameExecution(t, fmt.Sprintf("block %d", block), serial, par, serialOv, parOv)
					st.applyDeltas(deltas)
				}
			})
		}
	}
}

// TestDifferentialParallelAllConflicts: every transaction increments the
// same counter, so every optimistic result after the first is wrong and
// the scheduler must fall back to (deterministic) serial re-execution of
// nearly the whole block — and still match the serial path exactly,
// ending at the true count.
func TestDifferentialParallelAllConflicts(t *testing.T) {
	const txCount = 64
	key := cryptoutil.MustGenerateKey()
	ex := testExecutor{}
	for _, workers := range parallelWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			txs := make([]*Tx, txCount)
			for i := range txs {
				tx, err := NewTx(key, uint64(i), testContractAddr(), "incr", setArgs{Key: "hot"}, 200_000)
				if err != nil {
					t.Fatal(err)
				}
				txs[i] = tx
			}
			st := NewState()
			bctx := BlockContext{Number: 1, Time: chainEpoch}

			serialOv := NewOverlay(st)
			serial := replayTxs(ex, serialOv, txs, txHashes(txs), bctx)
			parOv := NewOverlay(st)
			par := replayTxsParallel(ex, parOv, txs, bctx, workers)
			requireSameExecution(t, "hot-counter block", serial, par, serialOv, parOv)

			// The last receipt's event carries the final count: proof no
			// increment was lost to a stale optimistic result.
			ev := par[txCount-1].Events
			if len(ev) != 1 || string(ev[0].Data) != strconv.Itoa(txCount) {
				t.Fatalf("final counter event = %+v, want %d", ev, txCount)
			}
		})
	}
}

// rwExecutor exercises the conflict-detection corners the standard test
// executor cannot reach: deletions (whose no-op decision is a read) and
// prefix listings (whose result set any overlapping write invalidates).
//
//	"put"   {key, value}: blind write.
//	"del"   {key}       : delete; writes "deleted:<yes|no>" event.
//	"count" {key}       : lists Keys("<contract>/item/") and stores the
//	                      count under the given key.
type rwExecutor struct{}

func (rwExecutor) ExecuteTx(st StateRW, tx *Tx, bctx BlockContext) *Receipt {
	var args setArgs
	if err := json.Unmarshal(tx.Args, &args); err != nil {
		return &Receipt{Status: StatusReverted, Err: err.Error()}
	}
	r := &Receipt{Status: StatusOK, GasUsed: GasTxBase}
	prefix := tx.Contract.String() + "/item/"
	switch tx.Method {
	case "put":
		st.Set(prefix+args.Key, []byte(args.Value))
	case "del":
		k := prefix + args.Key
		_, existed := st.Get(k)
		st.Delete(k)
		verdict := "no"
		if existed {
			verdict = "yes"
		}
		r.Events = append(r.Events, Event{Contract: tx.Contract, Topic: "Del", Key: args.Key, Data: []byte("deleted:" + verdict)})
	case "count":
		n := len(st.Keys(prefix))
		st.Set(tx.Contract.String()+"/"+args.Key, []byte(strconv.Itoa(n)))
		r.Events = append(r.Events, Event{Contract: tx.Contract, Topic: "Count", Key: args.Key, Data: []byte(strconv.Itoa(n))})
	default:
		return &Receipt{Status: StatusReverted, Err: "unknown method"}
	}
	return r
}

func (rwExecutor) Query(StateRW, cryptoutil.Address, string, []byte, BlockContext) ([]byte, error) {
	return nil, fmt.Errorf("no queries")
}

// TestDifferentialParallelDeleteAndPrefixConflicts: crafted blocks where
// correctness hinges on delete-read and prefix-read conflicts being
// detected — a put followed by a del of the same key, a put followed by
// a count over its prefix, and a set-then-delete of a base-absent key
// whose net diff must still carry the deletion marker.
func TestDifferentialParallelDeleteAndPrefixConflicts(t *testing.T) {
	key := cryptoutil.MustGenerateKey()
	ex := rwExecutor{}
	mk := func(nonce uint64, method, k, v string) *Tx {
		tx, err := NewTx(key, nonce, testContractAddr(), method, setArgs{Key: k, Value: v}, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}

	st := NewState()
	st.Set(testContractAddr().String()+"/item/seeded", []byte("x"))
	st.DiscardJournal()

	// Block 1: the del of "a" must observe put("a") before it (conflict via
	// delete-read); the count must observe every put/del before it
	// (conflict via prefix-read); "ghost" is created then deleted, so the
	// block diff must carry its deletion marker even though the base never
	// held it.
	txs := []*Tx{
		mk(0, "put", "a", "1"),
		mk(1, "del", "a", ""),
		mk(2, "put", "b", "2"),
		mk(3, "count", "n1", ""),
		mk(4, "put", "ghost", "tmp"),
		mk(5, "del", "ghost", ""),
		mk(6, "del", "missing", ""),
		mk(7, "count", "n2", ""),
	}
	for _, workers := range parallelWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			bctx := BlockContext{Number: 1, Time: chainEpoch}
			serialOv := NewOverlay(st)
			serial := replayTxs(ex, serialOv, txs, txHashes(txs), bctx)
			parOv := NewOverlay(st)
			par := replayTxsParallel(ex, parOv, txs, bctx, workers)
			requireSameExecution(t, "delete/prefix block", serial, par, serialOv, parOv)

			// Spot-check semantics, not just equality: the del of "a" saw the
			// earlier put, the first count saw {seeded, b}, the second count
			// saw the same after ghost came and went.
			if got := string(par[1].Events[0].Data); got != "deleted:yes" {
				t.Fatalf("del(a) observed %q, want deleted:yes", got)
			}
			if got := string(par[3].Events[0].Data); got != "2" {
				t.Fatalf("count n1 = %s, want 2 (seeded+b)", got)
			}
			if got := string(par[7].Events[0].Data); got != "2" {
				t.Fatalf("count n2 = %s, want 2", got)
			}
		})
	}
}

// TestDifferentialParallelCluster: a two-authority cluster sealing with
// the parallel scheduler must produce exactly the chain a serial cluster
// produces from the same transactions — and every ApplyBlock validation
// (itself running the parallel scheduler) must accept the roots. This is
// the node-level wiring proof for seal + ApplyBlock.
func TestDifferentialParallelCluster(t *testing.T) {
	keyA, keyB := cryptoutil.MustGenerateKey(), cryptoutil.MustGenerateKey()
	auths := []cryptoutil.Address{keyA.Address(), keyB.Address()}

	buildNet := func(execWorkers int) (*Network, *simclock.Sim) {
		clk := simclock.NewSim(chainEpoch)
		var nodes []*Node
		for _, k := range []*cryptoutil.KeyPair{keyA, keyB} {
			n, err := NewNode(Config{
				Key: k, Authorities: auths, Executor: testExecutor{},
				Clock: clk, GenesisTime: chainEpoch, ExecWorkers: execWorkers,
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
		}
		net, err := NewNetwork(nodes...)
		if err != nil {
			t.Fatal(err)
		}
		return net, clk
	}
	serialNet, serialClk := buildNet(1)
	parNet, parClk := buildNet(4)

	rng := rand.New(rand.NewSource(42))
	senders := []*cryptoutil.KeyPair{keyA, keyB, cryptoutil.MustGenerateKey()}
	nonces := make([]uint64, len(senders))
	for range 8 {
		txs := randomParallelBlockTxs(t, rng, senders, nonces)
		for _, net := range []*Network{serialNet, parNet} {
			if _, err := net.SubmitEverywhereBatch(txs); err != nil {
				t.Fatal(err)
			}
		}
		serialClk.Advance(time.Second)
		parClk.Advance(time.Second)
		if _, err := serialNet.SealNext(); err != nil {
			t.Fatal(err)
		}
		if _, err := parNet.SealNext(); err != nil {
			t.Fatal(err)
		}
	}
	// Compare the chains' execution content, not their hashes: ECDSA
	// signing is randomized, so two independently-sealed-but-identical
	// chains never share signature bytes (and ParentHash covers the
	// parent's signature, so linkage hashes diverge transitively).
	// Everything execution determines — tx root, receipt root, state
	// root, timestamp, proposer, and every receipt — must be identical
	// block for block.
	sNode, pNode := serialNet.Nodes()[0], parNet.Nodes()[0]
	if sNode.Height() != pNode.Height() {
		t.Fatalf("heights differ: serial %d, parallel %d", sNode.Height(), pNode.Height())
	}
	for num := uint64(1); num <= sNode.Height(); num++ {
		sb, pb := sNode.BlockByNumber(num), pNode.BlockByNumber(num)
		if sb.Header.TxRoot != pb.Header.TxRoot ||
			sb.Header.ReceiptRoot != pb.Header.ReceiptRoot ||
			sb.Header.StateRoot != pb.Header.StateRoot ||
			!sb.Header.Time.Equal(pb.Header.Time) ||
			sb.Header.Proposer != pb.Header.Proposer {
			t.Fatalf("block %d differs:\nserial   %+v\nparallel %+v", num, sb.Header, pb.Header)
		}
		for i := range sb.Receipts {
			if sb.Receipts[i].Digest() != pb.Receipts[i].Digest() {
				t.Fatalf("block %d receipt %d differs", num, i)
			}
		}
	}
	if sNode.State().Root() != pNode.State().Root() {
		t.Fatal("final state roots differ")
	}
	// Within the parallel cluster, the validator tracked the proposer.
	if a, b := parNet.Nodes()[0].Head().Hash(), parNet.Nodes()[1].Head().Hash(); a != b {
		t.Fatalf("parallel cluster diverged: %s vs %s", a.Short(), b.Short())
	}
}

// TestCancelledReceiptWaitsDoNotLeak: the regression test for the
// waiter-map leak — after N waits abandoned via context cancellation for
// a transaction that never commits, the waiters map must be empty again.
func TestCancelledReceiptWaitsDoNotLeak(t *testing.T) {
	n, key, _ := newTestNode(t)
	never := mustTx(t, key, 99, testContractAddr(), "never", "sealed") // nonce 99: never committed

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for range 128 {
		if _, err := n.WaitForReceipt(ctx, never.Hash()); err == nil {
			t.Fatal("cancelled wait returned a receipt")
		}
	}
	n.mu.Lock()
	leaked := len(n.waiters)
	n.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("waiters map holds %d entries after cancelled waits, want 0", leaked)
	}

	// A commit racing the cancellation must still surface the receipt to
	// the cancelled waiter if it was delivered before deregistration —
	// and either way, live waiters keep working.
	tx := mustTx(t, key, 0, testContractAddr(), "a", "1")
	if _, err := n.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r, err := n.WaitForReceipt(context.Background(), tx.Hash())
		if err != nil || r == nil {
			t.Errorf("live wait: r=%v err=%v", r, err)
		}
	}()
	if _, err := n.Seal(); err != nil {
		t.Fatal(err)
	}
	<-done
	n.mu.Lock()
	leaked = len(n.waiters)
	n.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("waiters map holds %d entries after delivery, want 0", leaked)
	}
}

// TestReceiptIndexRebuiltOnRecovery: the hash → receipt index is pure
// bookkeeping over the blocks, and recovery must rebuild it identically —
// every committed transaction resolves to the same receipt through the
// reopened node, and the index holds exactly the committed receipt set.
func TestReceiptIndexRebuiltOnRecovery(t *testing.T) {
	dir := t.TempDir()
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	cfg := durableConfig(dir, key, clk)
	n := openWithFloor(t, cfg, 1)
	var hashes []cryptoutil.Hash
	for i := range 9 {
		tx := mustTx(t, key, uint64(i), testContractAddr(), fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
		if _, err := n.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, tx.Hash())
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

	for _, h := range hashes {
		before, after := n.Receipt(h), n2.Receipt(h)
		if before == nil || after == nil {
			t.Fatalf("receipt %s: before=%v after=%v", h.Short(), before, after)
		}
		if before.Digest() != after.Digest() {
			t.Fatalf("receipt %s differs across recovery", h.Short())
		}
	}
	n2.mu.RLock()
	indexed := len(n2.receipts)
	n2.mu.RUnlock()
	if indexed != len(hashes) {
		t.Fatalf("recovered index holds %d receipts, want %d", indexed, len(hashes))
	}
}
