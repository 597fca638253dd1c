package chain

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simclock"
	"repro/internal/store"
)

// raceDetector is set under the race detector (race_test.go). The tests
// that push more than store.MaxRecordSize through a cluster skip there:
// its shadow memory would multiply their footprint several times over.
var raceDetector bool

// blockBytes is the txSizeHint total that MaxBlockTxBytes budgets.
func blockBytes(txs []*Tx) int {
	n := 0
	for _, tx := range txs {
		n += txSizeHint(tx)
	}
	return n
}

// paddedTx is a signed transaction from key whose arguments are size
// zero bytes. The test executor reverts it (the arguments alone cost
// more gas than its limit), so its receipt stays small.
func paddedTx(t *testing.T, key *cryptoutil.KeyPair, nonce uint64, size int) *Tx {
	t.Helper()
	tx, err := NewTx(key, nonce, testContractAddr(), "set", make([]byte, size), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// TestMempoolTakeRespectsByteBudget: selection keeps price order within
// the byte budget. A sender whose next transaction does not fit what is
// left drops out of the block, and cheaper senders still fill it.
func TestMempoolTakeRespectsByteBudget(t *testing.T) {
	mp := testPool()
	rich, poor := cryptoutil.MustGenerateKey(), cryptoutil.MustGenerateKey()
	contract := testContractAddr()
	r0 := mustTxPriced(t, rich, 0, contract, "k", "0123456789", 300)
	r1 := mustTxPriced(t, rich, 1, contract, "k", string(make([]byte, 1000)), 300)
	p0 := mustTxPriced(t, poor, 0, contract, "k", "v", 200)
	for _, tx := range []*Tx{r0, r1, p0} {
		if _, err := mp.Add(tx.Hash(), tx); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		budget int
		want   []*Tx
	}{
		{blockBytes([]*Tx{r0, r1, p0}), []*Tx{r0, r1, p0}},
		{blockBytes([]*Tx{r0, p0}), []*Tx{r0, p0}},
		{txSizeHint(p0), []*Tx{p0}}, // r0 carries 9 more argument bytes
		{txSizeHint(p0) - 1, nil},
	} {
		got, _ := mp.Take(10, tc.budget, nil)
		if len(got) != len(tc.want) {
			t.Fatalf("budget %d: Take = %d txs, want %d", tc.budget, len(got), len(tc.want))
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("budget %d: Take[%d] = nonce %d of %s, want nonce %d of %s", tc.budget, i,
					got[i].Nonce, got[i].From.Short(), tc.want[i].Nonce, tc.want[i].From.Short())
			}
		}
	}
}

// TestTxOverBudgetRefusedAtAdmission: a transaction no block could carry
// is refused at the door with ErrTxTooLarge and takes its successors
// with it; one just under the budget is admitted and sealed alone.
func TestTxOverBudgetRefusedAtAdmission(t *testing.T) {
	n, _, clk := newTestNode(t)
	key := cryptoutil.MustGenerateKey()
	over := paddedTx(t, key, 0, MaxBlockTxBytes)
	next := mustTx(t, key, 1, testContractAddr(), "k", "v")
	out := n.Submit([]*Tx{over, next})
	if !errors.Is(out[0].Err, ErrTxTooLarge) || out[0].Hash != over.Hash() {
		t.Fatalf("over-budget verdict = %s, %v; want its hash and ErrTxTooLarge", out[0].Hash.Short(), out[0].Err)
	}
	if !errors.Is(out[1].Err, ErrBadNonce) {
		t.Fatalf("successor verdict = %v, want ErrBadNonce", out[1].Err)
	}
	if n.PendingTxs() != 0 {
		t.Fatalf("PendingTxs = %d, want 0", n.PendingTxs())
	}

	under := paddedTx(t, key, 0, MaxBlockTxBytes-1024)
	if _, err := submit1(n, under); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	block, err := n.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != 1 || n.Receipt(under.Hash()) == nil {
		t.Fatalf("block carries %d txs, want the under-budget tx with its receipt", len(block.Txs))
	}
}

// TestOversizedTxLeavesChainLive: a transaction above store.MaxRecordSize
// on its own is refused at admission by every validator of a durable
// cluster, so no seal selects a block the WAL would refuse, and the
// chain goes on committing the sender's transactions.
func TestOversizedTxLeavesChainLive(t *testing.T) {
	if raceDetector {
		t.Skip("pushes more than store.MaxRecordSize through the cluster")
	}
	clk := simclock.NewSim(chainEpoch)
	nodes, net := openDurableCluster(t, clk, 3)
	sender := cryptoutil.MustGenerateKey()
	if _, err := submit1(net, paddedTx(t, sender, 0, store.MaxRecordSize)); !errors.Is(err, ErrTxTooLarge) {
		t.Fatalf("over-64 MiB tx: err = %v, want ErrTxTooLarge", err)
	}
	for i, n := range nodes {
		if n.PendingTxs() != 0 {
			t.Fatalf("node %d queues %d txs after the refusal, want 0", i, n.PendingTxs())
		}
	}
	const rounds = 3
	for nonce := range uint64(rounds) {
		tx := mustTx(t, sender, nonce, testContractAddr(), "k", "v")
		if _, err := submit1(net, tx); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
		block, err := net.SealNext()
		if err != nil {
			t.Fatalf("round %d: %v", nonce, err)
		}
		if len(block.Txs) != 1 || block.Txs[0] != tx {
			t.Fatalf("round %d: block carries %d txs, want the nonce-%d tx", nonce, len(block.Txs), nonce)
		}
	}
	for i, n := range nodes {
		if n.Height() != rounds || n.CommittedNonce(sender.Address()) != rounds {
			t.Fatalf("node %d: height %d, committed nonce %d; want %d and %d",
				i, n.Height(), n.CommittedNonce(sender.Address()), rounds, rounds)
		}
	}
}

// TestByteBudgetSplitsOversizedSelection: transactions that together
// exceed store.MaxRecordSize, each well under the budget, are sealed
// two to a block by a durable cluster. Each block stays within the
// budget, every WAL accepts it, and all of them commit.
func TestByteBudgetSplitsOversizedSelection(t *testing.T) {
	if raceDetector {
		t.Skip("pushes more than store.MaxRecordSize through the cluster")
	}
	clk := simclock.NewSim(chainEpoch)
	nodes, net := openDurableCluster(t, clk, 3)
	sender := cryptoutil.MustGenerateKey()
	const count = 34
	txs := make([]*Tx, count)
	for i := range txs {
		txs[i] = paddedTx(t, sender, uint64(i), MaxBlockTxBytes/2-1024)
	}
	if blockBytes(txs) <= store.MaxRecordSize {
		t.Fatalf("the selection totals %d bytes, want more than store.MaxRecordSize", blockBytes(txs))
	}
	if _, err := submitAll(net, txs); err != nil {
		t.Fatal(err)
	}
	for round := range count / 2 {
		clk.Advance(time.Second)
		block, err := net.SealNext()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(block.Txs) != 2 || blockBytes(block.Txs) > MaxBlockTxBytes {
			t.Fatalf("round %d: block carries %d txs in %d bytes, want 2 within %d",
				round, len(block.Txs), blockBytes(block.Txs), MaxBlockTxBytes)
		}
	}
	for i, n := range nodes {
		if n.Height() != count/2 || n.CommittedNonce(sender.Address()) != count || n.PendingTxs() != 0 {
			t.Fatalf("node %d: height %d, committed nonce %d, pending %d; want %d, %d, 0",
				i, n.Height(), n.CommittedNonce(sender.Address()), n.PendingTxs(), count/2, count)
		}
	}
}
