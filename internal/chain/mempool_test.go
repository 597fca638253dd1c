package chain

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// testPool builds a bare mempool with roomy defaults for direct
// structure tests.
func testPool() *mempool { return newMempool(64, 32) }

func TestMempoolIndexedOperations(t *testing.T) {
	mp := testPool()
	key := cryptoutil.MustGenerateKey()
	contract := testContractAddr()

	txs := make([]*Tx, 5)
	for i := range txs {
		txs[i] = mustTx(t, key, uint64(i), contract, "k", "v")
		if _, err := mp.Add(txs[i].Hash(), txs[i]); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
	}
	if mp.Len() != 5 {
		t.Fatalf("Len = %d, want 5", mp.Len())
	}
	if mp.PendingFrom(key.Address()) != 5 {
		t.Fatalf("PendingFrom = %d, want 5", mp.PendingFrom(key.Address()))
	}
	if !mp.Contains(txs[2].Hash()) {
		t.Fatal("Contains missed a queued tx")
	}

	// Removing a mid-queue entry truncates it and its successors (the
	// rollback path withdraws contiguous just-appended runs), so the
	// sender's nonce sequence never gaps.
	if !mp.Remove(txs[2].Hash()) {
		t.Fatal("Remove missed a queued tx")
	}
	if mp.Remove(txs[2].Hash()) {
		t.Fatal("second Remove reported present")
	}
	if mp.Contains(txs[3].Hash()) || mp.Contains(txs[4].Hash()) {
		t.Fatal("suffix removal left successors indexed")
	}
	if mp.PendingFrom(key.Address()) != 2 {
		t.Fatalf("PendingFrom after remove = %d, want 2", mp.PendingFrom(key.Address()))
	}
	got, hashes := mp.Take(10, MaxBlockTxBytes, nil)
	want := []uint64{0, 1}
	if len(got) != len(want) || len(hashes) != len(want) {
		t.Fatalf("Take returned %d txs and %d hashes, want %d", len(got), len(hashes), len(want))
	}
	for i, tx := range got {
		if hashes[i] != tx.Hash() {
			t.Fatalf("Take hash %d does not match its transaction", i)
		}
		if tx.Nonce != want[i] {
			t.Fatalf("Take[%d].Nonce = %d, want %d (nonce order broken)", i, tx.Nonce, want[i])
		}
	}
	// Take only selects; the pool empties when the block settles.
	if mp.Len() != 2 || !mp.Contains(hashes[0]) {
		t.Fatalf("Take dequeued: len=%d, want 2 still queued", mp.Len())
	}
	mp.Settle(key.Address(), 2)
	if mp.Len() != 0 || mp.PendingFrom(key.Address()) != 0 || mp.Contains(hashes[0]) {
		t.Fatalf("pool not empty after Settle: len=%d pending=%d", mp.Len(), mp.PendingFrom(key.Address()))
	}
}

func TestMempoolTakeRespectsLimit(t *testing.T) {
	mp := testPool()
	key := cryptoutil.MustGenerateKey()
	contract := testContractAddr()
	for i := range 8 {
		tx := mustTx(t, key, uint64(i), contract, "k", "v")
		if _, err := mp.Add(tx.Hash(), tx); err != nil {
			t.Fatal(err)
		}
	}
	first, _ := mp.Take(3, MaxBlockTxBytes, nil)
	if len(first) != 3 || first[0].Nonce != 0 || first[2].Nonce != 2 {
		t.Fatalf("Take(3) = %d txs starting at nonce %d", len(first), first[0].Nonce)
	}
	if mp.Len() != 8 {
		t.Fatalf("Len after Take = %d, want 8 (Take only selects)", mp.Len())
	}
	mp.Settle(key.Address(), 3)
	if mp.Len() != 5 {
		t.Fatalf("Len after settling the partial Take = %d, want 5", mp.Len())
	}
	if next, _ := mp.Take(1, MaxBlockTxBytes, map[cryptoutil.Address]uint64{key.Address(): 3}); len(next) != 1 || next[0].Nonce != 3 {
		t.Fatalf("Take after Settle = %v, want nonce 3", next)
	}
}

// TestMempoolPriceOrderedTake verifies highest-price-first selection
// with per-sender nonce order preserved: a sender's cheap follow-up
// rides behind its expensive head, never before it.
func TestMempoolPriceOrderedTake(t *testing.T) {
	mp := testPool()
	contract := testContractAddr()
	rich := cryptoutil.MustGenerateKey()
	poor := cryptoutil.MustGenerateKey()

	// rich bids 500 then 5; poor bids 100, 100.
	seq := []*Tx{
		mustTxPriced(t, rich, 0, contract, "a", "1", 500),
		mustTxPriced(t, rich, 1, contract, "b", "2", 5),
		mustTxPriced(t, poor, 0, contract, "c", "3", 100),
		mustTxPriced(t, poor, 1, contract, "d", "4", 100),
	}
	for _, tx := range seq {
		if _, err := mp.Add(tx.Hash(), tx); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := mp.Take(10, MaxBlockTxBytes, nil)
	if len(got) != 4 {
		t.Fatalf("Take returned %d txs, want 4", len(got))
	}
	if got[0].GasPrice != 500 {
		t.Fatalf("first selected price = %d, want 500", got[0].GasPrice)
	}
	// poor's pair outbids rich's nonce-1 follow-up.
	if got[1].GasPrice != 100 || got[2].GasPrice != 100 {
		t.Fatalf("mid selection prices = %d,%d, want 100,100", got[1].GasPrice, got[2].GasPrice)
	}
	if got[3].GasPrice != 5 {
		t.Fatalf("last selected price = %d, want 5", got[3].GasPrice)
	}
	// Per-sender nonce monotonicity.
	last := map[cryptoutil.Address]uint64{}
	for _, tx := range got {
		if prev, ok := last[tx.From]; ok && tx.Nonce != prev+1 {
			t.Fatalf("sender %s nonce order broken: %d after %d", tx.From, tx.Nonce, prev)
		}
		last[tx.From] = tx.Nonce
	}
}

// TestMempoolTakeDeterministicAcrossInsertionOrders pins the strict
// total order of selection: the same transaction set taken from pools
// filled in different interleavings yields the identical sequence, which
// is what keeps every replica sealing bit-identical blocks.
func TestMempoolTakeDeterministicAcrossInsertionOrders(t *testing.T) {
	contract := testContractAddr()
	keys := make([]*cryptoutil.KeyPair, 6)
	for i := range keys {
		keys[i] = cryptoutil.MustGenerateKey()
	}
	var txs []*Tx
	for i, key := range keys {
		for n := range 3 {
			// Deliberate price collisions across senders exercise the
			// hash tie-break.
			txs = append(txs, mustTxPriced(t, key, uint64(n), contract, "k", "v", uint64(10*(i%3))+1))
		}
	}

	fill := func(order []int) []*Tx {
		mp := testPool()
		for _, idx := range order {
			if _, err := mp.Add(txs[idx].Hash(), txs[idx]); err != nil {
				t.Fatal(err)
			}
		}
		got, _ := mp.Take(len(txs), MaxBlockTxBytes, nil)
		return got
	}

	// Order A: sender-major. Order B: nonce-major (round-robin).
	var a, b []int
	for i := range keys {
		for n := range 3 {
			a = append(a, i*3+n)
		}
	}
	for n := range 3 {
		for i := range keys {
			b = append(b, i*3+n)
		}
	}
	ta, tb := fill(a), fill(b)
	if len(ta) != len(txs) || len(tb) != len(txs) {
		t.Fatalf("full Take returned %d/%d txs, want %d", len(ta), len(tb), len(txs))
	}
	for i := range ta {
		if ta[i].Hash() != tb[i].Hash() {
			t.Fatalf("selection diverged at %d: %s vs %s", i, ta[i].Hash(), tb[i].Hash())
		}
	}
}

// TestMempoolEvictionUnwindsIndexes is the regression test for the
// eviction bookkeeping: evicting a tail must decrement the victim's
// pending count and drop its hash index entry, and the victim must be
// readmittable afterwards.
func TestMempoolEvictionUnwindsIndexes(t *testing.T) {
	mp := newMempool(4, 4)
	contract := testContractAddr()
	cheap := cryptoutil.MustGenerateKey()
	rich := cryptoutil.MustGenerateKey()

	cheapTxs := make([]*Tx, 4)
	for i := range cheapTxs {
		cheapTxs[i] = mustTxPriced(t, cheap, uint64(i), contract, "k", "v", 10)
		if _, err := mp.Add(cheapTxs[i].Hash(), cheapTxs[i]); err != nil {
			t.Fatal(err)
		}
	}

	// A pricier arrival at a full pool evicts cheap's tail (nonce 3).
	bid := mustTxPriced(t, rich, 0, contract, "r", "1", 200)
	evicted, err := mp.Add(bid.Hash(), bid)
	if err != nil {
		t.Fatalf("price-beating Add: %v", err)
	}
	if evicted == nil || evicted.tx.Nonce != 3 || evicted.tx.From != cheap.Address() {
		t.Fatalf("evicted = %+v, want cheap's nonce-3 tail", evicted)
	}
	if mp.Len() != 4 {
		t.Fatalf("Len after eviction = %d, want 4 (bounded)", mp.Len())
	}
	if mp.PendingFrom(cheap.Address()) != 3 {
		t.Fatalf("PendingFrom(cheap) = %d, want 3", mp.PendingFrom(cheap.Address()))
	}
	if mp.Contains(cheapTxs[3].Hash()) {
		t.Fatal("evicted tx still hash-indexed")
	}

	// Seal and settle one slot, then readmit the evicted transaction: its
	// nonce is cheap's expected tail again, so admission must accept it
	// cleanly.
	if got, _ := mp.Take(1, MaxBlockTxBytes, nil); len(got) != 1 || got[0].Hash() != bid.Hash() {
		t.Fatalf("Take(1) = %v, want rich's bid first", got)
	}
	mp.Settle(rich.Address(), 1)
	if _, err := mp.Add(cheapTxs[3].Hash(), cheapTxs[3]); err != nil {
		t.Fatalf("readmission after eviction: %v", err)
	}
	if mp.PendingFrom(cheap.Address()) != 4 {
		t.Fatalf("PendingFrom after readmission = %d, want 4", mp.PendingFrom(cheap.Address()))
	}
	if !mp.Contains(cheapTxs[3].Hash()) {
		t.Fatal("readmitted tx not hash-indexed")
	}
}

// TestMempoolFullRejectsUnderpriced verifies the backpressure contract
// at a full pool: bids at or below the cheapest tail are refused with
// ErrUnderpriced (an ErrPoolFull), and a sender cannot evict its own
// tail to make room for itself.
func TestMempoolFullRejectsUnderpriced(t *testing.T) {
	mp := newMempool(3, 8)
	contract := testContractAddr()
	a := cryptoutil.MustGenerateKey()
	b := cryptoutil.MustGenerateKey()

	for i := range 3 {
		tx := mustTxPriced(t, a, uint64(i), contract, "k", "v", 50)
		if _, err := mp.Add(tx.Hash(), tx); err != nil {
			t.Fatal(err)
		}
	}
	equal := mustTxPriced(t, b, 0, contract, "x", "1", 50)
	if _, err := mp.Add(equal.Hash(), equal); !errors.Is(err, ErrUnderpriced) || !errors.Is(err, ErrPoolFull) {
		t.Fatalf("equal-price add err = %v, want ErrUnderpriced (ErrPoolFull)", err)
	}
	if mp.Contains(equal.Hash()) || mp.Len() != 3 {
		t.Fatal("rejected tx leaked into the pool")
	}
	// Own-tail eviction refused even at a higher price: it would gap a's
	// queue.
	own := mustTxPriced(t, a, 3, contract, "y", "2", 500)
	if _, err := mp.Add(own.Hash(), own); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("own-tail eviction err = %v, want ErrPoolFull", err)
	}
	if mp.PendingFrom(a.Address()) != 3 {
		t.Fatalf("PendingFrom(a) = %d, want 3", mp.PendingFrom(a.Address()))
	}
}

// TestSubmitBatchDedup is the regression test for mempool dedup under
// batch submission: resubmitting queued transactions (alone or mixed into
// a larger batch) must not create duplicates, and the duplicate's hash is
// still reported.
func TestSubmitBatchDedup(t *testing.T) {
	node, key, clk := newTestNode(t)
	reg := obs.NewRegistry()
	node.metrics = NewMetrics(reg)
	contract := testContractAddr()

	batch := make([]*Tx, 4)
	for i := range batch {
		batch[i] = mustTx(t, key, uint64(i), contract, "k", "v")
	}
	hashes, err := submitAll(node, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(hashes) != 4 {
		t.Fatalf("Submit returned %d hashes, want 4", len(hashes))
	}
	if node.PendingTxs() != 4 {
		t.Fatalf("PendingTxs = %d, want 4", node.PendingTxs())
	}

	// Resubmit the same batch plus one genuinely new transaction.
	extended := append(append([]*Tx(nil), batch...), mustTx(t, key, 4, contract, "k", "v"))
	hashes, err = submitAll(node, extended)
	if err != nil {
		t.Fatal(err)
	}
	if len(hashes) != 5 {
		t.Fatalf("resubmit returned %d hashes, want 5", len(hashes))
	}
	if node.PendingTxs() != 5 {
		t.Fatalf("PendingTxs after resubmit = %d, want 5 (dedup broken)", node.PendingTxs())
	}

	// One duplicate rule: a single-tx resubmission is the same idempotent
	// success, hash returned, and is counted.
	h, err := submit1(node, batch[0])
	if err != nil {
		t.Fatalf("duplicate Submit err = %v, want nil", err)
	}
	if h != batch[0].Hash() {
		t.Fatal("duplicate Submit did not return the queued hash")
	}
	if node.PendingTxs() != 5 {
		t.Fatalf("PendingTxs after duplicate = %d, want 5", node.PendingTxs())
	}
	if got := reg.Counter("chain_mempool_duplicate_total", "").Value(); got != 5 {
		t.Fatalf("chain_mempool_duplicate_total = %d, want 5 (4 in the batch, 1 alone)", got)
	}

	// The sealed block must contain each transaction exactly once.
	clk.Advance(time.Second)
	block, err := node.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != 5 {
		t.Fatalf("sealed %d txs, want 5", len(block.Txs))
	}
	seen := make(map[string]bool)
	for _, tx := range block.Txs {
		h := tx.Hash().String()
		if seen[h] {
			t.Fatalf("tx %s sealed twice", h)
		}
		seen[h] = true
	}
}

// TestSubmitBatchAtomicOnBadNonce: the all-or-nothing form withdraws a
// partially admitted batch from every node — whether a transaction was
// refused everywhere (a nonce gap behind an admitted head) or by one node
// only (its own queue holds a rival for the slot) — while the verdict form
// keeps the admitted part and answers per transaction.
func TestSubmitBatchAtomicOnBadNonce(t *testing.T) {
	contract := testContractAddr()
	cases := []struct {
		name string
		// batch builds the submission; it may first skew one node's mempool.
		batch    func(t *testing.T, nodes []*Node, key *cryptoutil.KeyPair) []*Tx
		want     error
		verdicts []bool // Admitted() per tx from the verdict form
		residue  []int  // per-node PendingTxs the batch must leave behind
	}{
		{
			name: "gap behind an admitted head",
			batch: func(t *testing.T, _ []*Node, key *cryptoutil.KeyPair) []*Tx {
				return []*Tx{
					mustTx(t, key, 0, contract, "a", "1"),
					mustTx(t, key, 3, contract, "b", "2"), // gap: want 1
				}
			},
			want:     ErrBadNonce,
			verdicts: []bool{true, false},
			residue:  []int{0, 0, 0},
		},
		{
			name: "one node holds a rival for the head's slot",
			batch: func(t *testing.T, nodes []*Node, key *cryptoutil.KeyPair) []*Tx {
				if _, err := submit1(nodes[2], mustTx(t, key, 0, contract, "rival", "0")); err != nil {
					t.Fatal(err)
				}
				return []*Tx{
					mustTx(t, key, 0, contract, "a", "1"), // nodes 0, 1 take it; node 2: underpriced replacement
					mustTx(t, key, 1, contract, "b", "2"), // continues every node's queue, but its predecessor is refused
				}
			},
			want:     ErrReplaceUnderpriced,
			verdicts: []bool{false, false},
			residue:  []int{0, 0, 1},
		},
	}
	for _, tc := range cases {
		for _, form := range []string{"all-or-nothing", "verdicts"} {
			t.Run(tc.name+"/"+form, func(t *testing.T) {
				nodes, net, _, _ := newTestCluster(t, 3)
				batch := tc.batch(t, nodes, cryptoutil.MustGenerateKey())
				kept := 0
				if form == "all-or-nothing" {
					if _, err := net.SubmitAllOrNothing(batch); !errors.Is(err, tc.want) {
						t.Fatalf("err = %v, want %v", err, tc.want)
					}
				} else {
					out := net.Submit(batch)
					for i, v := range out {
						if v.Admitted() != tc.verdicts[i] {
							t.Fatalf("tx %d: verdict %v, want admitted=%v", i, v.Err, tc.verdicts[i])
						}
						if v.Admitted() {
							kept++
						}
					}
					if err := firstError(out[:2]); !errors.Is(err, tc.want) {
						t.Fatalf("lowest-indexed error = %v, want %v", err, tc.want)
					}
				}
				for i, n := range nodes {
					if got := n.PendingTxs(); got != tc.residue[i]+kept {
						t.Fatalf("node %d queues %d txs, want %d", i, got, tc.residue[i]+kept)
					}
				}
			})
		}
	}
}

// TestSubmitBatchRejectsBadSignature verifies the concurrent verification
// pool pins a signature failure on the tampered transaction: the ones
// ahead of it are admitted, its same-sender successors are refused for
// their nonce, and the all-or-nothing form queues nothing at all.
func TestSubmitBatchRejectsBadSignature(t *testing.T) {
	nodes, net, keys, _ := newTestCluster(t, 1)
	node, key := nodes[0], keys[0]
	contract := testContractAddr()

	batch := make([]*Tx, 16)
	for i := range batch {
		batch[i] = mustTx(t, key, uint64(i), contract, "k", "v")
	}
	batch[11].Args = []byte(`{"key":"tampered"}`)
	if _, err := net.SubmitAllOrNothing(batch); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
	if node.PendingTxs() != 0 {
		t.Fatalf("PendingTxs = %d, want 0", node.PendingTxs())
	}
	for i, v := range node.Submit(batch) {
		switch {
		case i < 11 && v.Err != nil:
			t.Fatalf("tx %d ahead of the tampered one refused: %v", i, v.Err)
		case i == 11 && !errors.Is(v.Err, ErrBadSignature):
			t.Fatalf("tampered tx: err = %v, want ErrBadSignature", v.Err)
		case i > 11 && !errors.Is(v.Err, ErrBadNonce):
			t.Fatalf("tx %d behind the tampered one: err = %v, want ErrBadNonce", i, v.Err)
		}
	}
	if node.PendingTxs() != 11 {
		t.Fatalf("PendingTxs = %d, want the 11 ahead of the tampered one", node.PendingTxs())
	}
}

// TestVerifyTxSignaturesDeterministicError checks that the parallel
// verifier reports the lowest-indexed failure regardless of scheduling.
func TestVerifyTxSignaturesDeterministicError(t *testing.T) {
	key := cryptoutil.MustGenerateKey()
	contract := testContractAddr()
	txs := make([]*Tx, 64)
	for i := range txs {
		txs[i] = mustTx(t, key, uint64(i), contract, "k", "v")
	}
	txs[5].GasLimit = 0 // fails with ErrGasLimitZero
	txs[40].Method = "" // fails with ErrNoMethod
	for range 8 {
		if err := firstError(verify(txs)); !errors.Is(err, ErrGasLimitZero) {
			t.Fatalf("err = %v, want the lowest-indexed failure (ErrGasLimitZero)", err)
		}
	}
	withVerifyPool(t, 1)
	if err := firstError(verify(txs)); !errors.Is(err, ErrGasLimitZero) {
		t.Fatalf("sequential err = %v, want ErrGasLimitZero", err)
	}
}

// TestReplaceByFee covers the replacement happy path through the node:
// a ≥bump% pricier same-nonce resubmission supersedes the queued
// transaction without changing the pending count, and the sealed block
// carries the replacement only.
func TestReplaceByFee(t *testing.T) {
	node, key, clk := newPoolNode(t, 16, 8)
	contract := testContractAddr()

	orig := mustTxPriced(t, key, 0, contract, "k", "old", 100)
	if _, err := submit1(node, orig); err != nil {
		t.Fatal(err)
	}
	bump := mustTxPriced(t, key, 0, contract, "k", "new", 110) // exactly +10%
	if _, err := submit1(node, bump); err != nil {
		t.Fatalf("replacement at the bump threshold: %v", err)
	}
	if node.PendingTxs() != 1 {
		t.Fatalf("PendingTxs after replace = %d, want 1", node.PendingTxs())
	}
	node.mpMu.Lock()
	hasOld, hasNew := node.mempool.Contains(orig.Hash()), node.mempool.Contains(bump.Hash())
	node.mpMu.Unlock()
	if hasOld || !hasNew {
		t.Fatalf("pool after replace: old=%v new=%v, want false/true", hasOld, hasNew)
	}

	clk.Advance(time.Second)
	block, err := node.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != 1 || block.Txs[0].Hash() != bump.Hash() {
		t.Fatal("sealed block does not carry the replacement exclusively")
	}
	if r := node.Receipt(bump.Hash()); r == nil || !r.Succeeded() {
		t.Fatal("replacement receipt missing or reverted")
	}
}

// TestReplaceByFeeEdges pins the replacement policy edges: an equal
// price and a below-threshold bump are both refused (pool unchanged),
// and a same-nonce transaction from a different sender is not a
// replacement at all — both queue independently.
func TestReplaceByFeeEdges(t *testing.T) {
	node, key, _ := newPoolNode(t, 16, 8)
	contract := testContractAddr()

	orig := mustTxPriced(t, key, 0, contract, "k", "old", 100)
	if _, err := submit1(node, orig); err != nil {
		t.Fatal(err)
	}
	equal := mustTxPriced(t, key, 0, contract, "k", "eq", 100)
	if _, err := submit1(node, equal); !errors.Is(err, ErrReplaceUnderpriced) {
		t.Fatalf("equal-price replace err = %v, want ErrReplaceUnderpriced", err)
	}
	low := mustTxPriced(t, key, 0, contract, "k", "low", 109) // below +10%
	if _, err := submit1(node, low); !errors.Is(err, ErrReplaceUnderpriced) {
		t.Fatalf("below-bump replace err = %v, want ErrReplaceUnderpriced", err)
	}
	node.mpMu.Lock()
	hasOrig := node.mempool.Contains(orig.Hash())
	node.mpMu.Unlock()
	if !hasOrig || node.PendingTxs() != 1 {
		t.Fatal("failed replacements disturbed the queued original")
	}

	// Same nonce, different sender: two independent queues.
	other := cryptoutil.MustGenerateKey()
	cross := mustTxPriced(t, other, 0, contract, "x", "1", 1)
	if _, err := submit1(node, cross); err != nil {
		t.Fatalf("cross-sender same-nonce submit: %v", err)
	}
	if node.PendingTxs() != 2 {
		t.Fatalf("PendingTxs = %d, want 2 (cross-sender tx must not replace)", node.PendingTxs())
	}
}

// TestSenderQuota verifies per-sender pending quotas at the node
// surface: the quota-th+1 transaction is refused with ErrQuotaExceeded
// while other senders keep submitting.
func TestSenderQuota(t *testing.T) {
	node, key, _ := newPoolNode(t, 64, 4)
	contract := testContractAddr()

	for i := range 4 {
		if _, err := submit1(node, mustTx(t, key, uint64(i), contract, "k", "v")); err != nil {
			t.Fatal(err)
		}
	}
	over := mustTx(t, key, 4, contract, "k", "v")
	if _, err := submit1(node, over); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota err = %v, want ErrQuotaExceeded", err)
	}
	other := cryptoutil.MustGenerateKey()
	if _, err := submit1(node, mustTx(t, other, 0, contract, "x", "1")); err != nil {
		t.Fatalf("other sender blocked by someone else's quota: %v", err)
	}
}

// TestConcurrentSubmitBatchQuota hammers one node with concurrent
// batches from many senders against a small pool and quota, then checks
// the admission bounds and index consistency survived (run with -race).
func TestConcurrentSubmitBatchQuota(t *testing.T) {
	const (
		capacity = 32
		quota    = 4
		senders  = 8
		perTx    = 8 // submitted per sender, twice the quota
	)
	node, _, clk := newPoolNode(t, capacity, quota)
	contract := testContractAddr()

	keys := make([]*cryptoutil.KeyPair, senders)
	batches := make([][]*Tx, senders)
	for i := range keys {
		keys[i] = cryptoutil.MustGenerateKey()
		for n := range perTx {
			batches[i] = append(batches[i], mustTxPriced(t, keys[i], uint64(n), contract, "k", "v", uint64(1+i)))
		}
	}

	var wg sync.WaitGroup
	for i := range senders {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Per-tx submission: quota rejections must not disturb the
			// transactions admitted before the quota hit.
			for _, tx := range batches[i] {
				if _, err := submit1(node, tx); err != nil {
					return
				}
			}
		}(i)
	}
	wg.Wait()

	if got := node.PendingTxs(); got > capacity {
		t.Fatalf("PendingTxs = %d, exceeds capacity %d", got, capacity)
	}
	node.mpMu.Lock()
	for i, key := range keys {
		if p := node.mempool.PendingFrom(key.Address()); p > quota {
			node.mpMu.Unlock()
			t.Fatalf("sender %d pending = %d, exceeds quota %d", i, p, quota)
		}
	}
	node.mpMu.Unlock()

	// The pool must drain cleanly: every admitted tx seals exactly once.
	total := 0
	for range 4 {
		clk.Advance(time.Second)
		block, err := node.Seal()
		if err != nil {
			t.Fatal(err)
		}
		total += len(block.Txs)
		if node.PendingTxs() == 0 {
			break
		}
	}
	if node.PendingTxs() != 0 {
		t.Fatalf("pool did not drain: %d left", node.PendingTxs())
	}
	if total == 0 {
		t.Fatal("nothing sealed despite concurrent submissions")
	}
}

// TestStaleNonceIsNotAdmitted: a nonce below the sender's committed nonce
// is an idempotent rebroadcast only when the node committed that very
// transaction; a different transaction reusing the nonce is a replay and
// is refused with ErrTxStale on every submission surface — it must never
// be reported admitted, because no receipt will ever exist for it.
func TestStaleNonceIsNotAdmitted(t *testing.T) {
	surfaces := []struct {
		name   string
		submit func(nodes []*Node, net *Network, tx *Tx) (cryptoutil.Hash, error)
	}{
		{"Node.Submit", func(nodes []*Node, _ *Network, tx *Tx) (cryptoutil.Hash, error) {
			return submit1(nodes[0], tx)
		}},
		{"Network.Submit", func(_ []*Node, net *Network, tx *Tx) (cryptoutil.Hash, error) {
			return submit1(net, tx)
		}},
		{"Network.SubmitAllOrNothing", func(_ []*Node, net *Network, tx *Tx) (cryptoutil.Hash, error) {
			hashes, err := net.SubmitAllOrNothing([]*Tx{tx})
			if err != nil {
				return cryptoutil.Hash{}, err
			}
			return hashes[0], nil
		}},
	}
	for _, s := range surfaces {
		t.Run(s.name, func(t *testing.T) {
			nodes, net, _, clk := newTestCluster(t, 3)
			sender := cryptoutil.MustGenerateKey()
			committed := mustTx(t, sender, 0, testContractAddr(), "k", "v")
			if _, err := submit1(net, committed); err != nil {
				t.Fatal(err)
			}
			clk.Advance(time.Second)
			if _, err := net.SealNext(); err != nil {
				t.Fatal(err)
			}

			replay := mustTx(t, sender, 0, testContractAddr(), "k", "another value")
			if _, err := s.submit(nodes, net, replay); !errors.Is(err, ErrTxStale) {
				t.Fatalf("a new tx on a committed nonce: err = %v, want ErrTxStale", err)
			}
			h, err := s.submit(nodes, net, committed)
			if err != nil || h != committed.Hash() {
				t.Fatalf("rebroadcast of the committed tx: hash %s, err %v; want its hash and nil", h.Short(), err)
			}
			for i, n := range nodes {
				if got := n.PendingTxs(); got != 0 {
					t.Fatalf("node %d queues %d txs, want 0", i, got)
				}
			}
		})
	}
}

// gatedExecutor holds every execution until released, so a test can act
// while a block is in flight: selected from the mempool, but neither
// settled (its transactions still queued, nonces where they were) nor
// indexed (no receipts yet).
type gatedExecutor struct {
	testExecutor
	entered, release chan struct{}
}

func (g gatedExecutor) ExecuteTx(st StateRW, tx *Tx, bctx BlockContext) *Receipt {
	g.entered <- struct{}{}
	<-g.release
	return g.testExecutor.ExecuteTx(st, tx, bctx)
}

// TestStaleNonceRebroadcastDuringSeal: while the block carrying a
// transaction is in flight the transaction is still queued, so admission
// answers at once. A rebroadcast is a duplicate success; a +10 %
// replacement on the in-flight nonce is admitted as replace-by-fee and
// dropped from the pool when the original commits, with no receipt.
func TestStaleNonceRebroadcastDuringSeal(t *testing.T) {
	for _, tc := range []struct {
		name   string
		resend func(t *testing.T, orig *Tx, key *cryptoutil.KeyPair) *Tx
	}{
		{"rebroadcast", func(_ *testing.T, orig *Tx, _ *cryptoutil.KeyPair) *Tx { return orig }},
		{"replacement", func(t *testing.T, orig *Tx, key *cryptoutil.KeyPair) *Tx {
			return mustTxPriced(t, key, 0, testContractAddr(), "k", "new", orig.GasPrice*(100+priceBumpPercent)/100)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key := cryptoutil.MustGenerateKey()
			clk := simclock.NewSim(chainEpoch)
			gate := gatedExecutor{entered: make(chan struct{}), release: make(chan struct{})}
			node, err := NewNode(Config{
				Key: key, Authorities: []cryptoutil.Address{key.Address()},
				Executor: gate, Clock: clk, GenesisTime: chainEpoch, ExecWorkers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			orig := mustTxPriced(t, key, 0, testContractAddr(), "k", "v", 100)
			if _, err := submit1(node, orig); err != nil {
				t.Fatal(err)
			}
			clk.Advance(time.Second)
			sealed := make(chan error, 1)
			go func() {
				_, err := node.Seal()
				sealed <- err
			}()
			<-gate.entered

			tx := tc.resend(t, orig, key)
			if v := node.Submit([]*Tx{tx})[0]; v.Err != nil || v.Hash != tx.Hash() {
				t.Fatalf("verdict during the seal = %s, %v; want the tx hash and nil", v.Hash.Short(), v.Err)
			}
			close(gate.release)
			if err := <-sealed; err != nil {
				t.Fatal(err)
			}
			if node.PendingTxs() != 0 {
				t.Fatalf("PendingTxs after the seal = %d, want 0", node.PendingTxs())
			}
			if node.Receipt(orig.Hash()) == nil {
				t.Fatal("the sealed original has no receipt")
			}
			if tx != orig && node.Receipt(tx.Hash()) != nil {
				t.Fatal("the replacement of a committed nonce has a receipt")
			}
			if got := node.CommittedNonce(key.Address()); got != 1 {
				t.Fatalf("CommittedNonce = %d, want 1", got)
			}
		})
	}
}

// TestInFlightTxsHoldPoolRoom: a block's transactions stay queued until
// it commits, so while it is in flight they count against their
// sender's quota (retryable ErrQuotaExceeded), and at a full pool a
// cheap in-flight tail is the eviction victim. The evicted transaction
// still commits with its block, and the pool settles consistently.
func TestInFlightTxsHoldPoolRoom(t *testing.T) {
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	gate := gatedExecutor{entered: make(chan struct{}), release: make(chan struct{})}
	node, err := NewNode(Config{
		Key: key, Authorities: []cryptoutil.Address{key.Address()},
		Executor: gate, Clock: clk, GenesisTime: chainEpoch, ExecWorkers: 1,
		MempoolCapacity: 2, MaxPendingPerSender: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	alice, bob, carol := cryptoutil.MustGenerateKey(), cryptoutil.MustGenerateKey(), cryptoutil.MustGenerateKey()
	inFlight := mustTxPriced(t, alice, 0, testContractAddr(), "a", "0", 50)
	if _, err := submit1(node, inFlight); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	sealed := make(chan error, 1)
	go func() {
		_, err := node.Seal()
		sealed <- err
	}()
	<-gate.entered

	next := mustTxPriced(t, alice, 1, testContractAddr(), "a", "1", 50)
	if _, err := submit1(node, next); !errors.Is(err, ErrQuotaExceeded) || !IsBackpressure(err) {
		t.Fatalf("alice's next nonce during the seal: err = %v, want retryable ErrQuotaExceeded", err)
	}
	if _, err := submit1(node, mustTxPriced(t, bob, 0, testContractAddr(), "b", "0", 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := submit1(node, mustTxPriced(t, carol, 0, testContractAddr(), "c", "0", 200)); err != nil {
		t.Fatalf("carol at a full pool: %v, want alice's in-flight tail evicted", err)
	}
	node.mpMu.Lock()
	evicted := !node.mempool.Contains(inFlight.Hash())
	node.mpMu.Unlock()
	if !evicted {
		t.Fatal("carol was admitted, but alice's in-flight tail is still queued")
	}
	close(gate.release)
	if err := <-sealed; err != nil {
		t.Fatal(err)
	}
	if node.Receipt(inFlight.Hash()) == nil || node.CommittedNonce(alice.Address()) != 1 {
		t.Fatal("the evicted in-flight tx did not commit with its block")
	}
	if node.PendingTxs() != 2 || node.NonceFor(alice.Address()) != 1 {
		t.Fatalf("after the commit: PendingTxs %d, alice's next nonce %d; want bob and carol queued, 1",
			node.PendingTxs(), node.NonceFor(alice.Address()))
	}
}
