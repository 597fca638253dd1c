package chain

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cryptoutil"
)

func TestNewNodeValidation(t *testing.T) {
	key := cryptoutil.MustGenerateKey()
	if _, err := NewNode(Config{Key: key, Executor: testExecutor{}}); !errors.Is(err, ErrNoAuthorities) {
		t.Fatalf("err = %v, want ErrNoAuthorities", err)
	}
	if _, err := NewNode(Config{Authorities: []cryptoutil.Address{key.Address()}, Executor: testExecutor{}}); err == nil {
		t.Fatal("missing key accepted")
	}
	if _, err := NewNode(Config{Key: key, Authorities: []cryptoutil.Address{key.Address()}}); err == nil {
		t.Fatal("missing executor accepted")
	}
}

func TestGenesisBlock(t *testing.T) {
	node, _, _ := newTestNode(t)
	if node.Height() != 0 {
		t.Fatalf("Height = %d, want 0", node.Height())
	}
	genesis := node.Head()
	if genesis.Header.Number != 0 || len(genesis.Txs) != 0 {
		t.Fatal("malformed genesis block")
	}
	if node.BlockByNumber(0) != genesis {
		t.Fatal("BlockByNumber(0) should return genesis")
	}
	if node.BlockByNumber(99) != nil {
		t.Fatal("BlockByNumber out of range should return nil")
	}
}

func TestSubmitAndSeal(t *testing.T) {
	node, key, clk := newTestNode(t)
	contract := testContractAddr()

	tx := mustTx(t, key, 0, contract, "greeting", "hello")
	hash, err := submit1(node, tx)
	if err != nil {
		t.Fatal(err)
	}
	if node.PendingTxs() != 1 {
		t.Fatalf("PendingTxs = %d, want 1", node.PendingTxs())
	}

	clk.Advance(time.Second)
	block, err := node.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if block.Header.Number != 1 || len(block.Txs) != 1 {
		t.Fatalf("unexpected block: number=%d txs=%d", block.Header.Number, len(block.Txs))
	}
	if node.PendingTxs() != 0 {
		t.Fatal("mempool not drained")
	}

	r := node.Receipt(hash)
	if r == nil || !r.Succeeded() {
		t.Fatalf("receipt = %+v", r)
	}
	if r.GasUsed == 0 {
		t.Fatal("gas not charged")
	}
	if len(r.Events) != 1 || r.Events[0].Topic != "Set" {
		t.Fatalf("events = %+v", r.Events)
	}

	// State visible via query.
	out, err := node.Query(contract, "get", []byte(`{"key":"greeting"}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `{"value":"hello"}` {
		t.Fatalf("query = %s", out)
	}
}

func TestSubmitRejectsBadSignatureAndNonce(t *testing.T) {
	node, key, _ := newTestNode(t)
	contract := testContractAddr()

	tx := mustTx(t, key, 0, contract, "k", "v")
	tx.Args = []byte(`{"key":"tampered"}`)
	if _, err := submit1(node, tx); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered tx: err = %v, want ErrBadSignature", err)
	}

	wrongNonce := mustTx(t, key, 5, contract, "k", "v")
	if _, err := submit1(node, wrongNonce); !errors.Is(err, ErrBadNonce) {
		t.Fatalf("wrong nonce: err = %v, want ErrBadNonce", err)
	}

	unsigned := &Tx{Nonce: 0, From: key.Address(), SenderKey: key.PublicBytes(),
		Contract: contract, Method: "set", Args: []byte(`{}`), GasLimit: 1000}
	if _, err := submit1(node, unsigned); err == nil {
		t.Fatal("unsigned tx accepted")
	}

	zeroGas := &Tx{Nonce: 0, From: key.Address(), SenderKey: key.PublicBytes(),
		Contract: contract, Method: "set", Args: []byte(`{}`)}
	if _, err := submit1(node, zeroGas); !errors.Is(err, ErrGasLimitZero) {
		t.Fatalf("zero gas: err = %v, want ErrGasLimitZero", err)
	}
}

func TestNonceSequenceAcrossMempoolAndBlocks(t *testing.T) {
	node, key, clk := newTestNode(t)
	contract := testContractAddr()

	if got := node.NonceFor(key.Address()); got != 0 {
		t.Fatalf("NonceFor = %d, want 0", got)
	}
	if _, err := submit1(node, mustTx(t, key, 0, contract, "a", "1")); err != nil {
		t.Fatal(err)
	}
	if got := node.NonceFor(key.Address()); got != 1 {
		t.Fatalf("NonceFor with pending = %d, want 1", got)
	}
	if _, err := submit1(node, mustTx(t, key, 1, contract, "b", "2")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if _, err := node.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := node.NonceFor(key.Address()); got != 2 {
		t.Fatalf("NonceFor after seal = %d, want 2", got)
	}
	// Replaying nonce 1 must fail.
	if _, err := submit1(node, mustTx(t, key, 1, contract, "c", "3")); !errors.Is(err, ErrBadNonce) {
		t.Fatalf("replay: err = %v, want ErrBadNonce", err)
	}
}

func TestRevertedTxRollsBackState(t *testing.T) {
	node, key, clk := newTestNode(t)
	contract := testContractAddr()

	ok := mustTx(t, key, 0, contract, "keep", "me")
	fail, err := NewTx(key, 1, contract, "fail", []byte(`{}`), 100_000)
	if err != nil {
		t.Fatal(err)
	}
	okAfter := mustTx(t, key, 2, contract, "also", "kept")
	for _, tx := range []*Tx{ok, fail, okAfter} {
		if _, err := submit1(node, tx); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Second)
	block, err := node.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Receipts) != 3 {
		t.Fatalf("receipts = %d, want 3", len(block.Receipts))
	}
	if block.Receipts[1].Status != StatusReverted {
		t.Fatal("middle tx should have reverted")
	}
	if block.Receipts[1].Err == "" {
		t.Fatal("revert reason missing")
	}
	if len(block.Receipts[1].Events) != 0 {
		t.Fatal("reverted tx must not emit events")
	}
	// Both successful writes persist.
	if _, err := node.Query(contract, "get", []byte(`{"key":"keep"}`)); err != nil {
		t.Fatal("first write lost:", err)
	}
	if _, err := node.Query(contract, "get", []byte(`{"key":"also"}`)); err != nil {
		t.Fatal("post-revert write lost:", err)
	}
}

func TestOutOfGasReverts(t *testing.T) {
	node, key, clk := newTestNode(t)
	contract := testContractAddr()
	tx, err := NewTx(key, 0, contract, "burn", burnArgs{Amount: 10_000_000}, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := submit1(node, tx)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if _, err := node.Seal(); err != nil {
		t.Fatal(err)
	}
	r := node.Receipt(hash)
	if r.Status != StatusReverted {
		t.Fatalf("status = %s, want reverted", r.Status)
	}
	if r.GasUsed != 50_000 {
		t.Fatalf("GasUsed = %d, want full limit on out-of-gas", r.GasUsed)
	}
}

func TestWaitForReceipt(t *testing.T) {
	node, key, clk := newTestNode(t)
	contract := testContractAddr()
	tx := mustTx(t, key, 0, contract, "k", "v")
	hash, err := submit1(node, tx)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan *Receipt, 1)
	go func() {
		r, err := node.WaitForReceipt(context.Background(), hash)
		if err != nil {
			t.Error(err)
		}
		done <- r
	}()
	// Give the waiter a moment to register, then seal.
	time.Sleep(10 * time.Millisecond)
	clk.Advance(time.Second)
	if _, err := node.Seal(); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r == nil || !r.Succeeded() {
			t.Fatalf("receipt = %+v", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitForReceipt never returned")
	}

	// Already-included tx resolves immediately.
	r, err := node.WaitForReceipt(context.Background(), hash)
	if err != nil || r == nil {
		t.Fatalf("immediate WaitForReceipt: %v, %v", r, err)
	}

	// Context cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := node.WaitForReceipt(ctx, cryptoutil.HashOf([]byte("absent"))); err == nil {
		t.Fatal("cancelled WaitForReceipt should fail")
	}
}

func TestBlockTimestampsStrictlyIncrease(t *testing.T) {
	node, _, _ := newTestNode(t) // clock never advanced
	for range 3 {
		if _, err := node.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	var prev time.Time
	for i := uint64(0); i <= node.Height(); i++ {
		b := node.BlockByNumber(i)
		if i > 0 && !b.Header.Time.After(prev) {
			t.Fatalf("block %d time %s not after parent %s", i, b.Header.Time, prev)
		}
		prev = b.Header.Time
	}
}

func TestEventSubscription(t *testing.T) {
	node, key, clk := newTestNode(t)
	contract := testContractAddr()

	sub := node.SubscribeEvents(EventFilter{Topic: "Set"}, 8)
	defer sub.Cancel()

	if _, err := submit1(node, mustTx(t, key, 0, contract, "watched", "x")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if _, err := node.Seal(); err != nil {
		t.Fatal(err)
	}

	select {
	case ev := <-sub.C:
		if ev.Topic != "Set" || ev.Key != "watched" || ev.BlockNumber != 1 {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("no event delivered")
	}

	sub.Cancel()
	sub.Cancel() // idempotent
	if _, open := <-sub.C; open {
		t.Fatal("channel should be closed after Cancel")
	}
}

// TestSubscribeEventsFilters: each subscriber receives exactly the events
// its filter matches, by topic, key, first block and contract.
func TestSubscribeEventsFilters(t *testing.T) {
	node, key, clk := newTestNode(t)
	contract := testContractAddr()
	filters := []struct {
		name   string
		filter EventFilter
		want   int
	}{
		{"topic", EventFilter{Topic: "Set"}, 3},
		{"topic and key", EventFilter{Topic: "Set", Key: "b"}, 1},
		{"from block", EventFilter{FromBlock: 3}, 1},
		{"other contract", EventFilter{Contract: cryptoutil.Address{1}}, 0},
	}
	subs := make([]*Subscription, len(filters))
	for i, f := range filters {
		subs[i] = node.SubscribeEvents(f.filter, 8)
	}
	for i, k := range []string{"a", "b", "c"} {
		if _, err := submit1(node, mustTx(t, key, uint64(i), contract, k, "v")); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
		if _, err := node.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	// Seal publishes a block's events before it returns.
	for i, f := range filters {
		subs[i].Cancel()
		got := 0
		for range subs[i].C {
			got++
		}
		if got != f.want {
			t.Errorf("%s: %d events delivered, want %d", f.name, got, f.want)
		}
	}
}

func TestCostLedgerRecordsGas(t *testing.T) {
	node, key, clk := newTestNode(t)
	contract := testContractAddr()
	if _, err := submit1(node, mustTx(t, key, 0, contract, "k", "v")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if _, err := node.Seal(); err != nil {
		t.Fatal(err)
	}
	if node.Costs().TotalSpent() == 0 {
		t.Fatal("cost ledger empty after successful tx")
	}
}

func TestMaxTxsPerBlock(t *testing.T) {
	key := cryptoutil.MustGenerateKey()
	node, err := NewNode(Config{
		Key:            key,
		Authorities:    []cryptoutil.Address{key.Address()},
		Executor:       testExecutor{},
		GenesisTime:    chainEpoch,
		MaxTxsPerBlock: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	contract := testContractAddr()
	for i := range 5 {
		if _, err := submit1(node, mustTx(t, key, uint64(i), contract, string(rune('a'+i)), "v")); err != nil {
			t.Fatal(err)
		}
	}
	b1, err := node.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if len(b1.Txs) != 2 {
		t.Fatalf("block 1 txs = %d, want 2", len(b1.Txs))
	}
	if node.PendingTxs() != 3 {
		t.Fatalf("pending = %d, want 3", node.PendingTxs())
	}
}
