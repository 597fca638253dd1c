package chain

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
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

// TestEventSubscription: a committed event reaches its handler before the
// commit returns, and a cancelled handler — cancel is idempotent — is not
// called again.
func TestEventSubscription(t *testing.T) {
	node, key, clk := newTestNode(t)
	contract := testContractAddr()

	var got []Event
	cancel := node.SubscribeEvents(EventFilter{Topic: "Set"}, func(ev Event) { got = append(got, ev) })
	defer cancel()

	seal := func(nonce uint64, k string) {
		t.Helper()
		if _, err := submit1(node, mustTx(t, key, nonce, contract, k, "x")); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
		if _, err := node.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	seal(0, "watched")
	if len(got) != 1 || got[0].Topic != "Set" || got[0].Key != "watched" || got[0].BlockNumber != 1 {
		t.Fatalf("events after the seal returned = %+v", got)
	}

	cancel()
	cancel() // idempotent
	seal(1, "unwatched")
	if len(got) != 1 {
		t.Fatalf("cancelled handler called again: %+v", got)
	}
}

// TestSubscribeEventsFilters: each handler receives exactly the events
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
	got := make([]int, len(filters))
	for i, f := range filters {
		defer node.SubscribeEvents(f.filter, func(Event) { got[i]++ })()
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
	// Seal hands a block's events to the handlers before it returns.
	for i, f := range filters {
		if got[i] != f.want {
			t.Errorf("%s: %d events delivered, want %d", f.name, got[i], f.want)
		}
	}
}

// TestEventDeliveryCancelWaitsForHandler: cancel returns only once a
// running handler has returned, and the handler never runs after it — so
// the caller may free what the handler uses as soon as cancel is back.
func TestEventDeliveryCancelWaitsForHandler(t *testing.T) {
	node, key, clk := newTestNode(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	var running, calls atomic.Int32
	cancel := node.SubscribeEvents(EventFilter{Topic: "Set"}, func(Event) {
		running.Store(1)
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		running.Store(0)
	})
	if _, err := submit1(node, mustTx(t, key, 0, testContractAddr(), "k", "v")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	sealed := make(chan error, 1)
	go func() {
		_, err := node.Seal()
		sealed <- err
	}()
	<-entered

	cancelled := make(chan struct{})
	go func() {
		cancel()
		close(cancelled)
	}()
	select {
	case <-cancelled:
		t.Fatal("cancel returned while the handler was running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-cancelled
	if running.Load() != 0 {
		t.Fatal("handler still running after cancel returned")
	}
	if err := <-sealed; err != nil {
		t.Fatal(err)
	}

	if _, err := submit1(node, mustTx(t, key, 1, testContractAddr(), "k", "w")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if _, err := node.Seal(); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("handler called %d times, want once: it ran after cancel", n)
	}
}

// TestEventDeliveryInCommitOrder: every event of a block larger than any
// buffer reaches every handler, in commit order, and the handlers of one
// event run in registration order.
func TestEventDeliveryInCommitOrder(t *testing.T) {
	node, key, clk := newTestNode(t)
	const txs = 300
	var trail []string
	for _, name := range []string{"first", "second"} {
		defer node.SubscribeEvents(EventFilter{Topic: "Set"}, func(ev Event) {
			trail = append(trail, name+":"+ev.Key)
		})()
	}
	batch := make([]*Tx, txs)
	for i := range batch {
		batch[i] = mustTx(t, key, uint64(i), testContractAddr(), strconv.Itoa(i), "v")
	}
	for _, v := range node.Submit(batch) {
		if v.Err != nil {
			t.Fatal(v.Err)
		}
	}
	clk.Advance(time.Second)
	block, err := node.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != txs {
		t.Fatalf("block holds %d txs, want %d", len(block.Txs), txs)
	}
	if len(trail) != 2*txs {
		t.Fatalf("%d deliveries, want %d", len(trail), 2*txs)
	}
	for i := range txs {
		if trail[2*i] != "first:"+strconv.Itoa(i) || trail[2*i+1] != "second:"+strconv.Itoa(i) {
			t.Fatalf("deliveries %d and %d = %s, %s", 2*i, 2*i+1, trail[2*i], trail[2*i+1])
		}
	}
}

// TestEventDeliveryAllocations pins what handing a committed block's
// events to a subscriber allocates: nothing. The feed reads them off the
// block's receipts, so committing the block again — with nothing to fold
// and no log — allocates nothing at all. At c850a0a, which first copied
// every receipt's events into a fresh slice, it made 1.
func TestEventDeliveryAllocations(t *testing.T) {
	const want = 0
	node, key, clk := newTestNode(t)
	delivered := 0
	defer node.SubscribeEvents(EventFilter{Topic: "Set"}, func(Event) { delivered++ })()
	if _, err := submit1(node, mustTx(t, key, 0, testContractAddr(), "k", "v")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	block, err := node.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("%d events delivered by the seal, want 1", delivered)
	}
	node.sealMu.Lock()
	defer node.sealMu.Unlock()
	got := testing.AllocsPerRun(100, func() {
		if err := node.commitBlock(block, nil, &node.scratch); err != nil {
			t.Fatal(err)
		}
		node.mu.Lock()
		node.blocks = node.blocks[:len(node.blocks)-1]
		node.mu.Unlock()
	})
	if delivered != 1+101 {
		t.Fatalf("%d events delivered, want one per commit", delivered)
	}
	if got != want {
		t.Fatalf("committing a block of one event to one subscriber: %.0f allocations, want %d", got, want)
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

// TestMaxTxsPerBlock: one block carries at most maxTxsPerBlock
// transactions; the rest stay queued for the next.
func TestMaxTxsPerBlock(t *testing.T) {
	key := cryptoutil.MustGenerateKey()
	node, err := NewNode(Config{
		Key:                 key,
		Authorities:         []cryptoutil.Address{key.Address()},
		Executor:            testExecutor{},
		GenesisTime:         chainEpoch,
		MaxPendingPerSender: maxTxsPerBlock + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	contract := testContractAddr()
	batch := make([]*Tx, maxTxsPerBlock+1)
	for i := range batch {
		batch[i] = mustTx(t, key, uint64(i), contract, fmt.Sprintf("k%d", i), "v")
	}
	if _, err := submitAll(node, batch); err != nil {
		t.Fatal(err)
	}
	b1, err := node.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if len(b1.Txs) != maxTxsPerBlock {
		t.Fatalf("block 1 txs = %d, want %d", len(b1.Txs), maxTxsPerBlock)
	}
	if node.PendingTxs() != 1 {
		t.Fatalf("pending = %d, want 1", node.PendingTxs())
	}
}
