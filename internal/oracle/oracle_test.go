package oracle

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/cryptoutil"
	"repro/internal/simclock"
)

var t0 = time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC)

// emitContract stores nothing; it just emits one event per call.
type emitContract struct{}

func (emitContract) Call(env *contract.Env, method string, args []byte) ([]byte, error) {
	if method != "emit" {
		return nil, contract.Revertf("unknown method")
	}
	// The argument is the event's key, as it is.
	if err := env.Emit("Ping", string(args), []byte(`"pong"`)); err != nil {
		return nil, err
	}
	return nil, nil
}

func (emitContract) Read(env *contract.ReadEnv, method string, args []byte) ([]byte, error) {
	if method != "echo" {
		return nil, contract.Revertf("unknown query")
	}
	return args, nil
}

func newOracleNode(t *testing.T) (*chain.Node, *cryptoutil.KeyPair, cryptoutil.Address) {
	t.Helper()
	rt := contract.NewRuntime()
	addr := rt.Deploy("emitter", emitContract{})
	key := cryptoutil.MustGenerateKey()
	node, err := chain.NewNode(chain.Config{
		Key:         key,
		Authorities: []cryptoutil.Address{key.Address()},
		Executor:    rt,
		Clock:       simclock.NewSim(t0),
		GenesisTime: t0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return node, key, addr
}

func emitTx(t *testing.T, node *chain.Node, key *cryptoutil.KeyPair, addr cryptoutil.Address, k string) {
	t.Helper()
	tx, err := chain.NewTx(key, node.NonceFor(key.Address()), addr, "emit", []byte(k), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if v := node.Submit([]*chain.Tx{tx})[0]; v.Err != nil {
		t.Fatal(v.Err)
	}
	if _, err := node.Seal(); err != nil {
		t.Fatal(err)
	}
}

func TestPushInRelaysAndCounts(t *testing.T) {
	node, key, addr := newOracleNode(t)
	var metrics Metrics
	pushIn := NewPushIn(node, &metrics)

	tx, err := chain.NewTx(key, pushIn.NonceFor(key.Address()), addr, "emit", []byte("a"), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	v := pushIn.Submit([]*chain.Tx{tx})[0]
	if v.Err != nil {
		t.Fatal(v.Err)
	}
	hash := v.Hash
	if _, err := node.Seal(); err != nil {
		t.Fatal(err)
	}
	receipt, err := pushIn.WaitForReceipt(context.Background(), hash)
	if err != nil || !receipt.Succeeded() {
		t.Fatalf("receipt = %+v, %v", receipt, err)
	}
	if metrics.In.Load() != 1 {
		t.Fatalf("In = %d, want 1", metrics.In.Load())
	}
	// Paired query counts as out-bound.
	if _, err := pushIn.Query(addr, "echo", []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if metrics.Out.Load() != 1 {
		t.Fatalf("Out = %d, want 1", metrics.Out.Load())
	}
}

func TestPullOutQuery(t *testing.T) {
	node, _, addr := newOracleNode(t)
	var metrics Metrics
	pullOut := NewPullOut(node, &metrics)
	out, err := pullOut.Query(addr, "echo", []byte(`{"v":"x"}`))
	if err != nil || string(out) != `{"v":"x"}` {
		t.Fatalf("query = %s, %v", out, err)
	}
	if metrics.Out.Load() != 1 {
		t.Fatalf("Out = %d", metrics.Out.Load())
	}
}

func TestPushOutDeliversFilteredEventsInOrder(t *testing.T) {
	node, key, addr := newOracleNode(t)
	var metrics Metrics
	pushOut := NewPushOut(node, &metrics)
	defer pushOut.Close()

	var mu sync.Mutex
	var got []string
	done := make(chan struct{}, 8)
	pushOut.On(chain.EventFilter{Contract: addr, Topic: "Ping"}, func(ev chain.Event) {
		mu.Lock()
		got = append(got, ev.Key)
		mu.Unlock()
		done <- struct{}{}
	})

	for _, k := range []string{"a", "b", "c"} {
		emitTx(t, node, key, addr, k)
	}
	for range 3 {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("handler not called")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("events = %v", got)
	}
	if metrics.Out.Load() != 3 {
		t.Fatalf("Out = %d, want 3", metrics.Out.Load())
	}
}

// TestPushOutDeliversEveryEventOfABurst: one block whose matching events
// outnumber any per-registration buffer reaches a handler that is slow on
// its first call, every event of it, in commit order. A lost
// PolicyUpdated would leave a TEE enforcing a stale policy.
func TestPushOutDeliversEveryEventOfABurst(t *testing.T) {
	node, key, addr := newOracleNode(t)
	pushOut := NewPushOut(node, nil)
	defer pushOut.Close()

	const burst = 300
	var mu sync.Mutex
	var got []string
	pushOut.On(chain.EventFilter{Contract: addr, Topic: "Ping"}, func(ev chain.Event) {
		mu.Lock()
		first := len(got) == 0
		got = append(got, ev.Key)
		mu.Unlock()
		if first {
			time.Sleep(100 * time.Millisecond)
		}
	})
	txs := make([]*chain.Tx, burst)
	for i := range txs {
		tx, err := chain.NewTx(key, uint64(i), addr, "emit", []byte(strconv.Itoa(i)), 200_000)
		if err != nil {
			t.Fatal(err)
		}
		txs[i] = tx
	}
	for _, v := range node.Submit(txs) {
		if v.Err != nil {
			t.Fatal(v.Err)
		}
	}
	block, err := node.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != burst {
		t.Fatalf("block holds %d txs, want one block of %d", len(block.Txs), burst)
	}
	pushOut.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(got) != burst {
		t.Fatalf("%d of %d events reached the handler", len(got), burst)
	}
	for i, k := range got {
		if k != strconv.Itoa(i) {
			t.Fatalf("event %d has key %s: not in commit order", i, k)
		}
	}
}

func TestPushOutUnsubscribe(t *testing.T) {
	node, key, addr := newOracleNode(t)
	pushOut := NewPushOut(node, nil)
	defer pushOut.Close()

	calls := make(chan string, 8)
	cancel := pushOut.On(chain.EventFilter{Topic: "Ping"}, func(ev chain.Event) {
		calls <- ev.Key
	})
	emitTx(t, node, key, addr, "first")
	select {
	case k := <-calls:
		if k != "first" {
			t.Fatalf("got %s", k)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery before cancel")
	}
	cancel()
	emitTx(t, node, key, addr, "second")
	select {
	case k := <-calls:
		t.Fatalf("delivery after cancel: %s", k)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestPushOutCloseThenOnIsNoop(t *testing.T) {
	node, key, addr := newOracleNode(t)
	pushOut := NewPushOut(node, nil)
	pushOut.Close()
	called := make(chan struct{}, 1)
	cancel := pushOut.On(chain.EventFilter{}, func(chain.Event) { called <- struct{}{} })
	cancel()
	emitTx(t, node, key, addr, "x")
	select {
	case <-called:
		t.Fatal("handler on closed oracle was called")
	case <-time.After(50 * time.Millisecond):
	}
}

// TestPushOutCloseWaitsForHandlers: Close returns only once a handler the
// committing goroutine is running has returned.
func TestPushOutCloseWaitsForHandlers(t *testing.T) {
	node, key, addr := newOracleNode(t)
	pushOut := NewPushOut(node, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	var finished atomic.Bool
	var once sync.Once
	pushOut.On(chain.EventFilter{Topic: "Ping"}, func(chain.Event) {
		once.Do(func() {
			close(started)
			<-release
			finished.Store(true)
		})
	})
	tx, err := chain.NewTx(key, 0, addr, "emit", []byte("x"), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if v := node.Submit([]*chain.Tx{tx})[0]; v.Err != nil {
		t.Fatal(v.Err)
	}
	sealed := make(chan error, 1)
	go func() {
		_, err := node.Seal()
		sealed <- err
	}()
	<-started
	closed := make(chan struct{})
	go func() {
		pushOut.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was running")
	case <-time.After(30 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
		if !finished.Load() {
			t.Fatal("Close returned before the handler did")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung")
	}
	if err := <-sealed; err != nil {
		t.Fatal(err)
	}
}

// TestPushOutCancelForgetsSubscription: a caller that registers per wait
// (podmanager.WaitForRoundClosure does, once per monitoring round) must
// leave nothing behind. Cancel used to close the subscription but keep it
// in the oracle's list for the life of the deployment.
func TestPushOutCancelForgetsSubscription(t *testing.T) {
	node, key, addr := newOracleNode(t)
	pushOut := NewPushOut(node, nil)
	for range 10_000 {
		cancel := pushOut.On(chain.EventFilter{Topic: "Ping"}, func(chain.Event) {})
		cancel()
	}
	pushOut.mu.Lock()
	n := len(pushOut.cancels)
	pushOut.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d cancelled registrations still held", n)
	}

	// A registration that was not cancelled is still Close's to cancel.
	var delivered []string
	pushOut.On(chain.EventFilter{Topic: "Ping"}, func(ev chain.Event) { delivered = append(delivered, ev.Key) })
	emitTx(t, node, key, addr, "live")
	if len(delivered) != 1 {
		t.Fatalf("live registration got %v by the time its block committed", delivered)
	}
	pushOut.Close()
	emitTx(t, node, key, addr, "after-close")
	if len(delivered) != 1 {
		t.Fatalf("delivery after Close: %v", delivered)
	}
}
