package contract

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/simclock"
)

// kvContract is a small contract exercising the runtime surface: storage,
// events, reverts, and queries.
type kvContract struct{}

type kvArgs struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// AppendArgs encodes kvArgs as the test contract reads them: JSON.
func (a kvArgs) AppendArgs(dst []byte) []byte {
	b, err := json.Marshal(a)
	if err != nil {
		panic(err)
	}
	return append(dst, b...)
}

func (kvContract) Call(env *Env, method string, args []byte) ([]byte, error) {
	var a kvArgs
	if len(args) > 0 {
		if err := json.Unmarshal(args, &a); err != nil {
			return nil, Revertf("bad args: %v", err)
		}
	}
	switch method {
	case "put":
		if a.Key == "" {
			return nil, Revertf("empty key")
		}
		if err := env.Set(append(env.Key(), "kv/"+a.Key...), []byte(a.Value)); err != nil {
			return nil, err
		}
		if err := env.Emit("Put", a.Key, []byte(a.Value)); err != nil {
			return nil, err
		}
		return json.Marshal(map[string]string{"stored": a.Key})
	case "del":
		if err := env.Delete(append(env.Key(), "kv/"+a.Key...)); err != nil {
			return nil, err
		}
		return nil, nil
	case "putThenFail":
		if err := env.Set(append(env.Key(), "kv/"+a.Key...), []byte(a.Value)); err != nil {
			return nil, err
		}
		return nil, Revertf("changed my mind")
	case "whoami":
		return json.Marshal(map[string]string{
			"sender":   env.Sender.String(),
			"contract": env.Contract.String(),
		})
	case "blocktime":
		return json.Marshal(env.Block.Time.UnixNano())
	default:
		return nil, Revertf("unknown method %q", method)
	}
}

func (kvContract) Read(env *ReadEnv, method string, args []byte) ([]byte, error) {
	var a kvArgs
	if len(args) > 0 {
		if err := json.Unmarshal(args, &a); err != nil {
			return nil, err
		}
	}
	switch method {
	case "get":
		v, ok, err := env.Get(append(env.Key(), "kv/"+a.Key...))
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, errors.New("not found")
		}
		return v, nil
	case "keys":
		keys, err := env.Keys(append(env.Key(), "kv/"...))
		if err != nil {
			return nil, err
		}
		return json.Marshal(keys)
	default:
		return nil, errors.New("unknown query")
	}
}

var testGenesis = time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC)

func newKVNode(t *testing.T) (*chain.Node, *cryptoutil.KeyPair, cryptoutil.Address, *simclock.Sim) {
	t.Helper()
	rt := NewRuntime()
	addr := rt.Deploy("kv", kvContract{})
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(testGenesis)
	node, err := chain.NewNode(chain.Config{
		Key:         key,
		Authorities: []cryptoutil.Address{key.Address()},
		Executor:    rt,
		Clock:       clk,
		GenesisTime: testGenesis,
	})
	if err != nil {
		t.Fatal(err)
	}
	return node, key, addr, clk
}

func submitAndSeal(t *testing.T, node *chain.Node, key *cryptoutil.KeyPair, contractAddr cryptoutil.Address, method string, args any) *chain.Receipt {
	t.Helper()
	tx, err := chain.NewTx(key, node.NonceFor(key.Address()), contractAddr, method, args, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	v := node.Submit([]*chain.Tx{tx})[0]
	if v.Err != nil {
		t.Fatal(v.Err)
	}
	hash := v.Hash
	if _, err := node.Seal(); err != nil {
		t.Fatal(err)
	}
	r := node.Receipt(hash)
	if r == nil {
		t.Fatal("no receipt after sealing")
	}
	return r
}

func TestAddressForDeterministic(t *testing.T) {
	a1 := AddressFor("kv")
	a2 := AddressFor("kv")
	b := AddressFor("other")
	if a1 != a2 {
		t.Fatal("AddressFor not deterministic")
	}
	if a1 == b {
		t.Fatal("different names collided")
	}
	if a1.IsZero() {
		t.Fatal("zero address derived")
	}
}

func TestRuntimeCallStoresAndEmits(t *testing.T) {
	node, key, addr, _ := newKVNode(t)
	r := submitAndSeal(t, node, key, addr, "put", kvArgs{Key: "a", Value: "1"})
	if !r.Succeeded() {
		t.Fatalf("receipt: %+v", r)
	}
	if string(r.Return) != `{"stored":"a"}` {
		t.Fatalf("Return = %s", r.Return)
	}
	if len(r.Events) != 1 || r.Events[0].Topic != "Put" || r.Events[0].Contract != addr {
		t.Fatalf("events = %+v", r.Events)
	}
	out, err := node.Query(addr, "get", []byte(`{"key":"a"}`))
	if err != nil || string(out) != "1" {
		t.Fatalf("query = %q, %v", out, err)
	}
}

func TestRuntimeRevertRollsBackAndReportsReason(t *testing.T) {
	node, key, addr, _ := newKVNode(t)
	r := submitAndSeal(t, node, key, addr, "putThenFail", kvArgs{Key: "x", Value: "v"})
	if r.Succeeded() {
		t.Fatal("putThenFail should revert")
	}
	if !strings.Contains(r.Err, "changed my mind") {
		t.Fatalf("Err = %q", r.Err)
	}
	if _, err := node.Query(addr, "get", []byte(`{"key":"x"}`)); err == nil {
		t.Fatal("reverted write visible")
	}
	if r.GasUsed == 0 {
		t.Fatal("reverted tx must still consume gas")
	}
}

func TestRuntimeUnknownContractAndMethod(t *testing.T) {
	node, key, _, _ := newKVNode(t)
	bogus := AddressFor("missing")
	r := submitAndSeal(t, node, key, bogus, "put", kvArgs{Key: "a"})
	if r.Succeeded() || !strings.Contains(r.Err, "no contract") {
		t.Fatalf("receipt = %+v", r)
	}
	if _, err := node.Query(bogus, "get", nil); err == nil {
		t.Fatal("query to missing contract should fail")
	}

	addr := AddressFor("kv")
	r2 := submitAndSeal(t, node, key, addr, "nosuch", kvArgs{})
	if r2.Succeeded() || !errorsIsRevert(r2.Err) {
		t.Fatalf("receipt = %+v", r2)
	}
}

func errorsIsRevert(msg string) bool { return strings.Contains(msg, "reverted") }

func TestRuntimeEnvIdentityAndBlockContext(t *testing.T) {
	node, key, addr, clk := newKVNode(t)
	clk.Advance(time.Hour)
	r := submitAndSeal(t, node, key, addr, "whoami", nil)
	var ids map[string]string
	if err := json.Unmarshal(r.Return, &ids); err != nil {
		t.Fatal(err)
	}
	if ids["sender"] != key.Address().String() || ids["contract"] != addr.String() {
		t.Fatalf("identities = %v", ids)
	}

	clk.Advance(time.Hour)
	r2 := submitAndSeal(t, node, key, addr, "blocktime", nil)
	var nanos int64
	if err := json.Unmarshal(r2.Return, &nanos); err != nil {
		t.Fatal(err)
	}
	if got := time.Unix(0, nanos).UTC(); !got.Equal(testGenesis.Add(2 * time.Hour)) {
		t.Fatalf("block time = %s, want %s", got, testGenesis.Add(2*time.Hour))
	}
}

func TestRuntimeOutOfGas(t *testing.T) {
	node, key, addr, _ := newKVNode(t)
	big := strings.Repeat("x", 4096)
	tx, err := chain.NewTx(key, 0, addr, "put", kvArgs{Key: "big", Value: big}, chain.GasTxBase+100)
	if err != nil {
		t.Fatal(err)
	}
	v := node.Submit([]*chain.Tx{tx})[0]
	if v.Err != nil {
		t.Fatal(v.Err)
	}
	hash := v.Hash
	if _, err := node.Seal(); err != nil {
		t.Fatal(err)
	}
	r := node.Receipt(hash)
	if r.Succeeded() {
		t.Fatal("underfunded tx should revert")
	}
	if !strings.Contains(r.Err, "out of gas") {
		t.Fatalf("Err = %q", r.Err)
	}
	if r.GasUsed != tx.GasLimit {
		t.Fatalf("GasUsed = %d, want full limit %d", r.GasUsed, tx.GasLimit)
	}
}

func TestRuntimeStorageIsolationBetweenContracts(t *testing.T) {
	rt := NewRuntime()
	a := rt.Deploy("kv-a", kvContract{})
	b := rt.Deploy("kv-b", kvContract{})
	key := cryptoutil.MustGenerateKey()
	node, err := chain.NewNode(chain.Config{
		Key:         key,
		Authorities: []cryptoutil.Address{key.Address()},
		Executor:    rt,
		GenesisTime: testGenesis,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := submitAndSeal(t, node, key, a, "put", kvArgs{Key: "shared", Value: "from-a"})
	if !r.Succeeded() {
		t.Fatalf("receipt: %+v", r)
	}
	if _, err := node.Query(b, "get", []byte(`{"key":"shared"}`)); err == nil {
		t.Fatal("contract B can read contract A's storage")
	}
	out, err := node.Query(a, "get", []byte(`{"key":"shared"}`))
	if err != nil || string(out) != "from-a" {
		t.Fatalf("query A = %q, %v", out, err)
	}
}

func TestEnvKeysListsSorted(t *testing.T) {
	node, key, addr, _ := newKVNode(t)
	for _, k := range []string{"zeta", "alpha", "mid"} {
		r := submitAndSeal(t, node, key, addr, "put", kvArgs{Key: k, Value: "v"})
		if !r.Succeeded() {
			t.Fatalf("put %s: %+v", k, r)
		}
	}
	out, err := node.Query(addr, "keys", nil)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	if err := json.Unmarshal(out, &keys); err != nil {
		t.Fatal(err)
	}
	// Keys are contract-local (the contract's own "kv/" prefix remains).
	want := []string{"kv/alpha", "kv/mid", "kv/zeta"}
	if len(keys) != 3 || keys[0] != want[0] || keys[1] != want[1] || keys[2] != want[2] {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
}

func TestEnvDelete(t *testing.T) {
	node, key, addr, _ := newKVNode(t)
	submitAndSeal(t, node, key, addr, "put", kvArgs{Key: "gone", Value: "v"})
	r := submitAndSeal(t, node, key, addr, "del", kvArgs{Key: "gone"})
	if !r.Succeeded() {
		t.Fatalf("del: %+v", r)
	}
	if _, err := node.Query(addr, "get", []byte(`{"key":"gone"}`)); err == nil {
		t.Fatal("deleted key still readable")
	}
}

func TestRevertfWrapsErrRevert(t *testing.T) {
	err := Revertf("reason %d", 42)
	if !errors.Is(err, ErrRevert) {
		t.Fatal("Revertf should wrap ErrRevert")
	}
	if !strings.Contains(err.Error(), "reason 42") {
		t.Fatalf("message = %q", err.Error())
	}
}

// TestRuntimeConcurrentExecution pins the re-entrancy audit for the
// chain's parallel scheduler: many goroutines driving ExecuteTx (and
// queries) through one Runtime concurrently, each against its own state,
// must neither race (-race) nor cross-contaminate results — the runtime
// shares nothing between calls except the registry maps, which are
// read-only after Deploy.
func TestRuntimeConcurrentExecution(t *testing.T) {
	rt := NewRuntime()
	addr := rt.Deploy("kv", kvContract{})
	bctx := chain.BlockContext{Number: 1, Time: testGenesis}

	const workers = 8
	const txsPerWorker = 50
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := cryptoutil.MustGenerateKey()
			st := chain.NewOverlay(chain.NewState())
			for i := range txsPerWorker {
				k := fmt.Sprintf("w%d-%d", w, i)
				tx, err := chain.NewTx(key, uint64(i), addr, "put", kvArgs{Key: k, Value: k}, 500_000)
				if err != nil {
					t.Error(err)
					return
				}
				r := rt.ExecuteTx(st, tx, bctx)
				if r.Status != chain.StatusOK {
					t.Errorf("worker %d tx %d reverted: %s", w, i, r.Err)
					return
				}
				if len(r.Events) != 1 || r.Events[0].Key != k {
					t.Errorf("worker %d tx %d events cross-contaminated: %+v", w, i, r.Events)
					return
				}
				got, err := rt.Query(st, addr, "get", mustJSON(t, kvArgs{Key: k}), bctx)
				if err != nil || string(got) != k {
					t.Errorf("worker %d query %q = %q, %v", w, k, got, err)
					return
				}
			}
			// Every write this worker made, and only those, landed in its
			// own state.
			if n := len(st.Keys(addr.String() + "/kv/")); n != txsPerWorker {
				t.Errorf("worker %d state holds %d keys, want %d", w, n, txsPerWorker)
			}
		}()
	}
	wg.Wait()
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// nopContract returns at once: what a call to it allocates is the
// runtime's own cost.
type nopContract struct{}

func (nopContract) Call(*Env, string, []byte) ([]byte, error)     { return nil, nil }
func (nopContract) Read(*ReadEnv, string, []byte) ([]byte, error) { return nil, nil }

// TestExecuteTxAllocations: the runtime takes a call's Env, gas meter
// included, from its pool, so a call that does nothing allocates only
// the receipt it hands out. (A fresh Env and *GasMeter per call made it
// three.)
func TestExecuteTxAllocations(t *testing.T) {
	rt := NewRuntime()
	tx := &chain.Tx{Contract: rt.Deploy("nop", nopContract{}), Method: "m", GasLimit: chain.GasTxBase}
	st := chain.NewOverlay(chain.NewState())
	bctx := chain.BlockContext{Number: 1, Time: testGenesis}
	var r *chain.Receipt
	if got := testing.AllocsPerRun(100, func() { r = rt.ExecuteTx(st, tx, bctx) }); got != 1 {
		t.Errorf("ExecuteTx: %.0f allocations, want 1 (the receipt)", got)
	}
	if !r.Succeeded() || r.GasUsed != chain.GasTxBase {
		t.Fatalf("receipt = %+v", r)
	}
}

// TestQueryAllocations: a query's ReadEnv comes from the pool too, so a
// query that does nothing allocates nothing.
func TestQueryAllocations(t *testing.T) {
	rt := NewRuntime()
	addr := rt.Deploy("nop", nopContract{})
	st := chain.NewState()
	bctx := chain.BlockContext{Number: 1, Time: testGenesis}
	if got := testing.AllocsPerRun(100, func() { _, _ = rt.Query(st, addr, "m", nil, bctx) }); got != 0 {
		t.Errorf("Query: %.0f allocations, want 0", got)
	}
}

// probeContract reports what its environment holds when a call starts,
// and leaves behind what a call can: a long key in the buffer, an event,
// gas charged.
type probeContract struct{}

// envSeen is what probe finds in its environment.
type envSeen struct {
	Sender    cryptoutil.Address
	SenderKey []byte
	Number    uint64
	Time      time.Time
	Events    int
	GasUsed   uint64
	Key       string
}

func (probeContract) Call(env *Env, method string, args []byte) ([]byte, error) {
	switch method {
	case "emit":
		if err := env.Emit("Emitted", env.Sender.String(), fmt.Appendf(nil, "block %d", env.Block.Number)); err != nil {
			return nil, err
		}
		return fmt.Appendf(nil, "%s at %d", env.Sender, env.Block.Number), nil
	case "dirty":
		if err := env.Set(append(env.Key(), "dirty/with/a/key/longer/than/the/namespace"...), []byte("v")); err != nil {
			return nil, err
		}
		if err := env.Emit("Dirty", "k", []byte("payload")); err != nil {
			return nil, err
		}
		return nil, Revertf("dirty")
	case "probe":
		return json.Marshal(envSeen{
			Sender: env.Sender, SenderKey: env.SenderKey, Number: env.Block.Number, Time: env.Block.Time,
			Events: len(env.events), GasUsed: env.meter.Used(), Key: string(env.Key()),
		})
	default:
		return nil, Revertf("unknown method %q", method)
	}
}

func (probeContract) Read(env *ReadEnv, method string, args []byte) ([]byte, error) {
	if method == "dirty" {
		_, _, err := env.Get(append(env.Key(), "dirty/with/a/key/longer/than/the/namespace"...))
		return nil, err
	}
	return json.Marshal(envSeen{Number: env.Block.Number, Time: env.Block.Time, Key: string(env.Key())})
}

func mustTx(t *testing.T, key *cryptoutil.KeyPair, nonce uint64, addr cryptoutil.Address, method string) *chain.Tx {
	t.Helper()
	tx, err := chain.NewTx(key, nonce, addr, method, nil, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// TestPooledEnvCarriesNothingOver: an environment goes back to the pool
// zeroed, so a call after one that emitted, charged gas and reverted sees
// its own sender, key and block, no events, gas counted from zero and the
// bare namespace in its key buffer; and what the earlier calls handed out
// stays as it was.
func TestPooledEnvCarriesNothingOver(t *testing.T) {
	rt := NewRuntime()
	addr := rt.Deploy("probe", probeContract{})
	st := chain.NewOverlay(chain.NewState())
	alice, bob := cryptoutil.MustGenerateKey(), cryptoutil.MustGenerateKey()
	b1 := chain.BlockContext{Number: 1, Time: testGenesis}
	b2 := chain.BlockContext{Number: 2, Time: testGenesis.Add(time.Minute)}

	first := rt.ExecuteTx(st, mustTx(t, alice, 0, addr, "emit"), b1)
	if !first.Succeeded() || len(first.Events) != 1 {
		t.Fatalf("emit: %+v", first)
	}
	handedOut := fmt.Sprintf("%+v %q", first.Events, first.Return)
	if r := rt.ExecuteTx(st, mustTx(t, alice, 1, addr, "dirty"), b1); r.Succeeded() || r.GasUsed <= chain.GasTxBase {
		t.Fatalf("dirty: %+v", r)
	}

	tx := mustTx(t, bob, 0, addr, "probe")
	second := rt.ExecuteTx(st, tx, b2)
	if !second.Succeeded() || second.Events != nil {
		t.Fatalf("probe: %+v", second)
	}
	var seen envSeen
	if err := json.Unmarshal(second.Return, &seen); err != nil {
		t.Fatal(err)
	}
	want := envSeen{
		Sender: bob.Address(), SenderKey: tx.SenderKey, Number: b2.Number, Time: b2.Time,
		GasUsed: chain.GasTxBase + uint64(len(tx.Args))*chain.GasPerArgByte, Key: addr.String() + "/",
	}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("second call saw %+v, want %+v", seen, want)
	}
	if second.GasUsed != want.GasUsed {
		t.Errorf("second call used %d gas, want %d", second.GasUsed, want.GasUsed)
	}
	if got := fmt.Sprintf("%+v %q", first.Events, first.Return); got != handedOut {
		t.Errorf("first receipt changed under later calls:\n got %s\nwant %s", got, handedOut)
	}

	if _, err := rt.Query(st, addr, "dirty", nil, b1); err != nil {
		t.Fatal(err)
	}
	out, err := rt.Query(st, addr, "probe", nil, b2)
	if err != nil {
		t.Fatal(err)
	}
	var read envSeen
	if err := json.Unmarshal(out, &read); err != nil {
		t.Fatal(err)
	}
	if wantRead := (envSeen{Number: b2.Number, Time: b2.Time, Key: addr.String() + "/"}); !reflect.DeepEqual(read, wantRead) {
		t.Errorf("query saw %+v, want %+v", read, wantRead)
	}
}

// TestPooledEnvConcurrentMatchesSerial: goroutines calling through one
// Runtime at once each get an environment of their own, so every receipt
// is the one the same call gets when the calls run one after another.
func TestPooledEnvConcurrentMatchesSerial(t *testing.T) {
	const workers, calls = 8, 200
	rt := NewRuntime()
	addr := rt.Deploy("probe", probeContract{})
	methods := []string{"emit", "dirty", "probe"}
	txs := make([][]*chain.Tx, workers)
	for w := range txs {
		key := cryptoutil.MustGenerateKey()
		for i := range calls {
			txs[w] = append(txs[w], mustTx(t, key, uint64(i), addr, methods[(w+i)%len(methods)]))
		}
	}
	run := func(w int) []*chain.Receipt {
		st := chain.NewOverlay(chain.NewState())
		out := make([]*chain.Receipt, calls)
		for i, tx := range txs[w] {
			out[i] = rt.ExecuteTx(st, tx, chain.BlockContext{Number: uint64(w*calls + i), Time: testGenesis.Add(time.Duration(i) * time.Second)})
		}
		return out
	}
	serial := make([][]*chain.Receipt, workers)
	for w := range workers {
		serial[w] = run(w)
	}
	concurrent := make([][]*chain.Receipt, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[w] = run(w)
		}()
	}
	wg.Wait()
	for w := range workers {
		for i := range calls {
			if !reflect.DeepEqual(concurrent[w][i], serial[w][i]) {
				t.Fatalf("worker %d call %d (%s): concurrent receipt %+v, serial %+v", w, i, txs[w][i].Method, concurrent[w][i], serial[w][i])
			}
		}
	}
}
