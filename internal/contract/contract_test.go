package contract

import (
	"encoding/json"
	"errors"
	"fmt"
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
