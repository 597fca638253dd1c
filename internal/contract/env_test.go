package contract

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
)

// rwContract exercises Env.Get / Env.Keys inside a
// state-mutating call (read-modify-write counter).
type rwContract struct{}

func (rwContract) Call(env *Env, method string, args []byte) ([]byte, error) {
	switch method {
	case "incr":
		var n int64
		if raw, ok, err := env.Get(append(env.Key(), "counter"...)); err != nil {
			return nil, err
		} else if ok {
			if err := json.Unmarshal(raw, &n); err != nil {
				return nil, Revertf("corrupt counter: %v", err)
			}
		}
		n++
		raw, _ := json.Marshal(n)
		if err := env.Set(append(env.Key(), "counter"...), raw); err != nil {
			return nil, err
		}
		return json.Marshal(map[string]any{"value": n})
	case "fanout":
		// Write several keys, then list them back through Env.Keys.
		for _, k := range []string{"x/1", "x/2", "x/3"} {
			if err := env.Set(append(env.Key(), k...), []byte("v")); err != nil {
				return nil, err
			}
		}
		keys, err := env.Keys(append(env.Key(), "x/"...))
		if err != nil {
			return nil, err
		}
		return json.Marshal(keys)
	default:
		return nil, Revertf("unknown method %q", method)
	}
}

func (rwContract) Read(env *ReadEnv, method string, args []byte) ([]byte, error) {
	return nil, Revertf("no queries")
}

func TestEnvReadModifyWrite(t *testing.T) {
	rt := NewRuntime()
	addr := rt.Deploy("rw", rwContract{})
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
	for want := int64(1); want <= 3; want++ {
		r := submitAndSeal(t, node, key, addr, "incr", nil)
		if !r.Succeeded() {
			t.Fatalf("incr %d: %+v", want, r)
		}
		var out struct {
			Value int64 `json:"value"`
		}
		if err := json.Unmarshal(r.Return, &out); err != nil {
			t.Fatal(err)
		}
		if out.Value != want {
			t.Fatalf("counter = %d, want %d", out.Value, want)
		}
	}
}

func TestEnvKeysInsideCall(t *testing.T) {
	rt := NewRuntime()
	addr := rt.Deploy("rw", rwContract{})
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
	r := submitAndSeal(t, node, key, addr, "fanout", nil)
	if !r.Succeeded() {
		t.Fatalf("fanout: %+v", r)
	}
	var keys []string
	if err := json.Unmarshal(r.Return, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || !strings.HasPrefix(keys[0], "x/") {
		t.Fatalf("keys = %v", keys)
	}
}

// keySink is a StateRW that only records the key it is asked for last.
type keySink struct {
	chain.StateRW
	last []byte
}

func (s *keySink) Get(key []byte) ([]byte, bool) {
	s.last = append(s.last[:0], key...)
	return nil, false
}
func (s *keySink) Set(key string, _ []byte) { s.last = append(s.last[:0], key...) }
func (s *keySink) Delete(key string)        { s.last = append(s.last[:0], key...) }

// TestEnvStorageKeyIsOneAllocation: a storage key is built by appending
// its local part to the namespace Key hands out, in a buffer the Env
// owns, so a read allocates nothing for its key and a write or a delete
// allocates exactly once: the string the state stores. (Concatenating
// the local key onto the prefix made it one more.)
func TestEnvStorageKeyIsOneAllocation(t *testing.T) {
	rt := NewRuntime()
	addr := rt.Deploy("rw", rwContract{})
	sink := &keySink{last: make([]byte, 0, 128)}
	env := &Env{Contract: addr, state: sink, meter: chain.NewGasMeter(1 << 40)}
	env.keys.init(rt.contracts[addr].prefix)
	renv := &ReadEnv{Contract: addr, state: sink}
	renv.keys.init(rt.contracts[addr].prefix)
	const local = "pod/https://alice.example/profile#me"
	for _, c := range []struct {
		name   string
		access func()
		want   float64
	}{
		{"Env.Get", func() { env.Get(append(env.Key(), local...)) }, 0},
		{"ReadEnv.Get", func() { renv.Get(append(renv.Key(), local...)) }, 0},
		{"Env.Set", func() { env.Set(append(env.Key(), local...), nil) }, 1},
		{"Env.Delete", func() { env.Delete(append(env.Key(), local...)) }, 1},
	} {
		if got := testing.AllocsPerRun(100, c.access); got != c.want {
			t.Errorf("%s: %.0f allocations per call, key built included; want %.0f", c.name, got, c.want)
		}
		if want := addr.String() + "/" + local; string(sink.last) != want {
			t.Errorf("%s used key %q, want %q", c.name, sink.last, want)
		}
	}
}

// TestEnvRefusesForeignKeys: every access checks that its key starts with
// the contract's namespace, so a key built anywhere but on Key — bare, or
// under another contract's namespace — is refused before it reaches the
// state, and reverts the transaction that tried.
func TestEnvRefusesForeignKeys(t *testing.T) {
	rt := NewRuntime()
	addr := rt.Deploy("rw", rwContract{})
	other := rt.Deploy("other", rwContract{})
	sink := &keySink{}
	env := &Env{Contract: addr, state: sink, meter: chain.NewGasMeter(1 << 40)}
	env.keys.init(rt.contracts[addr].prefix)
	renv := &ReadEnv{Contract: addr, state: sink}
	renv.keys.init(rt.contracts[addr].prefix)
	for _, key := range []string{"", "counter", other.String() + "/counter", addr.String() + "counter", addr.String()[:10]} {
		k := []byte(key)
		_, _, getErr := env.Get(k)
		_, _, readErr := renv.Get(k)
		_, keysErr := env.Keys(k)
		_, readKeysErr := renv.Keys(k)
		for name, err := range map[string]error{
			"Env.Get": getErr, "ReadEnv.Get": readErr, "Env.Keys": keysErr, "ReadEnv.Keys": readKeysErr,
			"Env.Set": env.Set(k, nil), "Env.Delete": env.Delete(k),
		} {
			if !errors.Is(err, ErrForeignKey) {
				t.Errorf("%s(%q) = %v, want ErrForeignKey", name, key, err)
			}
		}
		if sink.last != nil {
			t.Fatalf("key %q reached the state as %q", key, sink.last)
		}
	}
	if used := env.meter.Used(); used != 0 {
		t.Fatalf("refused accesses charged %d gas", used)
	}
}

// TestEmitKeepsPayload: an event carries the payload slice it was
// emitted with, so emitting allocates nothing for it; only the event
// list's growth could, and that is warmed up here.
func TestEmitKeepsPayload(t *testing.T) {
	env := &Env{meter: chain.NewGasMeter(1 << 40)}
	payload := []byte("a record the contract just stored")
	if err := env.Emit("Topic", "key", payload); err != nil {
		t.Fatal(err)
	}
	if &env.events[0].Data[0] != &payload[0] {
		t.Fatal("Emit copied the payload")
	}
	if n := testing.AllocsPerRun(100, func() {
		env.events = env.events[:0]
		_ = env.Emit("Topic", "key", payload)
	}); n != 0 {
		t.Fatalf("Emit: %.0f allocations, want 0", n)
	}
}
