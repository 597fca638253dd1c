package contract

import (
	"encoding/json"
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
		if raw, ok, err := env.Get("counter"); err != nil {
			return nil, err
		} else if ok {
			if err := json.Unmarshal(raw, &n); err != nil {
				return nil, Revertf("corrupt counter: %v", err)
			}
		}
		n++
		raw, _ := json.Marshal(n)
		if err := env.Set("counter", raw); err != nil {
			return nil, err
		}
		return json.Marshal(map[string]any{"value": n})
	case "fanout":
		// Write several keys, then list them back through Env.Keys.
		for _, k := range []string{"x/1", "x/2", "x/3"} {
			if err := env.Set(k, []byte("v")); err != nil {
				return nil, err
			}
		}
		keys, err := env.Keys("x/")
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

// keySink is a StateRW that only records the keys it is asked for.
type keySink struct {
	chain.StateRW
	last string
}

func (s *keySink) Get(key string) ([]byte, bool) { s.last = key; return nil, false }
func (s *keySink) Set(key string, _ []byte)      { s.last = key }
func (s *keySink) Delete(key string)             { s.last = key }

// TestEnvStorageKeyIsOneAllocation: a storage access builds its global
// key by one concatenation onto the prefix the runtime rendered at
// Deploy. (Hex-encoding the contract address per access made it three.)
func TestEnvStorageKeyIsOneAllocation(t *testing.T) {
	rt := NewRuntime()
	addr := rt.Deploy("rw", rwContract{})
	sink := &keySink{}
	env := &Env{Contract: addr, prefix: rt.contracts[addr].prefix, state: sink, meter: chain.NewGasMeter(1 << 40)}
	const local = "pod/https://alice.example/profile#me"
	for name, access := range map[string]func(){
		"Get":    func() { env.Get(local) },
		"Set":    func() { env.Set(local, nil) },
		"Delete": func() { env.Delete(local) },
	} {
		if got := testing.AllocsPerRun(100, access); got > 1 {
			t.Errorf("Env.%s: %.0f allocations per call, want at most 1 (the key)", name, got)
		}
		if want := addr.String() + "/" + local; sink.last != want {
			t.Errorf("Env.%s used key %q, want %q", name, sink.last, want)
		}
	}
}
