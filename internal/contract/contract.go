// Package contract provides the smart-contract runtime hosted on the
// blockchain substrate: a registry of native-Go contracts with
// deterministic addresses, gas-metered storage and event emission, and the
// chain.Executor implementation that dispatches transactions and read-only
// queries to contract methods.
//
// Contracts are ordinary Go values implementing the Contract interface.
// They must be deterministic: all state lives in the chain state store,
// all time comes from the block context, and iteration over storage uses
// sorted key order.
//
// A contract's keys live under its namespace "0x<address>/" in the global
// state, and the runtime keeps it there. Env.Key (ReadEnv.Key) hands out a
// buffer that already holds the namespace; the contract appends its local
// key and passes the bytes to Get, Set, Delete or Keys, each of which
// refuses a key outside the namespace (ErrForeignKey). A read looks the
// bytes up as they are, so it allocates no key; a write or a delete
// allocates the one string the state stores. The buffer is reused by the
// next Key call, so a key is built for an access, not kept.
//
// The runtime reuses its environments: an Env or a ReadEnv, and any key
// built on its Key, is valid only until the Call or Read it was handed to
// returns. A contract keeps neither, and returns or emits no slice of a
// key buffer. What a call hands out — its receipt, events and return
// value — is never reused.
package contract

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
)

// Contract is a deployed application. Implementations dispatch on the
// method name.
//
// Concurrency contract: the chain's parallel transaction scheduler may
// run Call concurrently from multiple goroutines — each invocation with
// its own Env over a distinct StateRW — so implementations must keep ALL
// mutable state in contract storage (via env.Get/Set/Delete), never in
// fields on the Contract value. Fields set at construction and read-only
// thereafter (configuration) are fine.
//
// The env is lent for the one invocation: the runtime clears it and hands
// it to a later call once Call or Read returns, so an implementation must
// not keep it, or a key built on its Key, past its return.
type Contract interface {
	// Call executes a state-mutating method. Returning a non-nil error
	// reverts the transaction (all storage effects are rolled back).
	Call(env *Env, method string, args []byte) ([]byte, error)
	// Read executes a read-only method against current state.
	Read(env *ReadEnv, method string, args []byte) ([]byte, error)
}

// AddressFor derives the deterministic deployment address for a contract
// name. All nodes deploy the same contracts under the same names, so the
// addresses agree cluster-wide.
func AddressFor(name string) cryptoutil.Address {
	h := cryptoutil.HashOf([]byte("contract|" + name))
	var a cryptoutil.Address
	copy(a[:], h[len(h)-cryptoutil.AddressLen:])
	return a
}

// Env is the execution environment for state-mutating calls. Storage
// access and event emission are gas-metered against the transaction's gas
// limit.
type Env struct {
	// Contract is the executing contract's address.
	Contract cryptoutil.Address
	// Sender is the transaction sender.
	Sender cryptoutil.Address
	// SenderKey is the sender's public key bytes (for contracts that
	// verify signatures over off-chain payloads, e.g. TEE evidence).
	SenderKey []byte
	// Block exposes the block number and timestamp.
	Block chain.BlockContext

	keys   keyspace
	state  chain.StateRW
	meter  chain.GasMeter
	events []chain.Event
}

// Key returns the buffer to build a storage key in: the contract's
// namespace, for the local key to be appended to. See keyspace.
func (e *Env) Key() []byte { return e.keys.key() }

// Get reads a storage key built on Key, charging read gas. The value is
// a view of the stored bytes, not a copy: the contract must not write
// through it. Its capacity is its length, so an append copies.
func (e *Env) Get(key []byte) ([]byte, bool, error) {
	if err := e.keys.check(key); err != nil {
		return nil, false, err
	}
	if err := e.meter.Charge(chain.GasStorageGet); err != nil {
		return nil, false, err
	}
	v, ok := e.state.Get(key)
	return v, ok, nil
}

// Set writes a storage key built on Key, charging write gas proportional
// to the value size. The contract hands value over: the state keeps the
// slice, so the contract must not write it afterwards (it may still emit
// or return it). The state stores the key as a string: the one
// allocation a write makes for its key.
func (e *Env) Set(key []byte, value []byte) error {
	if err := e.keys.check(key); err != nil {
		return err
	}
	if err := e.meter.Charge(chain.GasStorageSet + uint64(len(value))*chain.GasStoragePerByte); err != nil {
		return err
	}
	e.state.Set(string(key), value)
	return nil
}

// Delete removes a storage key built on Key, charging delete gas.
func (e *Env) Delete(key []byte) error {
	if err := e.keys.check(key); err != nil {
		return err
	}
	if err := e.meter.Charge(chain.GasStorageDelete); err != nil {
		return err
	}
	e.state.Delete(string(key))
	return nil
}

// Keys lists the keys under a prefix built on Key in sorted order, without
// the namespace, charging one read per returned key.
func (e *Env) Keys(prefix []byte) ([]string, error) {
	if err := e.keys.check(prefix); err != nil {
		return nil, err
	}
	full := e.state.Keys(string(prefix))
	for range full {
		if err := e.meter.Charge(chain.GasStorageGet); err != nil {
			return nil, err
		}
	}
	return e.keys.local(full), nil
}

// Emit records an event, charging per payload byte. The event keeps
// payload: one slice goes to every subscriber and into the receipt, so
// the contract must not write it afterwards. A record the contract has
// just Set may be emitted as it is.
func (e *Env) Emit(topic, key string, payload []byte) error {
	cost := chain.GasEventBase + uint64(len(payload))*chain.GasEventPerByte
	if err := e.meter.Charge(cost); err != nil {
		return err
	}
	e.events = append(e.events, chain.Event{
		Contract: e.Contract,
		Topic:    topic,
		Key:      key,
		Data:     payload,
	})
	return nil
}

// ReadEnv is the environment for read-only queries: storage reads without
// gas accounting and no event emission.
type ReadEnv struct {
	// Contract is the queried contract's address.
	Contract cryptoutil.Address
	// Block exposes the block number and timestamp at the head.
	Block chain.BlockContext

	keys  keyspace
	state chain.StateReader
}

// Key returns the buffer to build a storage key in, as Env.Key does.
func (e *ReadEnv) Key() []byte { return e.keys.key() }

// Get reads a storage key built on Key.
func (e *ReadEnv) Get(key []byte) ([]byte, bool, error) {
	if err := e.keys.check(key); err != nil {
		return nil, false, err
	}
	v, ok := e.state.Get(key)
	return v, ok, nil
}

// Keys lists the keys under a prefix built on Key in sorted order, without
// the namespace.
func (e *ReadEnv) Keys(prefix []byte) ([]string, error) {
	if err := e.keys.check(prefix); err != nil {
		return nil, err
	}
	return e.keys.local(e.state.Keys(string(prefix))), nil
}

// keyBufLen is how long a key, namespace included, may grow in a
// keyspace's own buffer; appending past it moves that key to the heap.
const keyBufLen = 256

// keyspace is a contract's share of the global state during one call: its
// namespace "0x<address>/", which every key it touches must start with,
// and the buffer it builds those keys in. Key hands out the buffer cut
// back to the namespace, so building a key is appending its local part
// and reading one is a map lookup on the bytes: neither allocates. A key
// stays valid until the next Key call reuses the buffer.
//
// check runs on every access, so namespacing is the runtime's decision
// alone: a key that does not start with the namespace is refused with
// ErrForeignKey, whatever built it.
type keyspace struct {
	prefix string
	buf    []byte // prefix, then the key built last
	arr    [keyBufLen]byte
}

// ErrForeignKey reports a storage access outside the calling contract's
// namespace: a key not built on Env.Key or ReadEnv.Key.
var ErrForeignKey = errors.New("contract: key outside the contract's namespace")

func (ks *keyspace) init(prefix string) {
	ks.prefix = prefix
	ks.buf = append(ks.arr[:0], prefix...)
}

func (ks *keyspace) key() []byte { return ks.buf[:len(ks.prefix)] }

func (ks *keyspace) check(key []byte) error {
	if len(key) < len(ks.prefix) || string(key[:len(ks.prefix)]) != ks.prefix {
		return ErrForeignKey
	}
	return nil
}

// local strips the namespace off full keys, in place.
func (ks *keyspace) local(full []string) []string {
	for i, k := range full {
		full[i] = k[len(ks.prefix):]
	}
	return full
}

// Revert errors: returned by contracts to abort with a reason. Wrapping
// ErrRevert lets callers distinguish business-rule reverts from
// infrastructure failures.
var ErrRevert = errors.New("contract: reverted")

// Revertf builds a revert error with a formatted reason.
func Revertf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrRevert, fmt.Sprintf(format, args...))
}

// Runtime is the chain.Executor that hosts deployed contracts.
//
// Re-entrancy and concurrency (audited for the parallel scheduler): the
// deployment table is written only by Deploy and read by ExecuteTx/Query, so
// the runtime is safe for any number of concurrent executions PROVIDED
// all Deploy calls happen before execution starts — the deployment
// pattern every binary and the core.Deployment wiring follow.
//
// An environment escapes to the heap through the Contract interface call,
// so the runtime keeps a pool of them rather than allocating one (and its
// key buffer) per call. Each ExecuteTx or Query takes one from the pool,
// fills it, runs the contract and zeroes it before putting it back, so
// two executions in flight never share one and nothing carries over from
// one call to the next; the receipt, its events and the return value are
// allocated per call and never reused. The only other thing concurrent
// calls share is the caller-supplied state: the scheduler's
// per-transaction overlay, which is internally synchronized. Contracts
// themselves must honour the Contract interface's statelessness contract.
type Runtime struct {
	contracts map[cryptoutil.Address]deployment
	envs      sync.Pool // *Env, zeroed
	readEnvs  sync.Pool // *ReadEnv, zeroed
}

// deployment is a contract and its storage prefix "0x<address>/", which
// namespaces the contract's keys in the global state. It is rendered
// once, at Deploy; each call copies it into its keyspace's buffer.
type deployment struct {
	code   Contract
	prefix string
}

var _ chain.Executor = (*Runtime)(nil)

// NewRuntime returns an empty runtime.
func NewRuntime() *Runtime {
	return &Runtime{
		contracts: make(map[cryptoutil.Address]deployment),
		envs:      sync.Pool{New: func() any { return new(Env) }},
		readEnvs:  sync.Pool{New: func() any { return new(ReadEnv) }},
	}
}

// Deploy registers a contract under a name and returns its deterministic
// address. Deploying the same name twice replaces the implementation
// (useful in tests); addresses never change.
func (r *Runtime) Deploy(name string, c Contract) cryptoutil.Address {
	addr := AddressFor(name)
	r.contracts[addr] = deployment{code: c, prefix: addr.String() + "/"}
	return addr
}

// ExecuteTx implements chain.Executor.
func (r *Runtime) ExecuteTx(st chain.StateRW, tx *chain.Tx, bctx chain.BlockContext) *chain.Receipt {
	env := r.envs.Get().(*Env)
	receipt := r.execute(env, st, tx, bctx)
	*env = Env{}
	r.envs.Put(env)
	return receipt
}

// execute runs tx in env, a zeroed environment from the pool.
func (r *Runtime) execute(env *Env, st chain.StateRW, tx *chain.Tx, bctx chain.BlockContext) *chain.Receipt {
	env.meter = chain.NewGasMeter(tx.GasLimit)
	receipt := &chain.Receipt{Status: chain.StatusOK}

	revert := func(err error) *chain.Receipt {
		receipt.Status = chain.StatusReverted
		receipt.Err = err.Error()
		receipt.GasUsed = env.meter.Used()
		return receipt
	}

	if err := env.meter.Charge(chain.GasTxBase + uint64(len(tx.Args))*chain.GasPerArgByte); err != nil {
		return revert(err)
	}
	d, ok := r.contracts[tx.Contract]
	if !ok {
		return revert(fmt.Errorf("contract: no contract at %s", tx.Contract))
	}
	env.Contract = tx.Contract
	env.Sender = tx.From
	env.SenderKey = tx.SenderKey
	env.Block = bctx
	env.state = st
	env.keys.init(d.prefix)
	ret, err := d.code.Call(env, tx.Method, tx.Args)
	if err != nil {
		return revert(err)
	}
	receipt.Return = ret
	receipt.Events = env.events
	receipt.GasUsed = env.meter.Used()
	return receipt
}

// Query implements chain.Executor.
func (r *Runtime) Query(st chain.StateReader, contractAddr cryptoutil.Address, method string, args []byte, bctx chain.BlockContext) ([]byte, error) {
	d, ok := r.contracts[contractAddr]
	if !ok {
		return nil, fmt.Errorf("contract: no contract at %s", contractAddr)
	}
	env := r.readEnvs.Get().(*ReadEnv)
	env.Contract = contractAddr
	env.Block = bctx
	env.state = st
	env.keys.init(d.prefix)
	out, err := d.code.Read(env, method, args)
	*env = ReadEnv{}
	r.readEnvs.Put(env)
	return out, err
}
