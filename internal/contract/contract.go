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
package contract

import (
	"errors"
	"fmt"

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

	prefix string // deployment.prefix of Contract
	state  chain.StateRW
	meter  *chain.GasMeter
	events []chain.Event
}

// Get reads a storage key, charging read gas.
func (e *Env) Get(key string) ([]byte, bool, error) {
	if err := e.meter.Charge(chain.GasStorageGet); err != nil {
		return nil, false, err
	}
	v, ok := e.state.Get(e.prefix + key)
	return v, ok, nil
}

// Set writes a storage key, charging write gas proportional to the value
// size.
func (e *Env) Set(key string, value []byte) error {
	if err := e.meter.Charge(chain.GasStorageSet + uint64(len(value))*chain.GasStoragePerByte); err != nil {
		return err
	}
	e.state.Set(e.prefix+key, value)
	return nil
}

// Delete removes a storage key, charging delete gas.
func (e *Env) Delete(key string) error {
	if err := e.meter.Charge(chain.GasStorageDelete); err != nil {
		return err
	}
	e.state.Delete(e.prefix + key)
	return nil
}

// Keys lists contract-local keys under a prefix in sorted order, charging
// one read per returned key.
func (e *Env) Keys(prefix string) ([]string, error) {
	full := e.state.Keys(e.prefix + prefix)
	out := make([]string, 0, len(full))
	for _, k := range full {
		if err := e.meter.Charge(chain.GasStorageGet); err != nil {
			return nil, err
		}
		out = append(out, k[len(e.prefix):])
	}
	return out, nil
}

// Emit records an event, charging per payload byte.
func (e *Env) Emit(topic, key string, payload []byte) error {
	cost := chain.GasEventBase + uint64(len(payload))*chain.GasEventPerByte
	if err := e.meter.Charge(cost); err != nil {
		return err
	}
	e.events = append(e.events, chain.Event{
		Contract: e.Contract,
		Topic:    topic,
		Key:      key,
		Data:     append([]byte(nil), payload...),
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

	prefix string // as Env.prefix
	state  chain.StateRW
}

// Get reads a storage key.
func (e *ReadEnv) Get(key string) ([]byte, bool) {
	return e.state.Get(e.prefix + key)
}

// Keys lists contract-local keys under a prefix in sorted order.
func (e *ReadEnv) Keys(prefix string) []string {
	full := e.state.Keys(e.prefix + prefix)
	out := make([]string, 0, len(full))
	for _, k := range full {
		out = append(out, k[len(e.prefix):])
	}
	return out
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
// pattern every binary and the core.Deployment wiring follow. Each
// ExecuteTx builds a fresh Env (meter, event buffer) on its own stack;
// nothing is shared between concurrent calls except the caller-supplied
// StateRW, which is the scheduler's per-transaction overlay and
// internally synchronized. Contracts themselves must honour the
// Contract interface's statelessness contract.
type Runtime struct {
	contracts map[cryptoutil.Address]deployment
}

// deployment is a contract and its storage prefix "0x<address>/", which
// namespaces the contract's local keys in the global state. It is
// rendered once, at Deploy, not on every storage access.
type deployment struct {
	code   Contract
	prefix string
}

var _ chain.Executor = (*Runtime)(nil)

// NewRuntime returns an empty runtime.
func NewRuntime() *Runtime {
	return &Runtime{contracts: make(map[cryptoutil.Address]deployment)}
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
	meter := chain.NewGasMeter(tx.GasLimit)
	receipt := &chain.Receipt{Status: chain.StatusOK}

	revert := func(err error) *chain.Receipt {
		receipt.Status = chain.StatusReverted
		receipt.Err = err.Error()
		receipt.GasUsed = meter.Used()
		return receipt
	}

	if err := meter.Charge(chain.GasTxBase + uint64(len(tx.Args))*chain.GasPerArgByte); err != nil {
		return revert(err)
	}
	d, ok := r.contracts[tx.Contract]
	if !ok {
		return revert(fmt.Errorf("contract: no contract at %s", tx.Contract))
	}
	env := &Env{
		Contract:  tx.Contract,
		Sender:    tx.From,
		SenderKey: tx.SenderKey,
		Block:     bctx,
		prefix:    d.prefix,
		state:     st,
		meter:     meter,
	}
	ret, err := d.code.Call(env, tx.Method, tx.Args)
	if err != nil {
		return revert(err)
	}
	receipt.Return = ret
	receipt.Events = env.events
	receipt.GasUsed = meter.Used()
	return receipt
}

// Query implements chain.Executor.
func (r *Runtime) Query(st chain.StateRW, contractAddr cryptoutil.Address, method string, args []byte, bctx chain.BlockContext) ([]byte, error) {
	d, ok := r.contracts[contractAddr]
	if !ok {
		return nil, fmt.Errorf("contract: no contract at %s", contractAddr)
	}
	env := &ReadEnv{Contract: contractAddr, Block: bctx, prefix: d.prefix, state: st}
	return d.code.Read(env, method, args)
}
