package chain

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simclock"
)

// testExecutor is a minimal Executor for chain tests. It supports:
//
//	"set"   {key, value}: writes value under "<contract>/<key>", emits "Set".
//	"incr"  {key}       : read-modify-write counter at "<contract>/<key>"
//	                      (every incr of one key conflicts with the last).
//	"fail"  {}          : reverts with GasTxBase consumed.
//	"burn"  {amount}    : charges amount gas (tests out-of-gas handling).
//	"get"   {key}       : query-only read returning {"value": ...}.
type testExecutor struct{}

type setArgs struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

type burnArgs struct {
	Amount uint64 `json:"amount"`
}

// The test executor reads its arguments as JSON; NewTx takes them through
// AppendArgs.
func (a setArgs) AppendArgs(dst []byte) []byte  { return appendJSON(dst, a) }
func (a burnArgs) AppendArgs(dst []byte) []byte { return appendJSON(dst, a) }

func appendJSON(dst []byte, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return append(dst, b...)
}

func (testExecutor) ExecuteTx(st StateRW, tx *Tx, bctx BlockContext) *Receipt {
	meter := NewGasMeter(tx.GasLimit)
	r := &Receipt{Status: StatusOK}
	charge := func(amount uint64) bool {
		if err := meter.Charge(amount); err != nil {
			r.Status = StatusReverted
			r.Err = err.Error()
			r.GasUsed = meter.Used()
			return false
		}
		return true
	}
	if !charge(GasTxBase + uint64(len(tx.Args))*GasPerArgByte) {
		return r
	}
	switch tx.Method {
	case "set":
		var args setArgs
		if err := json.Unmarshal(tx.Args, &args); err != nil {
			r.Status = StatusReverted
			r.Err = err.Error()
			r.GasUsed = meter.Used()
			return r
		}
		if !charge(GasStorageSet + uint64(len(args.Value))*GasStoragePerByte) {
			return r
		}
		st.Set(tx.Contract.String()+"/"+args.Key, []byte(args.Value))
		r.Events = append(r.Events, Event{
			Contract: tx.Contract, Topic: "Set", Key: args.Key, Data: []byte(args.Value),
		})
	case "incr":
		var args setArgs
		if err := json.Unmarshal(tx.Args, &args); err != nil {
			r.Status = StatusReverted
			r.Err = err.Error()
			r.GasUsed = meter.Used()
			return r
		}
		if !charge(GasStorageSet) {
			return r
		}
		k := tx.Contract.String() + "/" + args.Key
		count := 0
		if v, ok := st.Get([]byte(k)); ok {
			count, _ = strconv.Atoi(string(v))
		}
		next := []byte(strconv.Itoa(count + 1))
		st.Set(k, next)
		r.Events = append(r.Events, Event{
			Contract: tx.Contract, Topic: "Incr", Key: args.Key, Data: next,
		})
	case "fail":
		r.Status = StatusReverted
		r.Err = "deliberate failure"
	case "burn":
		var args burnArgs
		_ = json.Unmarshal(tx.Args, &args)
		if !charge(args.Amount) {
			return r
		}
	default:
		r.Status = StatusReverted
		r.Err = fmt.Sprintf("unknown method %q", tx.Method)
	}
	r.GasUsed = meter.Used()
	return r
}

func (testExecutor) Query(st StateRW, contract cryptoutil.Address, method string, args []byte, bctx BlockContext) ([]byte, error) {
	if method != "get" {
		return nil, fmt.Errorf("unknown query %q", method)
	}
	var a setArgs
	if err := json.Unmarshal(args, &a); err != nil {
		return nil, err
	}
	v, ok := st.Get([]byte(contract.String() + "/" + a.Key))
	if !ok {
		return nil, fmt.Errorf("key %q not found", a.Key)
	}
	return json.Marshal(map[string]string{"value": string(v)})
}

var chainEpoch = time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC)

// newTestNode builds a single-authority node with a simulated clock.
func newTestNode(tb interface{ Fatal(...any) }) (*Node, *cryptoutil.KeyPair, *simclock.Sim) {
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	node, err := NewNode(Config{
		Key:         key,
		Authorities: []cryptoutil.Address{key.Address()},
		Executor:    testExecutor{},
		Clock:       clk,
		GenesisTime: chainEpoch,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return node, key, clk
}

// mustTx builds a signed "set" transaction.
func mustTx(tb interface{ Fatal(...any) }, key *cryptoutil.KeyPair, nonce uint64, contract cryptoutil.Address, k, v string) *Tx {
	tx, err := NewTx(key, nonce, contract, "set", setArgs{Key: k, Value: v}, 200_000)
	if err != nil {
		tb.Fatal(err)
	}
	return tx
}

// mustTxPriced builds a signed "set" transaction with an explicit
// gas-price bid.
func mustTxPriced(tb interface{ Fatal(...any) }, key *cryptoutil.KeyPair, nonce uint64, contract cryptoutil.Address, k, v string, price uint64) *Tx {
	tx, err := NewTxPriced(key, nonce, contract, "set", setArgs{Key: k, Value: v}, 200_000, price)
	if err != nil {
		tb.Fatal(err)
	}
	return tx
}

// newPoolNode builds a single-authority node with explicit mempool
// admission knobs.
func newPoolNode(tb interface{ Fatal(...any) }, capacity, quota int) (*Node, *cryptoutil.KeyPair, *simclock.Sim) {
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	node, err := NewNode(Config{
		Key:                 key,
		Authorities:         []cryptoutil.Address{key.Address()},
		Executor:            testExecutor{},
		Clock:               clk,
		GenesisTime:         chainEpoch,
		MempoolCapacity:     capacity,
		MaxPendingPerSender: quota,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return node, key, clk
}

// testContractAddr is an arbitrary contract address for tests.
func testContractAddr() cryptoutil.Address {
	var a cryptoutil.Address
	copy(a[:], strings.Repeat("c", cryptoutil.AddressLen))
	return a
}

// submitter is the one submission pipeline, as Node and Network offer it.
type submitter interface{ Submit(txs []*Tx) []TxVerdict }

// submit1 pushes one transaction through the pipeline.
func submit1(s submitter, tx *Tx) (cryptoutil.Hash, error) {
	v := s.Submit([]*Tx{tx})[0]
	return v.Hash, v.Err
}

// submitAll pushes a batch through the pipeline and collapses its
// verdicts to the hashes and the lowest-indexed error. Nothing is
// withdrawn: what was admitted stays queued.
func submitAll(s submitter, txs []*Tx) ([]cryptoutil.Hash, error) {
	hashes := make([]cryptoutil.Hash, len(txs))
	var first error
	for i, v := range s.Submit(txs) {
		hashes[i] = v.Hash
		if first == nil {
			first = v.Err
		}
	}
	return hashes, first
}
