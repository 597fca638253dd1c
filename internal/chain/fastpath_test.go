package chain

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/store"
)

// Tests for the replication fast path: ApplyBlock reuses a signature
// check only for a transaction this very node admitted (a mempool hash
// hit), and SealNext replicates to the followers concurrently with a
// scheduling-independent verdict.

// fastPathCluster is a 3-authority cluster in which every node has its
// own metrics handle and node 0 is durable, so it can be crash-restarted
// through OpenNode.
type fastPathCluster struct {
	nodes   []*Node
	net     *Network
	metrics []*Metrics
	cfg0    Config // node 0's config, for reopening it
	clk     *simclock.Sim
}

func newFastPathCluster(t *testing.T) *fastPathCluster {
	t.Helper()
	c := &fastPathCluster{clk: simclock.NewSim(chainEpoch)}
	keys := make([]*cryptoutil.KeyPair, 3)
	auths := make([]cryptoutil.Address, 3)
	for i := range keys {
		keys[i] = cryptoutil.MustGenerateKey()
		auths[i] = keys[i].Address()
	}
	for i, key := range keys {
		m := NewMetrics(obs.NewRegistry())
		cfg := Config{
			Key:         key,
			Authorities: auths,
			Executor:    testExecutor{},
			Clock:       c.clk,
			GenesisTime: chainEpoch,
			Metrics:     m,
		}
		if i == 0 {
			cfg.DataDir = t.TempDir()
			cfg.Persist = store.Options{Sync: store.SyncNever}
			c.cfg0 = cfg
		}
		node, err := OpenNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		c.nodes = append(c.nodes, node)
		c.metrics = append(c.metrics, m)
	}
	net, err := NewNetwork(c.nodes...)
	if err != nil {
		t.Fatal(err)
	}
	c.net = net
	return c
}

// restartNode0 crashes node 0 and reopens it from its data dir with a
// fresh metrics handle: same ledger, empty mempool.
func (c *fastPathCluster) restartNode0(t *testing.T) {
	t.Helper()
	if err := c.nodes[0].Crash(); err != nil {
		t.Fatal(err)
	}
	c.metrics[0] = NewMetrics(obs.NewRegistry())
	c.cfg0.Metrics = c.metrics[0]
	node, err := OpenNode(c.cfg0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	c.nodes[0] = node
	if err := c.net.Replace(node); err != nil {
		t.Fatal(err)
	}
}

// sigCounts reads node i's block-signature counters.
func (c *fastPathCluster) sigCounts(i int) (reused, verified uint64) {
	return c.metrics[i].SigsReused.Value(), c.metrics[i].SigsVerified.Value()
}

// flipSigByte returns a copy of tx whose signature differs in one byte.
func flipSigByte(tx *Tx) *Tx {
	bad := *tx
	bad.Signature = append([]byte(nil), tx.Signature...)
	bad.Signature[len(bad.Signature)/2] ^= 0x01
	return &bad
}

// admitUnverified writes tx straight into n's mempool through admit, the
// stage behind signature verification — the one way a test can queue a
// badly signed transaction.
func admitUnverified(t *testing.T, n *Node, tx *Tx) {
	t.Helper()
	out := []TxVerdict{{Hash: tx.Hash()}}
	n.admit([]*Tx{tx}, out)
	if out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
}

// txFieldMutations changes each field of Tx in place. Every field is
// either inside SigningBytes or is the signature, so each mutation must
// change the hash (a mempool miss) and fail verification.
var txFieldMutations = map[string]func(tx *Tx){
	"Nonce":     func(tx *Tx) { tx.Nonce++ },
	"From":      func(tx *Tx) { tx.From[0] ^= 0x01 },
	"SenderKey": func(tx *Tx) { tx.SenderKey = cryptoutil.MustGenerateKey().PublicBytes() },
	"Contract":  func(tx *Tx) { tx.Contract[0] ^= 0x01 },
	"Method":    func(tx *Tx) { tx.Method += "x" },
	"Args":      func(tx *Tx) { tx.Args = []byte(`{"key":"k","value":"forged"}`) },
	"GasLimit":  func(tx *Tx) { tx.GasLimit++ },
	"GasPrice":  func(tx *Tx) { tx.GasPrice++ },
	"Signature": func(tx *Tx) { tx.Signature = flipSigByte(tx).Signature },
}

// TestFastPathStillVerifiesWhatItDidNotAdmit: a follower must reject,
// with ErrBadTxInBlock, every block carrying a badly signed transaction
// it did not itself admit under exactly those bytes — whatever the
// proposer's mempool held. Node 1 is the in-turn proposer of height 1
// and plays the byzantine authority; node 0 is the follower under test.
func TestFastPathStillVerifiesWhatItDidNotAdmit(t *testing.T) {
	sender := cryptoutil.MustGenerateKey()
	// admitThenMutate submits two honest transactions to every mempool
	// and then rewrites the second shared *Tx in place, as the forgers do:
	// the follower holds the admission-time hash, the block carries
	// different bytes. (The second, because a proposer's own mempool only
	// hands out a queue whose head still carries the committed nonce.)
	admitThenMutate := func(mutate func(tx *Tx)) func(*testing.T, *fastPathCluster) {
		return func(t *testing.T, c *fastPathCluster) {
			txs := []*Tx{
				mustTx(t, sender, 0, testContractAddr(), "k", "v"),
				mustTx(t, sender, 1, testContractAddr(), "k", "v"),
			}
			if _, err := c.net.SubmitAllOrNothing(txs); err != nil {
				t.Fatal(err)
			}
			mutate(txs[1])
		}
	}
	// injectAtProposer writes a transaction with a flipped signature
	// byte straight into the proposer's mempool, bypassing admission.
	injectAtProposer := func(t *testing.T, c *fastPathCluster) {
		admitUnverified(t, c.nodes[1], flipSigByte(mustTx(t, sender, 0, testContractAddr(), "k", "v")))
	}
	type testCase struct {
		name    string
		prepare func(t *testing.T, c *fastPathCluster)
	}
	cases := []testCase{
		{"never admitted, flipped signature byte", injectAtProposer},
		{"freshly restarted follower", func(t *testing.T, c *fastPathCluster) {
			injectAtProposer(t, c)
			c.restartNode0(t)
		}},
	}
	// One admit-then-mutate row per field of Tx, enumerated by reflection
	// so a field added later fails here until it has a mutation.
	for i := range reflect.TypeFor[Tx]().NumField() {
		field := reflect.TypeFor[Tx]().Field(i).Name
		mutate := txFieldMutations[field]
		if mutate == nil {
			t.Fatalf("Tx.%s has no row in txFieldMutations: the fast path's soundness is unchecked for it", field)
		}
		cases = append(cases, testCase{"admitted, then " + field + " mutated", admitThenMutate(mutate)})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newFastPathCluster(t)
			tc.prepare(t, c)
			c.clk.Advance(time.Second)
			block, err := c.nodes[1].Seal()
			if err != nil {
				t.Fatal(err)
			}
			if len(block.Txs) == 0 {
				t.Fatal("proposer sealed an empty block, want the bad tx last in it")
			}
			follower := c.nodes[0]
			follower.mpMu.Lock()
			hit := follower.mempool.Contains(block.Txs[len(block.Txs)-1].Hash())
			follower.mpMu.Unlock()
			if hit {
				t.Fatal("the block's bytes hash to a transaction the follower admitted")
			}
			err = follower.ApplyBlock(block, c.nodes[1].key.PublicBytes())
			if !errors.Is(err, ErrBadTxInBlock) {
				t.Fatalf("follower verdict = %v, want ErrBadTxInBlock", err)
			}
			if follower.Height() != 0 {
				t.Fatalf("follower advanced to height %d on a rejected block", follower.Height())
			}
			if reused, _ := c.sigCounts(0); reused != 0 {
				t.Fatalf("follower reused %d signature checks for bytes it never admitted", reused)
			}
		})
	}
}

// TestFastPathSignatureAccounting: per validated block, reused +
// verified = block txs on every follower; an honest block is reused in
// full by a follower that admitted it and verified in full by one that
// restarted (and so lost its mempool) in between.
func TestFastPathSignatureAccounting(t *testing.T) {
	c := newFastPathCluster(t)
	sender := cryptoutil.MustGenerateKey()
	const perBlock = 8
	nonce := uint64(0)
	submit := func() {
		t.Helper()
		txs := make([]*Tx, perBlock)
		for i := range txs {
			txs[i] = mustTx(t, sender, nonce, testContractAddr(), "k", "v")
			nonce++
		}
		if _, err := c.net.SubmitAllOrNothing(txs); err != nil {
			t.Fatal(err)
		}
	}
	seal := func() {
		t.Helper()
		c.clk.Advance(time.Second)
		block, err := c.net.SealNext()
		if err != nil {
			t.Fatal(err)
		}
		if len(block.Txs) != perBlock {
			t.Fatalf("block %d holds %d txs, want %d", block.Header.Number, len(block.Txs), perBlock)
		}
	}
	requireCounts := func(node int, wantReused, wantVerified uint64) {
		t.Helper()
		if reused, verified := c.sigCounts(node); reused != wantReused || verified != wantVerified {
			t.Fatalf("node %d: reused %d, verified %d; want %d, %d", node, reused, verified, wantReused, wantVerified)
		}
	}

	// Height 1, proposed by node 1: both followers admitted every tx.
	submit()
	seal()
	requireCounts(0, perBlock, 0)
	requireCounts(1, 0, 0) // the proposer validates nothing
	requireCounts(2, perBlock, 0)

	// Height 2, proposed by node 2: node 0 restarts between admission and
	// the block, so it holds nothing and checks everything.
	submit()
	c.restartNode0(t)
	seal()
	requireCounts(0, 0, perBlock) // fresh metrics handle since the restart
	requireCounts(1, perBlock, 0)
	requireCounts(2, perBlock, 0)

	head := c.nodes[0].Head().Hash()
	for i, n := range c.nodes {
		if n.Head().Hash() != head {
			t.Fatalf("node %d diverged", i)
		}
		if n.PendingTxs() != 0 {
			t.Fatalf("node %d still queues %d txs", i, n.PendingTxs())
		}
	}
}

// TestSealNextNamesLowestRejectingFollower: the followers validate
// concurrently (node 0 on its own goroutine, node 2 inline), both reject
// the block, and SealNext must name node 0 whichever finished first.
func TestSealNextNamesLowestRejectingFollower(t *testing.T) {
	sender := cryptoutil.MustGenerateKey()
	for range 50 {
		nodes, net, _, clk := newTestCluster(t, 3)
		admitUnverified(t, nodes[1], flipSigByte(mustTx(t, sender, 0, testContractAddr(), "k", "v")))
		clk.Advance(time.Second)
		_, err := net.SealNext()
		if !errors.Is(err, ErrBadTxInBlock) {
			t.Fatalf("SealNext = %v, want ErrBadTxInBlock", err)
		}
		if want := "node " + nodes[0].Address().Short(); !strings.Contains(err.Error(), want) {
			t.Fatalf("SealNext = %q, want it to name %s", err, want)
		}
		if nodes[0].Height() != 0 || nodes[2].Height() != 0 {
			t.Fatal("a follower committed the rejected block")
		}
	}
}
