package chain

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simclock"
)

// newTestCluster builds n authority nodes sharing one authority set and
// simulated clock.
func newTestCluster(t *testing.T, n int) ([]*Node, *Network, []*cryptoutil.KeyPair, *simclock.Sim) {
	t.Helper()
	clk := simclock.NewSim(chainEpoch)
	keys := make([]*cryptoutil.KeyPair, n)
	auths := make([]cryptoutil.Address, n)
	for i := range n {
		keys[i] = cryptoutil.MustGenerateKey()
		auths[i] = keys[i].Address()
	}
	nodes := make([]*Node, n)
	for i := range n {
		node, err := NewNode(Config{
			Key:         keys[i],
			Authorities: auths,
			Executor:    testExecutor{},
			Clock:       clk,
			GenesisTime: chainEpoch,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	net, err := NewNetwork(nodes...)
	if err != nil {
		t.Fatal(err)
	}
	return nodes, net, keys, clk
}

func TestNetworkConsensusReplication(t *testing.T) {
	nodes, net, _, clk := newTestCluster(t, 3)
	sender := cryptoutil.MustGenerateKey()
	contract := testContractAddr()

	tx := mustTx(t, sender, 0, contract, "k", "replicated")
	if _, err := submit1(net, tx); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	block, err := net.SealNext()
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != 1 {
		t.Fatalf("block txs = %d, want 1", len(block.Txs))
	}
	// Every node converges to the same head and state root.
	for i, n := range nodes {
		if n.Height() != 1 {
			t.Fatalf("node %d height = %d, want 1", i, n.Height())
		}
		if n.Head().Hash() != block.Hash() {
			t.Fatalf("node %d head diverged", i)
		}
		out, err := n.Query(contract, "get", []byte(`{"key":"k"}`))
		if err != nil || string(out) != `{"value":"replicated"}` {
			t.Fatalf("node %d query = %s, %v", i, out, err)
		}
		if n.PendingTxs() != 0 {
			t.Fatalf("node %d mempool not drained", i)
		}
	}
}

func TestNetworkRoundRobinProposers(t *testing.T) {
	nodes, net, _, clk := newTestCluster(t, 3)
	seen := map[cryptoutil.Address]int{}
	for range 6 {
		clk.Advance(time.Second)
		block, err := net.SealNext()
		if err != nil {
			t.Fatal(err)
		}
		seen[block.Header.Proposer]++
	}
	if len(seen) != 3 {
		t.Fatalf("proposers = %v, want all 3 authorities", seen)
	}
	for addr, count := range seen {
		if count != 2 {
			t.Fatalf("proposer %s sealed %d blocks, want 2", addr.Short(), count)
		}
	}
	_ = nodes
}

func TestNetworkRejectsTamperedBlock(t *testing.T) {
	nodes, _, keys, clk := newTestCluster(t, 2)
	sender := cryptoutil.MustGenerateKey()
	contract := testContractAddr()

	tx := mustTx(t, sender, 0, contract, "k", "original")
	if _, err := submit1(nodes[0], tx); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	block, err := nodes[0].SealOutOfTurn()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("tampered state root", func(t *testing.T) {
		bad := *block
		bad.Header.StateRoot = cryptoutil.HashOf([]byte("forged"))
		// Re-sign so only the state transition is wrong.
		sig, err := keys[0].Sign(bad.Header.SigningBytes())
		if err != nil {
			t.Fatal(err)
		}
		bad.Header.Signature = sig
		err = nodes[1].ApplyBlock(&bad, keys[0].PublicBytes())
		if !errors.Is(err, ErrBadStateRoot) {
			t.Fatalf("err = %v, want ErrBadStateRoot", err)
		}
	})

	t.Run("forged signature", func(t *testing.T) {
		mallory := cryptoutil.MustGenerateKey()
		bad := *block
		sig, err := mallory.Sign(bad.Header.SigningBytes())
		if err != nil {
			t.Fatal(err)
		}
		bad.Header.Signature = sig
		err = nodes[1].ApplyBlock(&bad, mallory.PublicBytes())
		// Mallory is not the scheduled proposer even with a "valid" sig of
		// her own key, and her key does not match the claimed proposer.
		if err == nil {
			t.Fatal("forged block accepted")
		}
	})

	t.Run("tampered tx args", func(t *testing.T) {
		badTx := *tx
		badTx.Args = []byte(`{"key":"k","value":"evil"}`)
		bad := &Block{Header: block.Header, Txs: []*Tx{&badTx}, Receipts: block.Receipts}
		err := nodes[1].ApplyBlock(bad, keys[0].PublicBytes())
		if !errors.Is(err, ErrBadTxInBlock) && !errors.Is(err, ErrBadTxRoot) {
			t.Fatalf("err = %v, want tx validation failure", err)
		}
	})

	// The header seal does not cover the transaction list, so only the
	// byte budget stands between a padded block and its tx root; it is
	// checked before anything is hashed or run.
	t.Run("over the byte budget", func(t *testing.T) {
		padded := *block
		padded.Txs = append(padded.Txs[:len(padded.Txs):len(padded.Txs)], &Tx{Args: make([]byte, MaxBlockTxBytes)})
		if err := nodes[1].ApplyBlock(&padded, keys[0].PublicBytes()); !errors.Is(err, ErrBlockTooLarge) {
			t.Fatalf("err = %v, want ErrBlockTooLarge", err)
		}
	})

	// The text form signed Time.UnixNano, which wraps every 2^64 ns: a
	// header re-dated by 584 years kept its hash and seal, was accepted,
	// and the next honest block then failed with ErrBadTimestamp.
	t.Run("time shifted by 2^64 ns", func(t *testing.T) {
		bad := *block
		at := block.Header.Time
		bad.Header.Time = time.Unix(at.Unix()+18446744073, int64(at.Nanosecond())+709551616)
		if bad.Hash() == block.Hash() {
			t.Fatalf("re-dated header keeps hash %s", block.Hash())
		}
		if err := nodes[1].ApplyBlock(&bad, keys[0].PublicBytes()); !errors.Is(err, ErrBadHeaderSig) {
			t.Fatalf("err = %v, want ErrBadHeaderSig", err)
		}
	})

	t.Run("valid block applies", func(t *testing.T) {
		if err := nodes[1].ApplyBlock(block, keys[0].PublicBytes()); err != nil {
			t.Fatal(err)
		}
		if nodes[1].Height() != 1 {
			t.Fatal("valid block did not apply")
		}
	})

	t.Run("replayed block rejected", func(t *testing.T) {
		if err := nodes[1].ApplyBlock(block, keys[0].PublicBytes()); !errors.Is(err, ErrBadNumber) {
			t.Fatalf("err = %v, want ErrBadNumber", err)
		}
	})
}

func TestNetworkWrongParentRejected(t *testing.T) {
	nodes, _, keys, clk := newTestCluster(t, 2)
	clk.Advance(time.Second)
	// Seal two blocks on node 0 without telling node 1 about the first.
	b1, err := nodes[0].SealOutOfTurn()
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	// Height 2 belongs to authority 1 in a 2-node round robin, so reuse
	// node 0's b1 to craft a block with a bad parent instead: apply b1 to
	// node 1 after mutating its parent hash.
	bad := *b1
	bad.Header.ParentHash = cryptoutil.HashOf([]byte("wrong"))
	sig, err := keys[0].Sign(bad.Header.SigningBytes())
	if err != nil {
		t.Fatal(err)
	}
	bad.Header.Signature = sig
	if err := nodes[1].ApplyBlock(&bad, keys[0].PublicBytes()); !errors.Is(err, ErrBadParent) {
		t.Fatalf("err = %v, want ErrBadParent", err)
	}
}

func TestNetworkAvailabilityUnderNodeFailure(t *testing.T) {
	nodes, net, _, clk := newTestCluster(t, 3)
	sender := cryptoutil.MustGenerateKey()
	contract := testContractAddr()

	// Take node 1 down. When its turn comes, the next live authority
	// seals out of turn (clique-style), so the cluster never stalls and
	// node 1's ledger freezes.
	downAddr := nodes[1].Address()
	net.SetDown(downAddr, true)

	tx := mustTx(t, sender, 0, contract, "k", "v")
	if _, err := submit1(net, tx); err != nil {
		t.Fatal(err)
	}

	for range 6 {
		clk.Advance(time.Second)
		if _, err := net.SealNext(); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{0, 2} {
		if nodes[i].Height() != 6 {
			t.Fatalf("live node %d height = %d, want 6", i, nodes[i].Height())
		}
	}
	if nodes[1].Height() != 0 {
		t.Fatal("down node should not advance")
	}
	// Live nodes replicated the tx and serve reads — availability holds.
	for _, i := range []int{0, 2} {
		out, err := nodes[i].Query(contract, "get", []byte(`{"key":"k"}`))
		if err != nil || string(out) != `{"value":"v"}` {
			t.Fatalf("node %d query = %s, %v", i, out, err)
		}
	}
}

func TestNetworkRecoverySync(t *testing.T) {
	nodes, net, _, clk := newTestCluster(t, 3)
	sender := cryptoutil.MustGenerateKey()
	contract := testContractAddr()

	// Node 2 goes down; the cluster makes progress without it.
	net.SetDown(nodes[2].Address(), true)
	for i := range 5 {
		tx := mustTx(t, sender, uint64(i), contract, string(rune('a'+i)), "v")
		if _, err := submit1(net, tx); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
		if _, err := net.SealNext(); err != nil {
			t.Fatal(err)
		}
	}
	if nodes[2].Height() != 0 {
		t.Fatal("down node advanced")
	}

	// Recovery: node 2 rejoins and catches up block by block, fully
	// validating each one.
	applied, err := net.Recover(nodes[2].Address())
	if err != nil {
		t.Fatal(err)
	}
	if applied != 5 {
		t.Fatalf("applied = %d, want 5", applied)
	}
	if nodes[2].Height() != nodes[0].Height() {
		t.Fatalf("heights diverge: %d vs %d", nodes[2].Height(), nodes[0].Height())
	}
	if nodes[2].Head().Hash() != nodes[0].Head().Hash() {
		t.Fatal("head hash diverges after sync")
	}
	// The recovered node serves correct reads.
	out, err := nodes[2].Query(contract, "get", []byte(`{"key":"e"}`))
	if err != nil || string(out) != `{"value":"v"}` {
		t.Fatalf("recovered node query = %s, %v", out, err)
	}
	// And participates in consensus again.
	clk.Advance(time.Second)
	if _, err := net.SealNext(); err != nil {
		t.Fatal(err)
	}
	if nodes[2].Height() != nodes[0].Height() {
		t.Fatal("recovered node missed the next block")
	}
}

func TestSyncFromRejectsUnknownProposer(t *testing.T) {
	nodes, _, keys, clk := newTestCluster(t, 2)
	clk.Advance(time.Second)
	if _, err := nodes[0].SealOutOfTurn(); err != nil {
		t.Fatal(err)
	}
	// Empty key map: sync must fail cleanly without applying anything.
	if _, err := nodes[1].SyncFrom(nodes[0], map[cryptoutil.Address][]byte{}); err == nil {
		t.Fatal("sync without proposer keys succeeded")
	}
	if nodes[1].Height() != 0 {
		t.Fatal("partial sync applied a block without key verification")
	}
	// With the key it succeeds.
	applied, err := nodes[1].SyncFrom(nodes[0], map[cryptoutil.Address][]byte{
		nodes[0].Address(): keys[0].PublicBytes(),
	})
	if err != nil || applied != 1 {
		t.Fatalf("sync = %d, %v", applied, err)
	}
}

func TestNewNetworkEmpty(t *testing.T) {
	if _, err := NewNetwork(); err == nil {
		t.Fatal("empty network accepted")
	}
}

// TestPendingTxsAllocatesNothing: a sealer polls PendingTxs on every idle
// pass, so it reads the membership in place rather than copying it — with
// a node down too, whose backlog it must skip.
func TestPendingTxsAllocatesNothing(t *testing.T) {
	nodes, net, _, _ := newTestCluster(t, 3)
	sender := cryptoutil.MustGenerateKey()
	for nonce := range uint64(3) {
		if _, err := submit1(net, mustTx(t, sender, nonce, testContractAddr(), "k", "v")); err != nil {
			t.Fatal(err)
		}
	}
	net.SetDown(nodes[2].Address(), true)
	if got := net.PendingTxs(); got != 3 {
		t.Fatalf("PendingTxs = %d, want 3", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { net.PendingTxs() }); allocs != 0 {
		t.Fatalf("PendingTxs: %.0f allocations per call, want 0", allocs)
	}
}
