package chain

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
)

// TestConcurrentBatchSubmitWhileSealing hammers a 3-authority cluster
// with batch submissions from many senders while consensus rounds run
// concurrently and readers poll every query surface. Run under -race it
// exercises the mpMu/mu lock split: admission, sealing, validation, and
// reads all overlap. Afterwards every submitted transaction must be
// committed exactly once and all nodes must agree on the chain. With one
// node partitioned away, submission and sealing ride the quorum side only
// and the healed minority must converge on the same chain.
func TestConcurrentBatchSubmitWhileSealing(t *testing.T) {
	t.Run("all reachable", func(t *testing.T) { concurrentBatchSubmitWhileSealing(t, false) })
	t.Run("one node partitioned", func(t *testing.T) { concurrentBatchSubmitWhileSealing(t, true) })
}

func concurrentBatchSubmitWhileSealing(t *testing.T, partitioned bool) {
	nodes, net, _, clk := newTestCluster(t, 3)
	contract := testContractAddr()
	if partitioned {
		cells := map[cryptoutil.Address]int{nodes[0].Address(): 0, nodes[1].Address(): 0, nodes[2].Address(): 1}
		if err := net.Partition(cells); err != nil {
			t.Fatal(err)
		}
	}

	const senders = 8
	const batchesPerSender = 6
	const batchSize = 5
	const totalTxs = senders * batchesPerSender * batchSize

	var sealWG, readWG sync.WaitGroup
	stopSeal := make(chan struct{})
	stopRead := make(chan struct{})

	// Consensus pump: seal whenever transactions are pending.
	sealWG.Add(1)
	go func() {
		defer sealWG.Done()
		for {
			select {
			case <-stopSeal:
				return
			default:
			}
			if nodes[0].PendingTxs() == 0 {
				time.Sleep(50 * time.Microsecond)
				continue
			}
			clk.Advance(time.Millisecond)
			if _, err := net.SealNext(); err != nil {
				t.Errorf("SealNext: %v", err)
				return
			}
		}
	}()

	// Readers: every read path must stay consistent while blocks commit.
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			for _, n := range nodes {
				_ = n.Height()
				_ = n.Head()
				_ = n.PendingTxs()
				// The key may not be committed yet; the point is that the
				// read path runs in parallel with everything else.
				_, _ = n.Query(contract, "get", []byte(`{"key":"k0"}`))
			}
		}
	}()

	// Senders: each goroutine owns one key and submits its batches in
	// nonce order through the network broadcast path.
	hashes := make([][]cryptoutil.Hash, senders)
	var submitWG sync.WaitGroup
	for s := range senders {
		submitWG.Add(1)
		go func() {
			defer submitWG.Done()
			key := cryptoutil.MustGenerateKey()
			nonce := uint64(0)
			for b := range batchesPerSender {
				batch := make([]*Tx, batchSize)
				for i := range batch {
					batch[i] = mustTx(t, key, nonce, contract, "k0", "v")
					nonce++
				}
				// Even senders use the all-or-nothing form, odd ones
				// the verdict form; on an honest batch they agree.
				submit := net.SubmitAllOrNothing
				if s%2 == 1 {
					submit = func(txs []*Tx) ([]cryptoutil.Hash, error) { return submitAll(net, txs) }
				}
				hs, err := submit(batch)
				if err != nil {
					t.Errorf("sender %d batch %d: %v", s, b, err)
					return
				}
				hashes[s] = append(hashes[s], hs...)
			}
		}()
	}
	submitWG.Wait()
	close(stopSeal)
	sealWG.Wait()
	close(stopRead)
	readWG.Wait()

	// Drain whatever is still pending.
	for nodes[0].PendingTxs() > 0 {
		clk.Advance(time.Millisecond)
		if _, err := net.SealNext(); err != nil {
			t.Fatal(err)
		}
	}

	if partitioned {
		if _, _, err := net.Heal(); err != nil {
			t.Fatal(err)
		}
	}

	// Every transaction committed exactly once, on every node.
	for _, n := range nodes {
		if n.PendingTxs() != 0 {
			t.Fatalf("node %s still has %d pending txs", n.Address().Short(), n.PendingTxs())
		}
		committed := 0
		seen := make(map[cryptoutil.Hash]bool)
		for num := uint64(1); num <= n.Height(); num++ {
			for _, tx := range n.BlockByNumber(num).Txs {
				h := tx.Hash()
				if seen[h] {
					t.Fatalf("tx %s committed twice on node %s", h, n.Address().Short())
				}
				seen[h] = true
				committed++
			}
		}
		if committed != totalTxs {
			t.Fatalf("node %s committed %d txs, want %d", n.Address().Short(), committed, totalTxs)
		}
		for s := range senders {
			for _, h := range hashes[s] {
				if !seen[h] {
					t.Fatalf("tx %s from sender %d missing on node %s", h, s, n.Address().Short())
				}
			}
		}
	}

	// All nodes converged on the same head.
	head := nodes[0].Head().Hash()
	for _, n := range nodes[1:] {
		if n.Head().Hash() != head {
			t.Fatalf("node %s diverged: head %s vs %s", n.Address().Short(), n.Head().Hash(), head)
		}
	}
}

// TestConcurrentSubmitSingleNode races many per-sender Submit streams
// against a node sealing continuously, checking the split between the
// admission lock and the ledger lock on a single node.
func TestConcurrentSubmitSingleNode(t *testing.T) {
	node, _, clk := newTestNode(t)
	contract := testContractAddr()

	const senders = 6
	const txsPerSender = 40

	stop := make(chan struct{})
	var sealWG sync.WaitGroup
	sealWG.Add(1)
	go func() {
		defer sealWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if node.PendingTxs() == 0 {
				time.Sleep(50 * time.Microsecond)
				continue
			}
			clk.Advance(time.Millisecond)
			if _, err := node.Seal(); err != nil {
				t.Errorf("Seal: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := cryptoutil.MustGenerateKey()
			for i := range txsPerSender {
				if _, err := submit1(node, mustTx(t, key, uint64(i), contract, "k", "v")); err != nil {
					t.Errorf("sender %d tx %d: %v", s, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	sealWG.Wait()

	for node.PendingTxs() > 0 {
		clk.Advance(time.Millisecond)
		if _, err := node.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	committed := 0
	for num := uint64(1); num <= node.Height(); num++ {
		committed += len(node.BlockByNumber(num).Txs)
	}
	if committed != senders*txsPerSender {
		t.Fatalf("committed %d txs, want %d", committed, senders*txsPerSender)
	}
}

// TestCostLedgerVisibleWithReceipt: whoever can see a receipt can see its
// gas in the cost ledger. A waiter on each node of a two-validator
// cluster wakes on the last transaction of a block and at once compares
// the node's ledger with the gas in its committed receipts — on the
// proposer (Seal) and on the follower (ApplyBlock), round after round.
// Charging after commitBlock returned, as both paths once did, leaves a
// window in which the waiter reads the ledger a block short.
func TestCostLedgerVisibleWithReceipt(t *testing.T) {
	nodes, net, _, clk := newTestCluster(t, 2)
	sender := cryptoutil.MustGenerateKey()
	const rounds, perBlock = 60, 32

	nonce := uint64(0)
	for round := range rounds {
		txs := make([]*Tx, perBlock)
		for i := range txs {
			txs[i] = mustTx(t, sender, nonce, testContractAddr(), "k", "v")
			nonce++
		}
		if _, err := net.SubmitAllOrNothing(txs); err != nil {
			t.Fatal(err)
		}
		last := txs[perBlock-1].Hash()

		var wg sync.WaitGroup
		for i, n := range nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := n.WaitForReceipt(context.Background(), last); err != nil {
					t.Errorf("round %d node %d: %v", round, i, err)
					return
				}
				ledger := n.Costs().TotalSpent()
				var fromReceipts uint64
				for h := uint64(1); h <= n.Height(); h++ {
					for _, r := range n.BlockByNumber(h).Receipts {
						fromReceipts += r.GasUsed
					}
				}
				if ledger != fromReceipts {
					t.Errorf("round %d node %d: cost ledger %d != receipts total %d", round, i, ledger, fromReceipts)
				}
			}()
		}
		clk.Advance(time.Millisecond)
		if _, err := net.SealNext(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}
