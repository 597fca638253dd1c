package chain

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cryptoutil"
)

// signedContentBlock is the block an authority would seal over txs on
// target's head: txs run on an overlay of target's state and the roots
// that come out are signed with key. Signature, roots and gas all check
// out, so only a ledger rule can refuse the block.
func signedContentBlock(t *testing.T, target *Node, key *cryptoutil.KeyPair, txs []*Tx) *Block {
	t.Helper()
	head := target.Head()
	hashes := txHashes(nil, txs)
	overlay := NewOverlay(target.State())
	bctx := BlockContext{Number: head.Header.Number + 1, Time: head.Header.Time.Add(time.Second)}
	receipts := replayTxs(testExecutor{}, overlay, txs, hashes, bctx)
	h := Header{
		Number:      bctx.Number,
		ParentHash:  head.Hash(),
		Time:        bctx.Time,
		Proposer:    key.Address(),
		TxRoot:      txRoot(nil, hashes),
		ReceiptRoot: receiptRoot(nil, receipts),
		StateRoot:   overlay.Root(),
	}
	sig, err := key.Sign(h.SigningBytes())
	if err != nil {
		t.Fatal(err)
	}
	h.Signature = sig
	return &Block{Header: h, Txs: txs}
}

// TestApplyBlockRefusesBrokenNonceSequence: a validly signed block with
// honest roots is still refused when a sender's transactions do not
// continue its committed nonces — a committed transaction replayed, a
// gap, or one transaction twice — and the refusal leaves the follower's
// ledger, nonces, mempool and cost ledger as they were.
func TestApplyBlockRefusesBrokenNonceSequence(t *testing.T) {
	contract := testContractAddr()
	for _, tc := range []struct {
		name string
		txs  func(t *testing.T, fresh *cryptoutil.KeyPair, committed []*Tx) []*Tx
	}{
		{"replay", func(_ *testing.T, _ *cryptoutil.KeyPair, committed []*Tx) []*Tx {
			return []*Tx{committed[0]}
		}},
		{"nonce-gap", func(t *testing.T, fresh *cryptoutil.KeyPair, _ []*Tx) []*Tx {
			return []*Tx{mustTx(t, fresh, 5, contract, "gap", "5")}
		}},
		{"duplicate", func(t *testing.T, fresh *cryptoutil.KeyPair, _ []*Tx) []*Tx {
			tx := mustTx(t, fresh, 0, contract, "dup", "0")
			return []*Tx{tx, tx}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes, net, keys, clk := newTestCluster(t, 2)
			sender, fresh := cryptoutil.MustGenerateKey(), cryptoutil.MustGenerateKey()
			var committed []*Tx
			for nonce := range uint64(2) {
				tx := mustTx(t, sender, nonce, contract, "k", "v")
				if _, err := submit1(net, tx); err != nil {
					t.Fatal(err)
				}
				clk.Advance(time.Second)
				if _, err := net.SealNext(); err != nil {
					t.Fatal(err)
				}
				committed = append(committed, tx)
			}
			target := nodes[1]
			queued := mustTx(t, sender, 2, contract, "k", "queued")
			if _, err := submit1(target, queued); err != nil {
				t.Fatal(err)
			}
			block := signedContentBlock(t, target, keys[0], tc.txs(t, fresh, committed))

			height, head, root := target.Height(), target.Head().Hash(), target.State().Root()
			nonces := []uint64{target.CommittedNonce(sender.Address()), target.CommittedNonce(fresh.Address())}
			pending, spent := target.PendingTxs(), target.Costs().TotalSpent()

			if err := target.ApplyBlock(block, keys[0].PublicBytes()); !errors.Is(err, errNonceSequence) {
				t.Fatalf("ApplyBlock = %v, want %v", err, errNonceSequence)
			}
			if target.Height() != height || target.Head().Hash() != head || target.State().Root() != root {
				t.Fatalf("ledger moved: height %d→%d, head %s→%s, root %s→%s", height, target.Height(),
					head.Short(), target.Head().Hash().Short(), root.Short(), target.State().Root().Short())
			}
			got := []uint64{target.CommittedNonce(sender.Address()), target.CommittedNonce(fresh.Address())}
			if got[0] != nonces[0] || got[1] != nonces[1] {
				t.Fatalf("committed nonces %v, want %v", got, nonces)
			}
			target.mpMu.Lock()
			stillQueued := target.mempool.Contains(queued.Hash())
			target.mpMu.Unlock()
			if target.PendingTxs() != pending || !stillQueued {
				t.Fatalf("PendingTxs = %d (queued tx present: %v), want %d and present", target.PendingTxs(), stillQueued, pending)
			}
			if got := target.Costs().TotalSpent(); got != spent {
				t.Fatalf("cost ledger = %d, want %d", got, spent)
			}

			// The same helper's block over the queued transaction — the
			// sender's next nonce — is accepted: the roots it signs are
			// the ones the follower computes.
			if err := target.ApplyBlock(signedContentBlock(t, target, keys[0], []*Tx{queued}), keys[0].PublicBytes()); err != nil {
				t.Fatalf("in-sequence block refused: %v", err)
			}
			if got := target.CommittedNonce(sender.Address()); got != 3 {
				t.Fatalf("committed nonce after the in-sequence block = %d, want 3", got)
			}
		})
	}
}

// TestNonceSequenceCheckAllocatesNothing: once the scratch map has held a
// block's senders, checking the next block of that size allocates
// nothing.
func TestNonceSequenceCheckAllocatesNothing(t *testing.T) {
	nodes, _, _, _ := newTestCluster(t, 1)
	n := nodes[0]
	var txs []*Tx
	for range 4 {
		sender := cryptoutil.MustGenerateKey()
		for nonce := range uint64(4) {
			txs = append(txs, mustTx(t, sender, nonce, testContractAddr(), "k", "v"))
		}
	}
	n.sealMu.Lock()
	defer n.sealMu.Unlock()
	n.mpMu.Lock()
	defer n.mpMu.Unlock()
	if err := n.checkNonceSequenceLocked(txs); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = n.checkNonceSequenceLocked(txs) }); allocs != 0 {
		t.Fatalf("%v allocations per check, want 0", allocs)
	}
}
