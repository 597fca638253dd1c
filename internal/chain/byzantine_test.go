package chain

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simclock"
	"repro/internal/store"
)

// keyFor resolves the keypair of a block's proposer within a test
// cluster.
func keyFor(t *testing.T, keys []*cryptoutil.KeyPair, proposer cryptoutil.Address) *cryptoutil.KeyPair {
	t.Helper()
	for _, k := range keys {
		if k.Address() == proposer {
			return k
		}
	}
	t.Fatalf("no key for proposer %s", proposer.Short())
	return nil
}

// sealEmpty advances the clock and seals one empty block cluster-wide.
func sealEmpty(t *testing.T, net *Network, clk *simclock.Sim) *Block {
	t.Helper()
	clk.Advance(time.Second)
	block, err := net.SealNext()
	if err != nil {
		t.Fatal(err)
	}
	return block
}

// TestEquivocationEntryPoints drives the double-seal rejection at every
// path a forged sibling block can reach a node: the gossip-delivery
// hook, a direct ApplyBlock call, and WAL-recovery replay of a log that
// contains the sibling. Each entry point must reject (or, for recovery,
// truncate) AND record the same self-certifying evidence.
func TestEquivocationEntryPoints(t *testing.T) {
	forgeOnCluster := func(t *testing.T) ([]*Node, *Network, []*cryptoutil.KeyPair, *Block, *Block, *cryptoutil.KeyPair) {
		nodes, net, keys, clk := newTestCluster(t, 3)
		sealEmpty(t, net, clk) // height 1: genesis must not be the contested height
		committed := sealEmpty(t, net, clk)
		proposerKey := keyFor(t, keys, committed.Header.Proposer)
		forged, err := ForgeEquivocalSibling(committed, proposerKey)
		if err != nil {
			t.Fatal(err)
		}
		if forged.Hash() == committed.Hash() {
			t.Fatal("forged sibling hashes identically to the committed block")
		}
		return nodes, net, keys, committed, forged, proposerKey
	}

	requireEvidence := func(t *testing.T, n *Node, committed, forged *Block) {
		t.Helper()
		evs := n.EquivocationEvidence()
		if len(evs) != 1 {
			t.Fatalf("node holds %d evidence records, want 1", len(evs))
		}
		ev := evs[0]
		if ev.Height != committed.Header.Number || ev.Proposer != committed.Header.Proposer ||
			ev.CommittedHash != committed.Hash() || ev.OfferedHash != forged.Hash() {
			t.Fatalf("evidence %+v does not match the double-seal", ev)
		}
	}

	t.Run("gossip-delivery", func(t *testing.T) {
		nodes, net, _, committed, forged, proposerKey := forgeOnCluster(t)
		for _, n := range nodes {
			err := net.DeliverTo(n.Address(), forged, proposerKey.PublicBytes())
			if !errors.Is(err, ErrEquivocation) {
				t.Fatalf("node %s verdict = %v, want ErrEquivocation", n.Address().Short(), err)
			}
			requireEvidence(t, n, committed, forged)
		}
	})

	t.Run("direct-apply", func(t *testing.T) {
		nodes, _, _, committed, forged, proposerKey := forgeOnCluster(t)
		n := nodes[1]
		if err := n.ApplyBlock(forged, proposerKey.PublicBytes()); !errors.Is(err, ErrEquivocation) {
			t.Fatalf("ApplyBlock = %v, want ErrEquivocation", err)
		}
		// A rebroadcast of the same sibling is rejected again but the
		// evidence is not duplicated.
		if err := n.ApplyBlock(forged, proposerKey.PublicBytes()); !errors.Is(err, ErrEquivocation) {
			t.Fatalf("second ApplyBlock = %v, want ErrEquivocation", err)
		}
		requireEvidence(t, n, committed, forged)
	})

	t.Run("wal-recovery-replay", func(t *testing.T) {
		dir := t.TempDir()
		key := cryptoutil.MustGenerateKey()
		clk := simclock.NewSim(chainEpoch)
		n, err := OpenNode(durableConfig(dir, key, clk))
		if err != nil {
			t.Fatal(err)
		}
		sealSet(t, n, key, clk, 0, "a", "1")
		committed := sealSet(t, n, key, clk, 1, "b", "2")
		forged, err := ForgeEquivocalSibling(committed, key)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		// Append the sibling to the log as if a compromised process had
		// journalled its own double-seal before dying.
		wal, _, err := store.OpenWAL(WALPath(dir), store.Options{Sync: store.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		buf := encodeWALBlock(nil, &walBlock{Header: forged.Header, Txs: forged.Txs, Receipts: forged.Receipts})
		if err := wal.AppendFrame(buf); err != nil {
			t.Fatal(err)
		}
		if err := wal.Close(); err != nil {
			t.Fatal(err)
		}

		n2, err := OpenNode(durableConfig(dir, key, clk))
		if err != nil {
			t.Fatal(err)
		}
		defer n2.Close()
		if n2.Height() != committed.Header.Number {
			t.Fatalf("recovered height %d, want %d (sibling must not extend the chain)", n2.Height(), committed.Header.Number)
		}
		if n2.Head().Hash() != committed.Hash() {
			t.Fatal("recovery replaced the committed head with the forged sibling")
		}
		requireEvidence(t, n2, committed, forged)
	})

	t.Run("rebroadcast-is-not-equivocation", func(t *testing.T) {
		nodes, net, _, committed, _, proposerKey := forgeOnCluster(t)
		err := net.DeliverTo(nodes[1].Address(), committed, proposerKey.PublicBytes())
		if !errors.Is(err, ErrKnownBlock) || !errors.Is(err, ErrBadNumber) {
			t.Fatalf("rebroadcast verdict = %v, want ErrKnownBlock (matching ErrBadNumber)", err)
		}
		if len(nodes[1].EquivocationEvidence()) != 0 {
			t.Fatal("a harmless rebroadcast produced equivocation evidence")
		}
	})

	t.Run("forged-signature-cannot-frame", func(t *testing.T) {
		nodes, _, _, _, forged, proposerKey := forgeOnCluster(t)
		framed := *forged
		framed.Header.Signature = append([]byte(nil), forged.Header.Signature...)
		framed.Header.Signature[0] ^= 0xff
		if err := nodes[1].ApplyBlock(&framed, proposerKey.PublicBytes()); !errors.Is(err, ErrBadHeaderSig) {
			t.Fatalf("framed delivery = %v, want ErrBadHeaderSig", err)
		}
		if len(nodes[1].EquivocationEvidence()) != 0 {
			t.Fatal("an invalid signature produced equivocation evidence (framing attack)")
		}
	})

	t.Run("guard-off-swallows-silently", func(t *testing.T) {
		nodes, _, _, _, forged, proposerKey := forgeOnCluster(t)
		n := nodes[1]
		n.SetEquivocationGuard(false)
		if err := n.ApplyBlock(forged, proposerKey.PublicBytes()); err != nil {
			t.Fatalf("guard-off delivery = %v, want silent nil", err)
		}
		if len(n.EquivocationEvidence()) != 0 {
			t.Fatal("guard-off delivery recorded evidence")
		}
		n.SetEquivocationGuard(true)
		if err := n.ApplyBlock(forged, proposerKey.PublicBytes()); !errors.Is(err, ErrEquivocation) {
			t.Fatalf("re-enabled guard verdict = %v, want ErrEquivocation", err)
		}
	})
}

// TestForgeEquivocalSiblingRefusals pins the forgery helper's own
// guards: it cannot equivocate at genesis and cannot sign for a key it
// does not hold.
func TestForgeEquivocalSiblingRefusals(t *testing.T) {
	nodes, net, keys, clk := newTestCluster(t, 2)
	if _, err := ForgeEquivocalSibling(nodes[0].Head(), keys[0]); err == nil {
		t.Fatal("forged a sibling of genesis")
	}
	block := sealEmpty(t, net, clk)
	wrong := keys[0]
	if wrong.Address() == block.Header.Proposer {
		wrong = keys[1]
	}
	if _, err := ForgeEquivocalSibling(block, wrong); err == nil {
		t.Fatal("forged a sibling with a non-proposer key")
	}
}

// TestInvalidBlockKinds is the table over the invalid-block dimensions:
// each forged block must be rejected by every validator with the
// dimension's distinct sentinel, and the head must not move.
func TestInvalidBlockKinds(t *testing.T) {
	cases := []struct {
		kind InvalidBlockKind
		want error
	}{
		{InvalidStateRoot, ErrBadStateRoot},
		{InvalidSignature, ErrBadHeaderSig},
		{InvalidGas, ErrGasTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			nodes, net, keys, clk := newTestCluster(t, 3)
			sealEmpty(t, net, clk)
			before := nodes[0].Height()
			forged, err := ForgeInvalidBlock(nodes[0], keys[1], tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range nodes {
				if err := net.DeliverTo(n.Address(), forged, keys[1].PublicBytes()); !errors.Is(err, tc.want) {
					t.Fatalf("node %s verdict = %v, want %v", n.Address().Short(), err, tc.want)
				}
				if n.Height() != before {
					t.Fatalf("node %s head moved to %d on an invalid %s block", n.Address().Short(), n.Height(), tc.kind)
				}
			}
		})
	}
}

// TestForgeInvalidBlockNeedsAuthority: the forgery helper refuses a
// non-authority key, so a rejected delivery always isolates the
// corrupted dimension rather than the membership check.
func TestForgeInvalidBlockNeedsAuthority(t *testing.T) {
	nodes, _, _, _ := newTestCluster(t, 2)
	if _, err := ForgeInvalidBlock(nodes[0], cryptoutil.MustGenerateKey(), InvalidStateRoot); err == nil {
		t.Fatal("forged a block with a non-authority key")
	}
}

// TestGasCapAdmission: the per-tx gas cap is enforced at the mempool
// door with its own sentinel, and at-cap transactions still pass.
func TestGasCapAdmission(t *testing.T) {
	n, _, _ := newTestNode(t)
	key := cryptoutil.MustGenerateKey()
	over, err := NewTx(key, 0, testContractAddr(), "set", setArgs{Key: "k", Value: "v"}, MaxTxGasLimit+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit1(n, over); !errors.Is(err, ErrGasTooLarge) {
		t.Fatalf("over-cap submit = %v, want ErrGasTooLarge", err)
	}
	if n.PendingTxs() != 0 {
		t.Fatal("over-cap tx entered the mempool")
	}
	at, err := NewTx(key, 0, testContractAddr(), "set", setArgs{Key: "k", Value: "v"}, MaxTxGasLimit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit1(n, at); err != nil {
		t.Fatalf("at-cap submit = %v, want accepted", err)
	}
}

// TestDeliverToUnknownMember: the byzantine hook refuses addresses
// outside the cluster.
func TestDeliverToUnknownMember(t *testing.T) {
	_, net, keys, clk := newTestCluster(t, 2)
	block := sealEmpty(t, net, clk)
	stranger := cryptoutil.MustGenerateKey().Address()
	if err := net.DeliverTo(stranger, block, keys[0].PublicBytes()); err == nil {
		t.Fatal("delivered to a non-member address")
	}
}
