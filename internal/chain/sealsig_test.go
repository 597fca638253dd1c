package chain

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/obs"
)

// sigTableCounts empties the verified-signature table and returns a
// reader of its (hits, misses) for the duration of the test.
func sigTableCounts(t *testing.T) func() (hits, misses uint64) {
	t.Helper()
	cryptoutil.ForgetVerified()
	reg := obs.NewRegistry()
	cryptoutil.Instrument(reg)
	t.Cleanup(func() { cryptoutil.Instrument(nil) })
	return func() (uint64, uint64) {
		return reg.Counter("cryptoutil_sigcache_hits_total", "").Value(),
			reg.Counter("cryptoutil_sigcache_misses_total", "").Value()
	}
}

// TestHeaderSealWithWarmTable is the byzantine row for the header seal: a
// proposer whose earlier seal every follower has verified (and remembers)
// cannot reuse that signature, or any remembered one, on another header.
func TestHeaderSealWithWarmTable(t *testing.T) {
	counts := sigTableCounts(t)
	nodes, net, keys, clk := newTestCluster(t, 3)
	b1 := sealEmpty(t, net, clk)
	if h, m := counts(); h+m != 2 || m < 1 {
		t.Fatalf("two followers checked one seal: hits=%d misses=%d", h, m)
	}
	proposer := keyFor(t, keys, b1.Header.Proposer)
	var follower *Node
	for _, n := range nodes {
		if n.Address() != proposer.Address() {
			follower = n
			break
		}
	}

	// A block on top of b1 that is valid in every field, by the same
	// authority (any authority may seal out of turn).
	next := Header{
		Number:      2,
		ParentHash:  b1.Hash(),
		Time:        b1.Header.Time.Add(time.Nanosecond),
		Proposer:    proposer.Address(),
		TxRoot:      txRoot(nil, nil),
		ReceiptRoot: receiptRoot(nil, nil),
		StateRoot:   b1.Header.StateRoot,
	}
	sig, err := proposer.Sign(next.SigningBytes())
	if err != nil {
		t.Fatal(err)
	}

	borrowed := next
	borrowed.Signature = b1.Header.Signature // verified, remembered — for b1's header
	if err := follower.ApplyBlock(&Block{Header: borrowed}, proposer.PublicBytes()); !errors.Is(err, ErrBadHeaderSig) {
		t.Fatalf("seal borrowed from the parent block: %v, want ErrBadHeaderSig", err)
	}
	// The right signature under another authority's key and address.
	other := keyFor(t, keys, follower.Address())
	stolen := next
	stolen.Proposer = other.Address()
	stolen.Signature = sig
	if err := follower.ApplyBlock(&Block{Header: stolen}, other.PublicBytes()); !errors.Is(err, ErrBadHeaderSig) {
		t.Fatalf("seal under another authority's name: %v, want ErrBadHeaderSig", err)
	}
	// The right proposer address with a key that is not its own.
	signedNext := next
	signedNext.Signature = sig
	if err := follower.ApplyBlock(&Block{Header: signedNext}, other.PublicBytes()); !errors.Is(err, ErrBadHeaderSig) {
		t.Fatalf("proposer key that does not hash to the proposer: %v, want ErrBadHeaderSig", err)
	}

	hits0, _ := counts()
	if err := follower.ApplyBlock(&Block{Header: signedNext}, proposer.PublicBytes()); err != nil {
		t.Fatalf("the properly sealed block: %v", err)
	}
	// Now that seal is remembered too, and still covers only its header.
	moved := signedNext
	moved.Number, moved.ParentHash = 3, signedNext.Hash()
	moved.Time = moved.Time.Add(time.Nanosecond)
	if err := follower.ApplyBlock(&Block{Header: moved}, proposer.PublicBytes()); !errors.Is(err, ErrBadHeaderSig) {
		t.Fatalf("remembered seal on the next height: %v, want ErrBadHeaderSig", err)
	}
	if hits, _ := counts(); hits != hits0 {
		t.Fatalf("%d table hits among rejected and first-sighting seals", hits-hits0)
	}
}

// TestStaleDeliveryWithWarmTable: a rebroadcast equivocal sibling is
// verified once and recognised afterwards; a sibling with a forged seal is
// refused every time it is offered and never frames the proposer.
func TestStaleDeliveryWithWarmTable(t *testing.T) {
	counts := sigTableCounts(t)
	nodes, net, keys, clk := newTestCluster(t, 3)
	sealEmpty(t, net, clk)
	committed := sealEmpty(t, net, clk)
	proposer := keyFor(t, keys, committed.Header.Proposer)
	sibling, err := ForgeEquivocalSibling(committed, proposer)
	if err != nil {
		t.Fatal(err)
	}
	forged := &Block{Header: sibling.Header}
	forged.Header.Time = forged.Header.Time.Add(time.Nanosecond) // the seal no longer covers it

	target := nodes[0]
	for range 2 {
		if err := target.ApplyBlock(forged, proposer.PublicBytes()); !errors.Is(err, ErrBadHeaderSig) {
			t.Fatalf("forged sibling: %v, want ErrBadHeaderSig", err)
		}
	}
	if n := len(target.EquivocationEvidence()); n != 0 {
		t.Fatalf("%d evidence records from a forged seal", n)
	}
	hits0, misses0 := counts()
	for range 3 {
		if err := target.ApplyBlock(sibling, proposer.PublicBytes()); !errors.Is(err, ErrEquivocation) {
			t.Fatalf("equivocal sibling: %v, want ErrEquivocation", err)
		}
	}
	if h, m := counts(); h-hits0 != 2 || m-misses0 != 1 {
		t.Fatalf("sibling offered three times: %d hits %d misses, want 2 and 1", h-hits0, m-misses0)
	}
	if n := len(target.EquivocationEvidence()); n != 1 {
		t.Fatalf("%d evidence records, want 1", n)
	}
}

// TestSealOnceAcrossFollowers: SealNext hands each sealed header to both
// followers at once, and the seal costs one ECDSA verification between
// them — the follower that comes second, even while the first is still
// verifying, is answered by the table. So N blocks move the miss counter
// by exactly N, and the hit counter by N too.
func TestSealOnceAcrossFollowers(t *testing.T) {
	counts := sigTableCounts(t)
	_, net, _, clk := newTestCluster(t, 3)
	const blocks = 50
	for range blocks {
		sealEmpty(t, net, clk)
	}
	if h, m := counts(); m != blocks || h != blocks {
		t.Fatalf("%d blocks, two followers each: hits=%d misses=%d, want %d and %d", blocks, h, m, blocks, blocks)
	}
}
