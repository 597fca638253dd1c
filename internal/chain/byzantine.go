package chain

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cryptoutil"
)

// This file is the chain layer's byzantine-fault surface: the rejection
// path for equivocating proposers (with evidence collection), forgery
// helpers that manufacture the adversarial artifacts fault injection
// needs (a validly signed sibling block at an already-committed height;
// blocks invalid in exactly one dimension), and the network-level
// byzantine-delivery hook that injects such a block into a single node's
// validation path as if a malicious peer had gossiped it.

// Byzantine-rejection errors.
var (
	// ErrKnownBlock reports a delivery of a block the node has already
	// committed — a harmless rebroadcast, not an attack. It matches
	// ErrBadNumber under errors.Is (the pre-evidence classification).
	ErrKnownBlock = fmt.Errorf("%w: block already committed", ErrBadNumber)
	// ErrEquivocation reports a validly signed block that conflicts with a
	// committed block at the same height from the same proposer — proof
	// the proposer sealed twice. The receiving node records
	// EquivocationEvidence before returning it.
	ErrEquivocation = errors.New("chain: proposer equivocated")
)

// EquivocationEvidence is a node's record of a detected double-seal: the
// proposer, the height, and the two conflicting block hashes. Both blocks
// carried a valid signature from Proposer (nodes verify before recording,
// so an attacker cannot frame an honest authority), which makes the pair
// self-certifying slashing material.
type EquivocationEvidence struct {
	Height        uint64
	Proposer      cryptoutil.Address
	CommittedHash cryptoutil.Hash
	OfferedHash   cryptoutil.Hash
}

// handleStaleDelivery classifies a delivered block whose height is at or
// below the local head: a byte-identical rebroadcast is ErrKnownBlock; a
// conflicting block validly signed by the proposer already committed at
// that height is an equivocation (evidence is recorded); anything else is
// the ordinary ErrBadNumber. Caller holds sealMu.
func (n *Node) handleStaleDelivery(block *Block, proposerKey []byte) error {
	h := block.Header
	committed := n.BlockByNumber(h.Number)
	if committed == nil {
		return fmt.Errorf("%w: got %d, want %d", ErrBadNumber, h.Number, n.Height()+1)
	}
	if committed.Hash() == block.Hash() {
		return fmt.Errorf("%w: height %d", ErrKnownBlock, h.Number)
	}
	if committed.Header.Proposer != h.Proposer || !n.isAuthority(h.Proposer) {
		return fmt.Errorf("%w: got %d, want %d", ErrBadNumber, h.Number, n.Height()+1)
	}
	// Same height, same proposer, different content. Verify the signature
	// BEFORE recording evidence: a forged signature must not let an
	// attacker frame an honest authority as an equivocator.
	if err := h.verifySeal(proposerKey); err != nil {
		return err
	}
	if n.equivGuardOff.Load() {
		// Test hook (SetEquivocationGuard(false)): swallow the conflicting
		// block without evidence or error. The scenario engine's
		// no-equivocation-accepted invariant exists to catch exactly this.
		return nil
	}
	n.recordEquivocation(EquivocationEvidence{
		Height:        h.Number,
		Proposer:      h.Proposer,
		CommittedHash: committed.Hash(),
		OfferedHash:   block.Hash(),
	})
	return fmt.Errorf("%w: %s sealed two blocks at height %d", ErrEquivocation, h.Proposer.Short(), h.Number)
}

// recordEquivocation appends evidence, deduplicating rebroadcasts of the
// same conflicting block.
func (n *Node) recordEquivocation(ev EquivocationEvidence) {
	n.evMu.Lock()
	defer n.evMu.Unlock()
	for _, have := range n.evidence {
		if have.Height == ev.Height && have.OfferedHash == ev.OfferedHash {
			return
		}
	}
	n.evidence = append(n.evidence, ev)
}

// EquivocationEvidence returns the double-seal evidence this node has
// collected (in detection order). Evidence lives in memory only: a
// crash-restarted node starts with none, except for equivocal records
// recovery itself found in its WAL.
func (n *Node) EquivocationEvidence() []EquivocationEvidence {
	n.evMu.Lock()
	defer n.evMu.Unlock()
	return append([]EquivocationEvidence(nil), n.evidence...)
}

// SetEquivocationGuard enables (default) or disables the equivocation
// rejection path. Disabling is strictly a fault-injection hook: the node
// then silently ignores conflicting same-height blocks instead of
// rejecting them with evidence, which the scenario engine's soak must
// detect as an invariant violation.
func (n *Node) SetEquivocationGuard(enabled bool) {
	n.equivGuardOff.Store(!enabled)
}

// ForgeEquivocalSibling builds a second, distinct block at base's height,
// validly signed by the same proposer: the timestamp is nudged forward
// one nanosecond and the header re-signed, so every consensus field but
// the time (and therefore the hash) matches. key must be the proposer's
// key — this helper plays the compromised authority, it cannot forge
// signatures it does not hold.
func ForgeEquivocalSibling(base *Block, key *cryptoutil.KeyPair) (*Block, error) {
	if base.Header.Number == 0 {
		return nil, errors.New("chain: cannot equivocate at genesis")
	}
	if key.Address() != base.Header.Proposer {
		return nil, fmt.Errorf("chain: key %s is not base proposer %s",
			key.Address().Short(), base.Header.Proposer.Short())
	}
	h := base.Header
	h.Time = h.Time.Add(time.Nanosecond)
	sig, err := key.Sign(h.SigningBytes())
	if err != nil {
		return nil, err
	}
	h.Signature = sig
	return &Block{Header: h, Txs: base.Txs, Receipts: base.Receipts}, nil
}

// InvalidBlockKind selects the single dimension in which ForgeInvalidBlock
// corrupts an otherwise valid block.
type InvalidBlockKind int

const (
	// InvalidStateRoot commits to a state root execution cannot produce.
	InvalidStateRoot InvalidBlockKind = iota
	// InvalidSignature carries a corrupted proposer signature.
	InvalidSignature
	// InvalidGas includes a (properly signed) transaction whose gas limit
	// exceeds MaxTxGasLimit.
	InvalidGas
)

func (k InvalidBlockKind) String() string {
	switch k {
	case InvalidStateRoot:
		return "state-root"
	case InvalidSignature:
		return "signature"
	case InvalidGas:
		return "gas"
	}
	return fmt.Sprintf("invalid-kind(%d)", int(k))
}

// ForgeInvalidBlock builds a block extending target's head that is
// invalid in exactly the requested dimension and valid in every other,
// signed by key (which must be an authority so rejection isolates the
// corrupted dimension rather than tripping the membership check).
// Delivering it to an honest node must fail with the kind's distinct
// error: ErrBadStateRoot, ErrBadHeaderSig, or ErrGasTooLarge.
func ForgeInvalidBlock(target *Node, key *cryptoutil.KeyPair, kind InvalidBlockKind) (*Block, error) {
	if !target.isAuthority(key.Address()) {
		return nil, fmt.Errorf("chain: %s is not an authority", key.Address().Short())
	}
	parent := target.Head()
	var txs []*Tx
	if kind == InvalidGas {
		// A validly signed transaction from a throwaway sender, over the
		// per-transaction gas cap. Admission would refuse it; a byzantine
		// proposer writes it straight into a block.
		tx, err := NewTx(cryptoutil.MustGenerateKey(), 0, cryptoutil.Address{}, "overgas",
			nil, MaxTxGasLimit+1)
		if err != nil {
			return nil, err
		}
		txs = []*Tx{tx}
	}
	h := Header{
		Number:      parent.Header.Number + 1,
		ParentHash:  parent.Hash(),
		Time:        parent.Header.Time.Add(time.Nanosecond),
		Proposer:    key.Address(),
		TxRoot:      txRoot(nil, txHashes(nil, txs)),
		ReceiptRoot: receiptRoot(nil, nil),
		// An empty block leaves the state untouched, so the parent's root
		// is the correct commitment (the over-gas block is rejected before
		// execution and the roots never compared).
		StateRoot: parent.Header.StateRoot,
	}
	if kind == InvalidStateRoot {
		h.StateRoot[0] ^= 0xff
	}
	sig, err := key.Sign(h.SigningBytes())
	if err != nil {
		return nil, err
	}
	h.Signature = sig
	if kind == InvalidSignature {
		h.Signature = append([]byte(nil), sig...)
		h.Signature[0] ^= 0xff
	}
	return &Block{Header: h, Txs: txs}, nil
}

// DeliverTo injects a block into one member's validation path exactly as
// a gossip delivery would — regardless of liveness or partition state.
// This is the byzantine-delivery hook: fault injection uses it to model a
// malicious peer feeding a node a block the honest broadcast path would
// never send. The target's ApplyBlock verdict is returned verbatim.
func (net *Network) DeliverTo(addr cryptoutil.Address, block *Block, proposerKey []byte) error {
	net.mu.Lock()
	var target *Node
	for _, n := range net.nodes {
		if n.Address() == addr {
			target = n
			break
		}
	}
	net.mu.Unlock()
	if target == nil {
		return fmt.Errorf("chain: %s is not a cluster member", addr.Short())
	}
	return target.ApplyBlock(block, proposerKey)
}
