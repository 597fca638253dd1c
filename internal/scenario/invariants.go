package scenario

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/cryptoutil"
	"repro/internal/podmanager"
	"repro/internal/solid"
)

// Invariant is a system-wide predicate over live deployment state plus
// the scenario model. Check returns nil when the invariant holds.
type Invariant struct {
	Name  string
	Check func(w *World) error
}

// DefaultInvariants returns the engine's standard invariant suite.
func DefaultInvariants() []Invariant {
	return []Invariant{
		{"funds-conservation", checkFundsConservation},
		{"nonce-monotonicity", checkNonceMonotonicity},
		{"head-agreement", checkHeadAgreement},
		{"gas-ledger", checkGasLedger},
		{"acl-isolation", checkACLIsolation},
		{"published-immutability", checkPublishedImmutability},
		{"policy-consistency", checkPolicyConsistency},
		{"retention-enforcement", checkRetentionEnforcement},
		{"honest-compliance", checkHonestCompliance},
		{"recovery-equivalence", checkRecoveryEquivalence},
		// The adversarial invariants stay last, and state-integrity
		// stays between them and the ten above, so DefaultInvariants()[:10]
		// remains an honest-path suite (the adversarial-throughput guard
		// times exactly the invariants after that prefix).
		{"state-integrity", checkStateIntegrity},
		{"no-equivocation-accepted", checkNoEquivocationAccepted},
		{"partition-convergence", checkPartitionConvergence},
		{"starvation-freedom", checkStarvationFreedom},
	}
}

// checkStarvationFreedom: priced admission never starves honest
// traffic — for every injected transaction flood, the adequately-priced
// settlement probe committed within the episode's sealed-block bound,
// and no live mempool backlog ever exceeds the configured capacity
// (overload is shed at admission, not absorbed as unbounded growth).
func checkStarvationFreedom(w *World) error {
	for _, ep := range w.floodEpisodes {
		if ep.blocks == 0 || ep.blocks > ep.bound {
			return fmt.Errorf("flood at step %d: adequately-priced settlement not committed within %d blocks",
				ep.step, ep.bound)
		}
	}
	if pending := w.d.Network.PendingTxs(); pending > floodPoolCap {
		return fmt.Errorf("mempool backlog %d exceeds configured capacity %d", pending, floodPoolCap)
	}
	return nil
}

// checkNoEquivocationAccepted: no honest node ever commits an
// equivocator's second block — for every injected double-seal, each live
// validator's chain holds the honestly committed block at the contested
// height (never the forged sibling), and every targeted validator
// surfaces matching evidence of the attack. A crash-restarted target is
// excused from the evidence obligation (its RAM is legitimately gone;
// the world prunes it) but never from the chain-content obligation.
func checkNoEquivocationAccepted(w *World) error {
	for ai, att := range w.equivAttempts {
		for i, n := range w.d.Nodes {
			if n == nil || w.d.ValidatorDown(i) {
				continue
			}
			b := n.BlockByNumber(att.height)
			if b == nil {
				continue // lagging behind the contested height (partition minority)
			}
			switch h := b.Hash(); {
			case h == att.forged:
				return fmt.Errorf("attempt %d: validator %d committed the forged block at height %d",
					ai, i, att.height)
			case h != att.committed:
				return fmt.Errorf("attempt %d: validator %d holds unexpected block %s at height %d",
					ai, i, h.Short(), att.height)
			}
		}
		for t := range att.targets {
			n := w.d.Nodes[t]
			if n == nil || w.d.ValidatorDown(t) {
				continue // frozen or gone; re-judged once it is back
			}
			found := false
			for _, ev := range n.EquivocationEvidence() {
				if ev.Height == att.height && ev.OfferedHash == att.forged {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("attempt %d: validator %d holds no evidence for the double-seal at height %d",
					ai, t, att.height)
			}
		}
	}
	return nil
}

// checkPartitionConvergence: partitions never cost committed blocks.
// While split, every isolated validator's chain is a strict prefix of
// the quorum chain (the minority cannot seal, so it can never fork);
// and across every heal, each validator's pre-heal head remains
// canonical forever — convergence only ever extends chains, it never
// rolls one back.
func checkPartitionConvergence(w *World) error {
	ref := w.d.LiveNode()
	if ref == nil {
		return errors.New("no live node")
	}
	for i, n := range w.d.Nodes {
		if n == nil || w.d.ValidatorDown(i) || !w.d.ValidatorPartitioned(i) {
			continue
		}
		head := n.Head()
		qb := ref.BlockByNumber(head.Header.Number)
		if qb == nil || qb.Hash() != head.Hash() {
			return fmt.Errorf("partitioned validator %d head (height %d) is not on the quorum chain",
				i, head.Header.Number)
		}
	}
	for _, mark := range w.healedHeads {
		b := ref.BlockByNumber(mark.height)
		if b == nil {
			return fmt.Errorf("pre-heal head at height %d rolled back (chain now at %d)",
				mark.height, ref.Height())
		}
		if b.Hash() != mark.hash {
			return fmt.Errorf("pre-heal head at height %d replaced: %s != %s",
				mark.height, b.Hash().Short(), mark.hash.Short())
		}
	}
	return nil
}

// checkRecoveryEquivalence: durability is lossless — every live
// validator's in-memory state reproduces the root its own head block
// committed, and every validator that has ever been restarted from disk
// stands at the live cluster's head with an identical state root. A
// recovery that dropped, duplicated, or reordered as much as one state
// delta shows up here as a root mismatch.
//
// Because scenario worlds are always durable, every step drives the
// overlay commit path (copy-on-write execution, off-lock binary WAL
// append, background snapshots), so this invariant doubles as the
// system-wide differential check that the overlay replay and the
// recovered replay agree; chain.TestDifferentialOverlayVsCloneReplay
// pins the overlay against an independent map model directly.
func checkRecoveryEquivalence(w *World) error {
	ref := w.d.LiveNode()
	if ref == nil {
		return errors.New("no live node")
	}
	refHead := ref.Head()
	for i, n := range w.d.Nodes {
		if n == nil || w.d.ValidatorDown(i) {
			continue
		}
		head := n.Head()
		if root := n.State().Root(); root != head.Header.StateRoot {
			return fmt.Errorf("validator %d: live state root %s != committed head root %s (height %d)",
				i, root.Short(), head.Header.StateRoot.Short(), head.Header.Number)
		}
	}
	for i := range w.restarted {
		n := w.d.Nodes[i]
		if n == nil || w.d.ValidatorDown(i) || w.d.ValidatorPartitioned(i) {
			continue // re-crashed, re-failed, or cut off since: frozen by design
		}
		if got := n.Head().Hash(); got != refHead.Hash() {
			return fmt.Errorf("restarted validator %d head %s diverges from live head %s",
				i, got.Short(), refHead.Hash().Short())
		}
		if got := n.State().Root(); got != refHead.Header.StateRoot {
			return fmt.Errorf("restarted validator %d state root %s != live root %s",
				i, got.Short(), refHead.Header.StateRoot.Short())
		}
	}
	return nil
}

// checkStateIntegrity: on every live validator, the committed state
// root is still the XOR of its leaves' hashes over the bytes the state
// holds now. A value slice is handed over, not copied, from the contract
// to the committed state and shared with events, receipts and snapshot
// exports; the root was hashed from the bytes when they were stored, so
// a later write through any of those slices breaks the equality.
func checkStateIntegrity(w *World) error {
	for i, n := range w.d.Nodes {
		if n == nil || w.d.ValidatorDown(i) {
			continue
		}
		st := n.State()
		values := st.ExportShared()
		var root cryptoutil.Hash
		for _, k := range slices.Sorted(maps.Keys(values)) {
			h := cryptoutil.HashOf([]byte(k), values[k])
			for j := range root {
				root[j] ^= h[j]
			}
		}
		if want := st.Root(); root != want {
			return fmt.Errorf("validator %d: state root %s, but its stored values hash to %s",
				i, want.Short(), root.Short())
		}
	}
	return nil
}

// checkFundsConservation: the market mints and burns nothing — every fee
// ever paid is either still held as revenue or was credited to an owner.
func checkFundsConservation(w *World) error {
	feesPaid, earned, revenue := w.d.Market.Totals()
	if feesPaid != earned+revenue {
		return fmt.Errorf("fees paid %d != earned %d + revenue %d", feesPaid, earned, revenue)
	}
	return nil
}

// checkNonceMonotonicity: on every live validator — a partitioned
// minority's prefix included — per-sender nonces across its committed
// chain are gapless and strictly increasing from 0, and its committed
// nonce bookkeeping matches its own ledger. A replayed transaction that
// executed twice shows up as a repeated nonce here.
func checkNonceMonotonicity(w *World) error {
	for i, n := range w.d.Nodes {
		if w.d.ValidatorDown(i) {
			continue
		}
		next := make(map[cryptoutil.Address]uint64)
		height := n.Height()
		for h := uint64(1); h <= height; h++ {
			b := n.BlockByNumber(h)
			if b == nil {
				return fmt.Errorf("validator %d: block %d missing below height %d", i, h, height)
			}
			for _, tx := range b.Txs {
				if tx.Nonce != next[tx.From] {
					return fmt.Errorf("validator %d block %d: sender %s nonce %d, want %d",
						i, h, tx.From.Short(), tx.Nonce, next[tx.From])
				}
				next[tx.From]++
			}
		}
		for addr, want := range next {
			if got := n.CommittedNonce(addr); got != want {
				return fmt.Errorf("validator %d sender %s: committed nonce %d, ledger says %d",
					i, addr.Short(), got, want)
			}
		}
	}
	return nil
}

// checkHeadAgreement: every live validator agrees on the chain tip.
// Partitioned minority validators are exempt while the split lasts —
// they stall at their pre-split head by design (partition-convergence
// separately holds that stalled head to be a quorum-chain prefix), and
// rejoin this check the moment the partition heals.
func checkHeadAgreement(w *World) error {
	if ref, i := w.splitHead(); i >= 0 {
		return fmt.Errorf("validator %d head (height %d) disagrees with validator %d (height %d)",
			i, w.d.Nodes[i].Head().Header.Number, ref, w.d.Nodes[ref].Head().Header.Number)
	}
	return nil
}

// checkGasLedger: each live node's cost ledger equals the gas recorded
// in its committed receipts — gas is accounted exactly once per
// transaction, whether the node sealed, validated, or synced the block.
func checkGasLedger(w *World) error {
	for i, n := range w.d.Nodes {
		if w.d.ValidatorDown(i) {
			continue
		}
		var fromReceipts uint64
		for h := uint64(1); h <= n.Height(); h++ {
			b := n.BlockByNumber(h)
			if b == nil {
				continue
			}
			for _, r := range b.Receipts {
				fromReceipts += r.GasUsed
			}
		}
		if ledger := n.Costs().TotalSpent(); ledger != fromReceipts {
			return fmt.Errorf("validator %d: cost ledger %d != receipts total %d", i, ledger, fromReceipts)
		}
	}
	return nil
}

// checkACLIsolation: a consumer is authorized on a resource iff some
// grant step granted it — never through another consumer's grant, and a
// given grant is never silently revoked by a later one.
func checkACLIsolation(w *World) error {
	for ri, res := range w.resources {
		pod := w.owners[res.ownerIdx].o.Manager.Pod()
		for ci, consumer := range w.consumers {
			err := pod.Authorize(consumer.c.WebID, res.path, solid.ModeRead)
			granted := res.isGranted(ci)
			if granted && err != nil {
				return fmt.Errorf("resource %d: granted consumer %s denied (gen %d): %v",
					ri, consumer.name, pod.ACLGeneration(), err)
			}
			if !granted && err == nil {
				return fmt.Errorf("resource %d: ungranted consumer %s authorized (gen %d)",
					ri, consumer.name, pod.ACLGeneration())
			}
		}
	}
	return nil
}

// checkPublishedImmutability: the bytes a pod serves for an
// ever-published resource are exactly the bytes published.
func checkPublishedImmutability(w *World) error {
	for ri, res := range w.resources {
		owner := w.owners[res.ownerIdx]
		got, err := owner.o.Manager.Pod().Get(owner.o.WebID, res.path)
		if err != nil {
			return fmt.Errorf("resource %d (%s) unreadable: %v", ri, res.path, err)
		}
		if sha256.Sum256(got.Data) != res.sum {
			return fmt.Errorf("resource %d (%s): published bytes changed", ri, res.path)
		}
	}
	return nil
}

// checkPolicyConsistency: the chain's resource record, the policy
// document in the owner's pod (byte for byte the Turtle of the chain's
// policy), and every TEE-held copy agree on the current policy version
// and withdrawal status.
func checkPolicyConsistency(w *World) error {
	for ri, res := range w.resources {
		owner := w.owners[res.ownerIdx]
		rec, err := owner.o.Manager.DE().GetResource(res.iri)
		if err != nil {
			return fmt.Errorf("resource %d: chain record unreadable: %v", ri, err)
		}
		if rec.Policy.Version != res.version {
			return fmt.Errorf("resource %d: chain policy v%d, model v%d", ri, rec.Policy.Version, res.version)
		}
		if rec.Withdrawn != res.withdrawn {
			return fmt.Errorf("resource %d: chain withdrawn=%v, model %v", ri, rec.Withdrawn, res.withdrawn)
		}
		doc, err := owner.o.Manager.Pod().Get(owner.o.WebID, podmanager.PolicyPath(res.path))
		if err != nil {
			return fmt.Errorf("resource %d: policy document unreadable: %v", ri, err)
		}
		if !bytes.Equal(doc.Data, podmanager.PolicyDocument(rec.Policy)) {
			return fmt.Errorf("resource %d: the pod's policy document is not the chain's policy v%d", ri, rec.Policy.Version)
		}
		for _, ci := range res.granted {
			cp := res.copies[ci]
			if cp == nil || !cp.stored {
				continue
			}
			if got := w.consumers[ci].c.App.PolicyVersion(res.iri); got != res.version {
				return fmt.Errorf("resource %d: consumer %s enforces policy v%d, current is v%d",
					ri, w.consumers[ci].name, got, res.version)
			}
		}
	}
	return nil
}

// checkRetentionEnforcement: a TEE holds a live copy exactly when the
// model says the retention deadline still allows it — deletion
// obligations fire across clock skips, and no copy is deleted early.
func checkRetentionEnforcement(w *World) error {
	for ri, res := range w.resources {
		for _, ci := range res.granted {
			cp := res.copies[ci]
			if cp == nil || !cp.stored {
				continue
			}
			holds := w.consumers[ci].c.App.Holds(res.iri)
			if holds != cp.live {
				return fmt.Errorf("resource %d: consumer %s holds=%v, model live=%v (deadline %v, now %v)",
					ri, w.consumers[ci].name, holds, cp.live, cp.deadline, w.now())
			}
		}
	}
	return nil
}

// checkHonestCompliance: monitoring never records a violation against a
// resource whose holders all met their deletion obligations on time.
// (Holders flagged everLate — e.g. a retention window tightened to below
// a copy's age — are legitimately reported and excluded here.)
func checkHonestCompliance(w *World) error {
	for ri, res := range w.resources {
		anyLate := false
		for _, ci := range res.granted {
			if cp := res.copies[ci]; cp != nil && cp.everLate {
				anyLate = true
				break
			}
		}
		if anyLate {
			continue
		}
		owner := w.owners[res.ownerIdx]
		violations, err := owner.o.Manager.DE().GetViolations(res.iri)
		if err != nil {
			return fmt.Errorf("resource %d: violations unreadable: %v", ri, err)
		}
		if len(violations) > 0 {
			return fmt.Errorf("resource %d: %d violations recorded against compliant holders (first: %s)",
				ri, len(violations), violations[0].Kind)
		}
	}
	return nil
}
