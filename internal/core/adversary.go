package core

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
)

// This file is the deployment's adversarial control surface, the
// byzantine counterpart to faults.go: network partitions, equivocating
// proposers, and invalid-block injection. The deployment plays the
// attacker with the materials a real one would need (a compromised
// validator's signing key, a cut network) and exposes each node's
// verdict so the scenario engine can assert the honest majority rejects
// every move.

// PartitionValidators splits the cluster in two: the listed validators
// form an isolated minority cell; everyone else (always including
// validator 0, the oracle host — pod hosts ride with the quorum) keeps
// sealing as the quorum cell. Cross-cell traffic is buffered and then
// dropped. The minority must be non-empty, strictly less than half the
// cluster, and fully live — a down or crashed validator is already cut
// off, and layering a partition over it would make heal-time convergence
// ill-defined.
func (d *Deployment) PartitionValidators(minority ...int) error {
	if len(minority) == 0 {
		return fmt.Errorf("core: empty minority cell")
	}
	if 2*len(minority) >= len(d.Nodes) {
		return fmt.Errorf("core: minority of %d leaves no quorum among %d validators",
			len(minority), len(d.Nodes))
	}
	seen := make(map[int]bool, len(minority))
	for _, i := range minority {
		if i <= 0 || i >= len(d.Nodes) {
			if i == 0 {
				return fmt.Errorf("core: validator 0 (oracle host) must stay in the quorum cell")
			}
			return fmt.Errorf("core: validator %d out of range [0,%d)", i, len(d.Nodes))
		}
		if seen[i] {
			return fmt.Errorf("core: validator %d listed twice", i)
		}
		seen[i] = true
		if d.ValidatorCrashed(i) || d.ValidatorDown(i) {
			return fmt.Errorf("core: validator %d is down; partition requires live members", i)
		}
	}
	cells := make(map[cryptoutil.Address]int, len(d.addrs))
	for i, addr := range d.addrs {
		if seen[i] {
			cells[addr] = 1
		} else {
			cells[addr] = 0
		}
	}
	return d.Network.Partition(cells)
}

// HealPartition reconnects a split cluster: buffered cross-cell traffic
// is dropped and every lagging live validator re-syncs (re-validating
// each block) from the most advanced peer. Returns the number of blocks
// synced and the number of deliveries dropped.
func (d *Deployment) HealPartition() (synced, dropped int, err error) {
	return d.Network.Heal()
}

// ValidatorPartitioned reports whether validator i is currently cut off
// in a minority cell.
func (d *Deployment) ValidatorPartitioned(i int) bool {
	if i < 0 || i >= len(d.Nodes) {
		return false
	}
	return d.Network.IsPartitioned(d.addrs[i])
}

// Partitioned reports whether a partition is currently active.
func (d *Deployment) Partitioned() bool { return d.Network.Partitioned() }

// SetEquivocationGuard enables (default) or disables equivocation
// rejection on every validator, persisting the choice across
// crash-restarts. Disabling is deliberate sabotage for soak-style
// testing: the scenario engine's no-equivocation-accepted invariant must
// catch the resulting silent acceptance.
func (d *Deployment) SetEquivocationGuard(enabled bool) {
	d.mu.Lock()
	d.equivGuardOff = !enabled
	d.mu.Unlock()
	for _, n := range d.Nodes {
		if n != nil {
			n.SetEquivocationGuard(enabled)
		}
	}
}

// EquivocationReport describes one injected double-seal attempt.
type EquivocationReport struct {
	// Height is the contested height; Proposer the index of the validator
	// whose key sealed both blocks.
	Height   uint64
	Proposer int
	// Committed is the honestly broadcast block's hash; Forged the
	// conflicting sibling's.
	Committed, Forged cryptoutil.Hash
	// Rejections maps each targeted validator to its verdict on the forged
	// sibling (expected: chain.ErrEquivocation; nil means it was accepted
	// or silently swallowed — an invariant violation when the guard is on).
	Rejections map[int]error
}

// Equivocate makes the next block's proposer seal twice: the cluster
// commits the honest block via the normal broadcast, then a forged
// sibling at the same height — validly signed with the proposer's own
// key — is gossiped to each target validator, modeling the "different
// blocks to different peer subsets" attack. Targets must be live,
// uncrashed, and unpartitioned: a lagging node would accept the sibling
// as a plain extension and the injected state would no longer model
// equivocation but a hard fork.
func (d *Deployment) Equivocate(targets []int) (*EquivocationReport, error) {
	if err := d.checkTargets("equivocation", targets); err != nil {
		return nil, err
	}

	block, err := d.Network.SealNext()
	if err != nil {
		return nil, fmt.Errorf("core: sealing the honest block: %w", err)
	}
	proposer := -1
	for i, addr := range d.addrs {
		if addr == block.Header.Proposer {
			proposer = i
			break
		}
	}
	if proposer < 0 {
		return nil, fmt.Errorf("core: proposer %s not a deployment validator", block.Header.Proposer.Short())
	}
	key := d.Configs[proposer].Key
	forged, err := chain.ForgeEquivocalSibling(block, key)
	if err != nil {
		return nil, err
	}
	report := &EquivocationReport{
		Height:     block.Header.Number,
		Proposer:   proposer,
		Committed:  block.Hash(),
		Forged:     forged.Hash(),
		Rejections: make(map[int]error, len(targets)),
	}
	for _, t := range targets {
		report.Rejections[t] = d.Network.DeliverTo(d.addrs[t], forged, key.PublicBytes())
	}
	return report, nil
}

// InjectInvalidBlock forges a block that is invalid in exactly one
// dimension (state root, proposer signature, or per-tx gas cap), signed
// with validator proposer's key, and delivers it to each target via the
// byzantine hook. It returns each target's verdict; every honest node
// must reject with the kind's distinct error and its head must not move.
// Targets must be live, uncrashed, and unpartitioned (same reasoning as
// Equivocate: the forgery must contend with the current head, not extend
// a stale one).
func (d *Deployment) InjectInvalidBlock(kind chain.InvalidBlockKind, proposer int, targets []int) (map[int]error, error) {
	if proposer < 0 || proposer >= len(d.Nodes) {
		return nil, fmt.Errorf("core: proposer %d out of range [0,%d)", proposer, len(d.Nodes))
	}
	if err := d.checkTargets("injection", targets); err != nil {
		return nil, err
	}
	ref := d.LiveNode()
	if ref == nil {
		return nil, fmt.Errorf("core: no live validator to forge against")
	}
	key := d.Configs[proposer].Key
	forged, err := chain.ForgeInvalidBlock(ref, key, kind)
	if err != nil {
		return nil, err
	}
	verdicts := make(map[int]error, len(targets))
	for _, t := range targets {
		verdicts[t] = d.Network.DeliverTo(d.addrs[t], forged, key.PublicBytes())
	}
	return verdicts, nil
}

// checkTargets demands a non-empty list of distinct validators that are
// live, uncrashed and unpartitioned: the targets of a forged block, which
// must contend with each one's current head. kind names the attack in
// the error.
func (d *Deployment) checkTargets(kind string, targets []int) error {
	if len(targets) == 0 {
		return fmt.Errorf("core: no %s targets", kind)
	}
	seen := make(map[int]bool, len(targets))
	for _, t := range targets {
		if t < 0 || t >= len(d.Nodes) {
			return fmt.Errorf("core: validator %d out of range [0,%d)", t, len(d.Nodes))
		}
		if seen[t] {
			return fmt.Errorf("core: validator %d targeted twice", t)
		}
		seen[t] = true
		if d.ValidatorCrashed(t) || d.ValidatorDown(t) || d.ValidatorPartitioned(t) {
			return fmt.Errorf("core: validator %d is unreachable; %s targets must be synced", t, kind)
		}
	}
	return nil
}
