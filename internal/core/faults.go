package core

import (
	"fmt"
	"os"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
)

// This file holds the deployment's fault-injection and introspection
// hooks: controlled validator failures/recoveries and consistent state
// snapshots. The scenario engine (internal/scenario) drives them to
// exercise the whole architecture under faults; they are equally usable
// from tests and examples.

// LiveNode returns a node whose ledger is advancing (nil when the whole
// cluster is down).
func (d *Deployment) LiveNode() *chain.Node { return d.Network.LiveNode() }

// FailValidator marks validator i as failed: it stops sealing and stops
// receiving broadcasts until recovered. Failing the last live validator
// is refused — a cluster with no live authority can only deadlock
// callers.
func (d *Deployment) FailValidator(i int) error {
	if i < 0 || i >= len(d.Nodes) {
		return fmt.Errorf("core: validator %d out of range [0,%d)", i, len(d.Nodes))
	}
	addr := d.addrs[i]
	d.Network.SetDown(addr, true)
	if d.Network.LiveNode() == nil {
		d.Network.SetDown(addr, false)
		return fmt.Errorf("core: refusing to fail validator %d: no live validator would remain", i)
	}
	return nil
}

// RecoverValidator brings validator i back and syncs it from a live peer,
// returning the number of blocks caught up. A crashed validator (its
// in-memory node was dropped) cannot be recovered this way — its RAM
// state is gone by construction; use RestartValidatorFromDisk.
func (d *Deployment) RecoverValidator(i int) (int, error) {
	if i < 0 || i >= len(d.Nodes) {
		return 0, fmt.Errorf("core: validator %d out of range [0,%d)", i, len(d.Nodes))
	}
	if d.ValidatorCrashed(i) {
		return 0, fmt.Errorf("core: validator %d crashed; restart it from disk", i)
	}
	return d.Network.Recover(d.addrs[i])
}

// ValidatorDown reports whether validator i is currently failed (crashed
// validators are down until restarted).
func (d *Deployment) ValidatorDown(i int) bool {
	if i < 0 || i >= len(d.Nodes) {
		return false
	}
	return d.Network.IsDown(d.addrs[i])
}

// ValidatorCrashed reports whether validator i's in-memory node has been
// dropped by CrashValidator and not yet restarted.
func (d *Deployment) ValidatorCrashed(i int) bool {
	return i >= 0 && i < len(d.Nodes) && d.Nodes[i] == nil
}

// CrashValidator kills validator i the hard way: the node stops without
// flushing its store and the in-memory object is dropped entirely, so
// the only route back is RestartValidatorFromDisk. It requires a durable
// deployment (Config.DataDir). Validator 0 is refused — it hosts the
// push-out oracle, whose handler registrations would dangle on a fresh
// node object (fail it with FailValidator instead) — as is
// crashing the last live validator.
func (d *Deployment) CrashValidator(i int) error {
	if i <= 0 || i >= len(d.Nodes) {
		if i == 0 {
			return fmt.Errorf("core: refusing to crash validator 0 (oracle host); use FailValidator")
		}
		return fmt.Errorf("core: validator %d out of range [0,%d)", i, len(d.Nodes))
	}
	if len(d.Configs[i].DataDir) == 0 {
		return fmt.Errorf("core: validator %d is not durable (deployment has no DataDir)", i)
	}
	node := d.Nodes[i]
	if node == nil {
		return fmt.Errorf("core: validator %d already crashed", i)
	}
	addr := d.addrs[i]
	d.Network.SetDown(addr, true)
	if d.Network.LiveNode() == nil {
		d.Network.SetDown(addr, false)
		return fmt.Errorf("core: refusing to crash validator %d: no live validator would remain", i)
	}
	d.Nodes[i] = nil
	return node.Crash()
}

// RestartValidatorFromDisk reopens a crashed validator from its durable
// store — snapshot load plus WAL tail replay — swaps it into the
// cluster, and syncs the blocks sealed during its downtime from a live
// peer. It returns the number of blocks caught up post-restart.
func (d *Deployment) RestartValidatorFromDisk(i int) (int, error) {
	if i < 0 || i >= len(d.Nodes) {
		return 0, fmt.Errorf("core: validator %d out of range [0,%d)", i, len(d.Nodes))
	}
	if !d.ValidatorCrashed(i) {
		return 0, fmt.Errorf("core: validator %d has not crashed", i)
	}
	node, err := chain.OpenNode(d.Configs[i])
	if err != nil {
		return 0, fmt.Errorf("core: reopen validator %d: %w", i, err)
	}
	if err := d.Network.Replace(node); err != nil {
		node.Close()
		return 0, err
	}
	d.Nodes[i] = node
	d.mu.Lock()
	guardOff := d.equivGuardOff
	d.mu.Unlock()
	if guardOff {
		// The deployment-wide sabotage (SetEquivocationGuard(false)) must
		// survive the restart, or a crash would quietly re-arm the guard.
		node.SetEquivocationGuard(false)
	}
	return d.Network.Recover(d.addrs[i])
}

// TruncateValidatorWAL chops n bytes off the tail of a crashed
// validator's write-ahead log — the mid-record torn-tail fault a machine
// crash leaves behind. Recovery must survive it by rolling back to the
// last complete block and re-syncing the difference from peers.
func (d *Deployment) TruncateValidatorWAL(i int, n int64) error {
	if i < 0 || i >= len(d.Nodes) {
		return fmt.Errorf("core: validator %d out of range [0,%d)", i, len(d.Nodes))
	}
	if !d.ValidatorCrashed(i) {
		return fmt.Errorf("core: validator %d must be crashed before its WAL is damaged", i)
	}
	path := chain.WALPath(d.Configs[i].DataDir)
	info, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("core: stat validator %d wal: %w", i, err)
	}
	size := info.Size() - n
	if size < 0 {
		size = 0
	}
	return os.Truncate(path, size)
}

// Snapshot is a consistent cross-layer view of deployment state, taken
// for invariant checking and failure reports.
type Snapshot struct {
	// Height and HeadHash describe the first live node's chain tip.
	Height   uint64
	HeadHash cryptoutil.Hash
	// LiveHeads maps each live validator index to its head hash (failed
	// validators are omitted; their ledgers are frozen by design).
	LiveHeads map[int]cryptoutil.Hash
	// StateKeys is the live node's state size.
	StateKeys int
	// TotalGas is the live node's cumulative gas expenditure.
	TotalGas uint64
	// PendingTxs is the largest live mempool backlog.
	PendingTxs int
	// MarketRevenue is the market's undistributed fee revenue.
	MarketRevenue uint64
	// OracleIn / OracleOut count oracle messages so far.
	OracleIn, OracleOut uint64
}

// TakeSnapshot captures a Snapshot from the deployment's live nodes.
func (d *Deployment) TakeSnapshot() Snapshot {
	s := Snapshot{LiveHeads: make(map[int]cryptoutil.Hash)}
	if live := d.Network.LiveNode(); live != nil {
		head := live.Head()
		s.Height = head.Header.Number
		s.HeadHash = head.Hash()
		s.StateKeys = live.State().Len()
		s.TotalGas = live.Costs().TotalSpent()
	}
	for i, n := range d.Nodes {
		if n != nil && !d.Network.IsDown(n.Address()) {
			s.LiveHeads[i] = n.Head().Hash()
		}
	}
	s.PendingTxs = d.Network.PendingTxs()
	s.MarketRevenue = d.Market.Revenue()
	s.OracleIn = d.Metrics.In.Load()
	s.OracleOut = d.Metrics.Out.Load()
	return s
}
