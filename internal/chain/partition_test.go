package chain

import (
	"errors"
	"testing"

	"repro/internal/cryptoutil"
)

// splitCells builds a cell assignment putting the listed node indices in
// cell 1 and everyone else in cell 0.
func splitCells(nodes []*Node, minority ...int) map[cryptoutil.Address]int {
	isMinority := make(map[int]bool, len(minority))
	for _, i := range minority {
		isMinority[i] = true
	}
	cells := make(map[cryptoutil.Address]int, len(nodes))
	for i, n := range nodes {
		if isMinority[i] {
			cells[n.Address()] = 1
		} else {
			cells[n.Address()] = 0
		}
	}
	return cells
}

// TestPartitionQuorumSealsMinorityStalls: under a split only the quorum
// cell makes progress; the minority stalls at its pre-split height with
// its chain a strict prefix, and cross-cell broadcasts are buffered
// (counted as dropped at heal).
func TestPartitionQuorumSealsMinorityStalls(t *testing.T) {
	nodes, net, _, clk := newTestCluster(t, 5)
	sealEmpty(t, net, clk)
	preSplit := nodes[0].Height()

	if err := net.Partition(splitCells(nodes, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if !net.Partitioned() {
		t.Fatal("Partitioned() = false after a split")
	}
	for i, n := range nodes {
		want := i >= 3
		if got := net.IsPartitioned(n.Address()); got != want {
			t.Fatalf("IsPartitioned(node %d) = %t, want %t", i, got, want)
		}
	}

	const rounds = 3
	for range rounds {
		sealEmpty(t, net, clk)
	}
	for i, n := range nodes[:3] {
		if n.Height() != preSplit+rounds {
			t.Fatalf("quorum node %d at height %d, want %d", i, n.Height(), preSplit+rounds)
		}
	}
	for i, n := range nodes[3:] {
		if n.Height() != preSplit {
			t.Fatalf("minority node %d at height %d, want pre-split %d", 3+i, n.Height(), preSplit)
		}
		// The minority chain must be a strict prefix of the quorum chain.
		for h := uint64(0); h <= n.Height(); h++ {
			if n.BlockByNumber(h).Hash() != nodes[0].BlockByNumber(h).Hash() {
				t.Fatalf("minority node %d diverged at height %d", 3+i, h)
			}
		}
	}

	synced, dropped, err := net.Heal()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * rounds; dropped != want {
		t.Fatalf("heal dropped %d buffered deliveries, want %d", dropped, want)
	}
	if want := 2 * rounds; synced != want {
		t.Fatalf("heal synced %d blocks, want %d", synced, want)
	}
	if net.Partitioned() {
		t.Fatal("still partitioned after heal")
	}
	head := nodes[0].Head().Hash()
	for i, n := range nodes {
		if n.Head().Hash() != head {
			t.Fatalf("node %d head differs after heal", i)
		}
	}

	// The healed cluster seals as a whole again.
	sealEmpty(t, net, clk)
	for i, n := range nodes {
		if n.Height() != preSplit+rounds+1 {
			t.Fatalf("node %d at height %d after post-heal seal", i, n.Height())
		}
	}
}

// TestPartitionRefusals pins the split's preconditions: every member
// assigned, exactly one strict-majority cell, no stacked partitions,
// and Heal only on a split cluster.
func TestPartitionRefusals(t *testing.T) {
	nodes, net, _, _ := newTestCluster(t, 4)

	if err := net.Partition(splitCells(nodes, 1, 2)); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("2/2 split = %v, want ErrNoQuorum", err)
	}

	omitted := splitCells(nodes, 3)
	delete(omitted, nodes[0].Address())
	if err := net.Partition(omitted); err == nil {
		t.Fatal("partition omitting a member was accepted")
	}

	if _, _, err := net.Heal(); err == nil {
		t.Fatal("healed a whole cluster")
	}

	if err := net.Partition(splitCells(nodes, 3)); err != nil {
		t.Fatal(err)
	}
	if err := net.Partition(splitCells(nodes, 1)); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("stacked partition = %v, want ErrPartitioned", err)
	}
	if _, _, err := net.Heal(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionSubmissionRidesQuorum: transactions submitted during a
// split land only in quorum mempools (a minority mempool would hold the
// tx invisibly until heal), and reads via LiveNode stay on the quorum
// side.
func TestPartitionSubmissionRidesQuorum(t *testing.T) {
	nodes, net, keys, clk := newTestCluster(t, 3)
	if err := net.Partition(splitCells(nodes, 2)); err != nil {
		t.Fatal(err)
	}
	if ln := net.LiveNode(); ln == nil || net.IsPartitioned(ln.Address()) {
		t.Fatal("LiveNode returned a minority node under a split")
	}
	sender := keys[0]
	if _, err := submit1(net, mustTx(t, sender, 0, testContractAddr(), "k", "v")); err != nil {
		t.Fatal(err)
	}
	if p := nodes[2].PendingTxs(); p != 0 {
		t.Fatalf("minority mempool holds %d txs", p)
	}
	if p := nodes[0].PendingTxs(); p != 1 {
		t.Fatalf("quorum mempool holds %d txs, want 1", p)
	}
	sealEmpty(t, net, clk)
	if _, _, err := net.Heal(); err != nil {
		t.Fatal(err)
	}
	if h := nodes[2].Height(); h != nodes[0].Height() {
		t.Fatalf("minority at height %d after heal, quorum at %d", h, nodes[0].Height())
	}
}

// TestPartitionBufferCap: a long-lived partition eventually drops
// cross-cell traffic on the floor instead of queueing unboundedly, and
// the heal still converges the minority via re-sync.
func TestPartitionBufferCap(t *testing.T) {
	if testing.Short() {
		t.Skip("seals past the delivery buffer cap")
	}
	nodes, net, _, clk := newTestCluster(t, 3)
	if err := net.Partition(splitCells(nodes, 2)); err != nil {
		t.Fatal(err)
	}
	// One buffered delivery per seal (a single minority node): exceed the
	// cap by a handful.
	rounds := maxBufferedDeliveries + 5
	for range rounds {
		sealEmpty(t, net, clk)
	}
	net.mu.Lock()
	held := net.undelivered
	net.mu.Unlock()
	if held != maxBufferedDeliveries {
		t.Fatalf("pre-heal buffer holds %d deliveries, want the cap %d (5 dropped on the floor)", held, maxBufferedDeliveries)
	}
	synced, dropped, err := net.Heal()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != maxBufferedDeliveries {
		t.Fatalf("heal dropped %d, want the full buffer %d", dropped, maxBufferedDeliveries)
	}
	if synced != rounds {
		t.Fatalf("heal synced %d blocks, want %d", synced, rounds)
	}
	if nodes[2].Head().Hash() != nodes[0].Head().Hash() {
		t.Fatal("minority did not converge after a capped buffer heal")
	}
}
