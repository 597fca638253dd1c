package chain

import (
	"errors"
	"fmt"
	"maps"
	"sync"

	"repro/internal/cryptoutil"
)

// Block validation errors.
var (
	ErrBadParent      = errors.New("chain: block parent hash mismatch")
	ErrBadNumber      = errors.New("chain: block number not sequential")
	ErrWrongProposer  = errors.New("chain: block proposer out of turn")
	ErrBadHeaderSig   = errors.New("chain: invalid header signature")
	ErrBadTxInBlock   = errors.New("chain: invalid transaction in block")
	ErrBadTxRoot      = errors.New("chain: tx root mismatch")
	ErrBadReceiptRoot = errors.New("chain: receipt root mismatch")
	ErrBadStateRoot   = errors.New("chain: state root mismatch")
	ErrBadTimestamp   = errors.New("chain: block timestamp not after parent")
	ErrBlockTooLarge  = errors.New("chain: block transactions exceed the byte budget")
	// errNonceSequence refuses a block that replays a committed
	// transaction, skips a nonce or repeats one (checkNonceSequenceLocked).
	errNonceSequence = errors.New("chain: block breaks a sender's nonce sequence")
)

// ApplyBlock validates a block sealed by another authority and, if valid,
// applies it to this node's ledger and state. Validation re-executes every
// transaction on a copy-on-write overlay of the current state and compares
// the resulting roots, so a proposer cannot smuggle in an incorrect state
// transition — this realizes the paper's claim that "the correctness of
// the executed code is validated by the consensus mechanism of the
// blockchain".
//
// Validation costs O(touched keys) per block, not O(ledger); the block is
// executed exactly once (on success the overlay's write set IS the commit
// diff — no second replay against the real state), and the whole phase —
// signature checks, execution, and the WAL append — runs without the
// ledger write lock. Readers are only blocked for the O(touched-keys)
// delta fold of the final commit.
//
// Signatures are checked once per validator, not once per sighting: a
// transaction whose hash is in this node's own mempool was verified when
// this node admitted it and is not verified again. That is sound because
//
//   - Tx.Hash is HashOf(SigningBytes, Signature) over length-prefixed
//     parts, so a hash hit means the same signing bytes and the same
//     signature bytes;
//   - everything hashAndVerify inspects (method, gas limit, size, sender
//     address and key) is inside SigningBytes, whose encoding is
//     injective: every field is fixed-width or length-prefixed;
//   - admit is the only way into a node's mempool, and both its callers
//     (Node.Submit, Network.Submit) check the signature first.
//
// The hash is recomputed here from the block's own bytes, never taken
// from the proposer, so a transaction mutated after admission, one that
// was evicted or replaced, one a byzantine proposer wrote straight into
// the block, and every transaction seen by a freshly restarted node
// (empty mempool) misses the lookup and gets the full check. The header
// signature, byte budget, tx root, gas cap, re-execution, and both root
// comparisons apply to every transaction regardless.
func (n *Node) ApplyBlock(block *Block, proposerKey []byte) error {
	n.sealMu.Lock()
	defer n.sealMu.Unlock()
	scratch := &n.scratch

	n.mu.RLock()
	parent := n.blocks[len(n.blocks)-1]
	n.mu.RUnlock()

	h := block.Header
	if h.Number <= parent.Header.Number {
		// At-or-below-head deliveries split three ways: rebroadcast of a
		// committed block, equivocation by its proposer, or a plain stale
		// block. See handleStaleDelivery.
		return n.handleStaleDelivery(block, proposerKey)
	}
	if h.Number != parent.Header.Number+1 {
		return fmt.Errorf("%w: got %d, want %d", ErrBadNumber, h.Number, parent.Header.Number+1)
	}
	if h.ParentHash != parent.Hash() {
		return ErrBadParent
	}
	if !h.Time.After(parent.Header.Time) {
		return ErrBadTimestamp
	}
	// Clique-style proof of authority: the in-turn authority is preferred
	// by the network layer, but any member of the authority set may seal a
	// block (this is what keeps the chain live when the in-turn proposer
	// is down). Non-authorities are always rejected.
	if !n.isAuthority(h.Proposer) {
		return fmt.Errorf("%w: %s is not an authority", ErrWrongProposer, h.Proposer)
	}
	if err := h.verifySeal(proposerKey); err != nil {
		return err
	}
	// The per-tx gas cap and the byte budget are enforced here as well as
	// at admission, before anything is hashed or run: a byzantine proposer
	// writes over-cap transactions straight into a block, bypassing
	// Submit. Each rejection carries its own sentinel (ErrBadTxInBlock
	// wraps its cause as text, which would hide errors.Is).
	size := 0
	for _, tx := range block.Txs {
		if tx.GasLimit > MaxTxGasLimit {
			return fmt.Errorf("%w: tx %s declares %d, cap %d",
				ErrGasTooLarge, tx.Hash().Short(), tx.GasLimit, MaxTxGasLimit)
		}
		size += txSizeHint(tx)
	}
	if size > MaxBlockTxBytes {
		return fmt.Errorf("%w: %d bytes, budget %d", ErrBlockTooLarge, size, MaxBlockTxBytes)
	}
	hashes := txHashes(scratch, block.Txs)
	// Each sender's transactions must continue its committed nonces, in
	// block order: a committed transaction replayed, a gap, or one
	// transaction twice is refused before anything runs. Only
	// commitBlock moves the nonces, under this sealMu. A transaction
	// whose signature fails is reported as that, not as its nonce.
	n.mpMu.Lock()
	seqErr := n.checkNonceSequenceLocked(block.Txs)
	var unadmitted []*Tx
	for i, tx := range block.Txs {
		if !n.mempool.Contains(hashes[i]) {
			unadmitted = append(unadmitted, tx)
		}
	}
	n.mpMu.Unlock()
	if err := firstError(verify(unadmitted)); err != nil {
		return fmt.Errorf("%w: %v", ErrBadTxInBlock, err)
	}
	if seqErr != nil {
		return seqErr
	}
	n.metrics.SigsReused.Add(uint64(len(block.Txs) - len(unadmitted)))
	n.metrics.SigsVerified.Add(uint64(len(unadmitted)))
	if got := txRoot(scratch, hashes); got != h.TxRoot {
		return ErrBadTxRoot
	}

	// Re-execute on an overlay and compare roots before touching real
	// state. sealMu excludes every other state writer for the overlay's
	// lifetime, so only reading the state handle needs the read lock.
	n.mu.RLock()
	st := n.state
	n.mu.RUnlock()
	overlay := NewOverlay(st)
	bctx := BlockContext{Number: h.Number, Time: h.Time}
	receipts := n.executeBlock(overlay, block.Txs, hashes, bctx)
	if got := receiptRoot(scratch, receipts); got != h.ReceiptRoot {
		return ErrBadReceiptRoot
	}
	if got := overlay.Root(); got != h.StateRoot {
		return ErrBadStateRoot
	}

	// Valid. Commit the validated execution: the overlay's write set is
	// the block diff — no second replay against the real state — and
	// commitBlock settles nonces and the mempool once the WAL has it.
	applied := &Block{Header: h, Txs: block.Txs, Receipts: receipts}
	return n.commitBlock(applied, overlay.TakeDeltas(), scratch)
}

// checkNonceSequenceLocked reports errNonceSequence unless every
// sender's transactions in txs carry its committed nonce and the ones
// after it, in order. It counts in the node's scratch map, cleared per
// block and dropped after a block with more senders than an honest
// block holds. sealMu and mpMu must be held.
func (n *Node) checkNonceSequenceLocked(txs []*Tx) error {
	next := n.scratch.next
	if next == nil {
		next = make(map[cryptoutil.Address]uint64)
		n.scratch.next = next
	}
	clear(next)
	if len(txs) > maxTxsPerBlock {
		n.scratch.next = nil // not kept: it may grow past an honest block's senders
	}
	for _, tx := range txs {
		want, seen := next[tx.From]
		if !seen {
			want = n.nonces[tx.From]
		}
		if tx.Nonce != want {
			return fmt.Errorf("%w: sender %s nonce %d, want %d", errNonceSequence, tx.From.Short(), tx.Nonce, want)
		}
		next[tx.From] = want + 1
	}
	return nil
}

// replayTxs executes one block's transactions against st (a seal-time or
// validation overlay), producing receipts with block-local event
// indexes. hashes are the transactions' hashes, parallel to txs. It is
// the single execution path for sealing and validation; it never
// touches the node's cost ledger — commitBlock charges gas once the
// block is durable.
func replayTxs(ex Executor, st *Overlay, txs []*Tx, hashes []cryptoutil.Hash, bctx BlockContext) []*Receipt {
	receipts := make([]*Receipt, 0, len(txs))
	eventIndex := 0
	for i, tx := range txs {
		checkpoint := st.Checkpoint()
		receipt := ex.ExecuteTx(st, tx, bctx)
		if receipt.Status != StatusOK {
			st.RevertTo(checkpoint)
			receipt.Events = nil
		}
		receipt.TxHash = hashes[i]
		receipt.BlockNumber = bctx.Number
		for j := range receipt.Events {
			receipt.Events[j].BlockNumber = bctx.Number
			receipt.Events[j].TxHash = receipt.TxHash
			receipt.Events[j].Index = eventIndex
			eventIndex++
		}
		receipts = append(receipts, receipt)
	}
	// The overlay's layer (write set) carries the block's net diff;
	// commitBlock folds it into the base state. A validation overlay that
	// fails a root check is thrown away wholesale, journal included.
	return receipts
}

// Network is an in-process cluster of authority nodes. The node whose turn
// it is seals; the network then broadcasts the block to every other node,
// which validates and applies it. This models the paper's availability
// argument: any node can serve reads, and the cluster survives the loss of
// individual nodes.
type Network struct {
	// sealMu serializes SealNext: a round reads the height, picks the
	// proposer, seals, and replicates as one unit, so concurrent callers
	// queue instead of racing for the same height. It is the outermost
	// lock (Network.sealMu → Node.sealMu → mpMu → mu); mu below is a leaf
	// taken only for short membership reads and writes.
	sealMu sync.Mutex
	// SealNext's round buffers, refilled every block rather than rebuilt:
	// the membership view, the followers the block fans out to, and their
	// verdicts. Nothing read from them outlives the round.
	view      netView // guarded by sealMu
	followers []*Node // guarded by sealMu
	errs      []error // guarded by sealMu

	mu    sync.Mutex
	nodes []*Node
	keys  map[cryptoutil.Address][]byte // authority address -> public key bytes
	down  map[cryptoutil.Address]bool

	// Partition state. When cells is non-nil the cluster is split: each
	// member belongs to a cell, only the quorum cell (the one holding a
	// strict majority of members) makes progress, and cross-cell traffic
	// is held back until Heal drops it. A nil cells map means fully
	// connected.
	cells      map[cryptoutil.Address]int
	quorumCell int
	// undelivered counts the cross-cell block broadcasts held back while
	// partitioned, up to maxBufferedDeliveries. None is ever delivered:
	// Heal drops them all (the partition "eventually drops" in-flight
	// traffic), reports how many, and re-syncs minority nodes from a live
	// peer instead.
	undelivered int
}

// maxBufferedDeliveries caps the cross-cell traffic a partition holds
// back; a long-lived partition drops what comes past it on the floor.
const maxBufferedDeliveries = 1024

// Partition errors.
var (
	// ErrPartitioned reports an operation refused because the cluster is
	// currently split.
	ErrPartitioned = errors.New("chain: network is partitioned")
	// ErrNoQuorum reports a requested split in which no cell holds a
	// strict majority of members, so no cell could safely make progress.
	ErrNoQuorum = errors.New("chain: no partition cell holds a quorum")
)

// NewNetwork groups nodes into a cluster. All nodes must share the same
// authority set and genesis.
func NewNetwork(nodes ...*Node) (*Network, error) {
	if len(nodes) == 0 {
		return nil, errors.New("chain: empty network")
	}
	keys := make(map[cryptoutil.Address][]byte, len(nodes))
	for _, n := range nodes {
		keys[n.Address()] = n.key.PublicBytes()
	}
	// Copy the membership: the caller may mutate its slice (e.g. dropping
	// a crashed node), and cluster membership changes must go through
	// Replace.
	return &Network{
		nodes: append([]*Node(nil), nodes...),
		keys:  keys,
		down:  make(map[cryptoutil.Address]bool),
	}, nil
}

// SetDown marks a node as failed (true) or recovered (false). Failed nodes
// neither seal nor receive broadcasts.
func (net *Network) SetDown(addr cryptoutil.Address, down bool) {
	net.mu.Lock()
	defer net.mu.Unlock()
	net.down[addr] = down
}

// netView is a consistent snapshot of membership, liveness, and
// partition state, taken under the network lock.
type netView struct {
	nodes      []*Node
	down       map[cryptoutil.Address]bool
	cells      map[cryptoutil.Address]int
	quorumCell int
}

// reachable reports whether addr is live and on the quorum side of any
// active partition — i.e. whether the cluster's progress path (sealing,
// submission, reads) may use it.
func (v *netView) reachable(addr cryptoutil.Address) bool {
	if v.down[addr] {
		return false
	}
	if v.cells == nil {
		return true
	}
	return v.cells[addr] == v.quorumCell
}

// viewLocked is the cluster membership, liveness, and partition state
// itself, not a copy: it is only read while net.mu is held.
func (net *Network) viewLocked() netView {
	return netView{nodes: net.nodes, down: net.down, cells: net.cells, quorumCell: net.quorumCell}
}

// liveView snapshots the cluster membership, liveness, and partition
// state under the network lock.
func (net *Network) liveView() *netView {
	v := new(netView)
	net.copyView(v)
	return v
}

// copyView fills v with the cluster membership, liveness, and partition
// state under the network lock, reusing v's node slice and maps: SealNext
// keeps one view for every round. A view of a whole cluster drops its
// cells map (nil means no partition).
func (net *Network) copyView(v *netView) {
	net.mu.Lock()
	defer net.mu.Unlock()
	v.nodes = append(v.nodes[:0], net.nodes...)
	v.down = refill(v.down, net.down)
	if net.cells == nil {
		v.cells = nil
	} else {
		v.cells = refill(v.cells, net.cells)
	}
	v.quorumCell = net.quorumCell
}

// refill copies src into dst, cleared first, or into a new map when dst
// is nil, and returns it.
func refill[K comparable, V any](dst, src map[K]V) map[K]V {
	if dst == nil {
		dst = make(map[K]V, len(src))
	}
	clear(dst)
	maps.Copy(dst, src)
	return dst
}

// Partition splits the cluster into isolated cells. Every current member
// must be assigned a cell, and exactly one cell must hold a strict
// majority of members — that quorum cell keeps sealing while the others
// stall with their traffic held back (and eventually dropped). Refuses to
// stack partitions: Heal first.
func (net *Network) Partition(cells map[cryptoutil.Address]int) error {
	net.mu.Lock()
	defer net.mu.Unlock()
	if net.cells != nil {
		return ErrPartitioned
	}
	sizes := make(map[int]int)
	for _, n := range net.nodes {
		cell, ok := cells[n.Address()]
		if !ok {
			return fmt.Errorf("chain: partition omits member %s", n.Address().Short())
		}
		sizes[cell]++
	}
	quorum := -1
	for cell, size := range sizes {
		if 2*size > len(net.nodes) {
			quorum = cell
			break
		}
	}
	if quorum == -1 {
		return ErrNoQuorum
	}
	net.cells = make(map[cryptoutil.Address]int, len(net.nodes))
	for _, n := range net.nodes {
		net.cells[n.Address()] = cells[n.Address()]
	}
	net.quorumCell = quorum
	return nil
}

// Heal reconnects a partitioned cluster: the held-back cross-cell
// deliveries are dropped (those broadcasts are long gone — minority nodes
// re-sync instead, re-validating every block, so a heal cannot smuggle in
// unvalidated state), and every lagging live node catches up from the
// most advanced live peer. Returns the number of blocks synced across
// all nodes and the number of held-back deliveries dropped.
func (net *Network) Heal() (synced int, dropped int, err error) {
	net.mu.Lock()
	if net.cells == nil {
		net.mu.Unlock()
		return 0, 0, errors.New("chain: network is not partitioned")
	}
	net.cells = nil
	dropped = net.undelivered
	net.undelivered = 0
	net.mu.Unlock()

	v := net.liveView()
	var donor *Node
	for _, n := range v.nodes {
		if v.down[n.Address()] {
			continue
		}
		if donor == nil || n.Height() > donor.Height() {
			donor = n
		}
	}
	if donor == nil {
		return 0, dropped, nil // every node down: nothing to converge
	}
	keys := net.AuthorityKeys()
	for _, n := range v.nodes {
		if v.down[n.Address()] || n == donor {
			continue
		}
		applied, serr := n.SyncFrom(donor, keys)
		synced += applied
		if serr != nil {
			return synced, dropped, fmt.Errorf("chain: heal sync of %s: %w", n.Address().Short(), serr)
		}
	}
	return synced, dropped, nil
}

// IsPartitioned reports whether addr is currently cut off from the
// quorum cell (always false when the cluster is whole).
func (net *Network) IsPartitioned(addr cryptoutil.Address) bool {
	net.mu.Lock()
	defer net.mu.Unlock()
	if net.cells == nil {
		return false
	}
	return net.cells[addr] != net.quorumCell
}

// Partitioned reports whether any partition is active.
func (net *Network) Partitioned() bool {
	net.mu.Lock()
	defer net.mu.Unlock()
	return net.cells != nil
}

// holdBack counts a cross-cell broadcast withheld by the partition, up
// to the cap; past it the broadcast is dropped uncounted.
func (net *Network) holdBack() {
	net.mu.Lock()
	defer net.mu.Unlock()
	if net.cells == nil {
		return // healed concurrently: the node will re-sync anyway
	}
	if net.undelivered < maxBufferedDeliveries {
		net.undelivered++
	}
}

// SealNext asks the in-turn authority to seal the next block and
// broadcasts the result to every live node. If the in-turn authority is
// down, the next live authority in rotation order takes over out of turn
// (clique-style), so the cluster stays live as long as one authority
// remains — the paper's availability property.
//
// The reachable followers validate the sealed block concurrently (each
// under its own sealMu, sharing nothing but the read-only block), and
// every one of them sees it even when another rejects. The outcome stays
// scheduling-independent: partition buffering happens before the fan-out
// in node order, and the error returned is the lowest-indexed rejecting
// follower's. Concurrent SealNext calls are serialized.
func (net *Network) SealNext() (*Block, error) {
	net.sealMu.Lock()
	defer net.sealMu.Unlock()
	v := &net.view
	net.copyView(v)

	if len(v.nodes) == 0 {
		return nil, errors.New("chain: empty network")
	}
	// Pick a reachable reference node to read the current height. Under a
	// partition only the quorum cell seals — the minority stalls at its
	// pre-split height, which is what keeps committed blocks rollback-free
	// across heals (the minority chain stays a strict prefix).
	var ref *Node
	for _, n := range v.nodes {
		if v.reachable(n.Address()) {
			ref = n
			break
		}
	}
	if ref == nil {
		return nil, ErrProposerDown
	}
	height := ref.Height() + 1
	inTurn := ref.proposerFor(height)

	// Rotate the candidate order so the in-turn authority goes first.
	start := 0
	for i, n := range v.nodes {
		if n.Address() == inTurn {
			start = i
			break
		}
	}

	var block *Block
	var proposerAddr cryptoutil.Address
	for i := range v.nodes {
		node := v.nodes[(start+i)%len(v.nodes)]
		addr := node.Address()
		if !v.reachable(addr) {
			continue
		}
		var err error
		if addr == inTurn {
			block, err = node.Seal()
		} else {
			block, err = node.SealOutOfTurn()
		}
		if err != nil {
			return nil, err
		}
		proposerAddr = addr
		break
	}
	if block == nil {
		return nil, ErrProposerDown
	}

	proposerKey := net.keys[proposerAddr]
	followers := net.followers[:0]
	for _, n := range v.nodes {
		addr := n.Address()
		if addr == proposerAddr || v.down[addr] {
			continue
		}
		if !v.reachable(addr) {
			// Live but on the wrong side of the split: the broadcast is
			// held back (and dropped at the heal) instead of delivered.
			net.holdBack()
			continue
		}
		followers = append(followers, n)
	}
	errs := append(net.errs[:0], make([]error, len(followers))...)
	net.followers, net.errs = followers, errs
	var wg sync.WaitGroup
	for i, n := range followers {
		if i == len(followers)-1 {
			errs[i] = n.ApplyBlock(block, proposerKey) // the last one runs inline
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = n.ApplyBlock(block, proposerKey)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("chain: node %s rejected block %d: %w",
				followers[i].Address().Short(), block.Header.Number, err)
		}
	}
	return block, nil
}

// ErrProposerDown reports that no live authority could seal.
var ErrProposerDown = errors.New("chain: no live proposer")

// SyncFrom catches this node up to a peer by fetching and validating the
// peer's blocks above the local height. It returns the number of blocks
// applied. This is how a recovered node rejoins the cluster after
// downtime (the §V-2 availability story).
func (n *Node) SyncFrom(peer *Node, peerKeys map[cryptoutil.Address][]byte) (int, error) {
	applied := 0
	for {
		next := n.Height() + 1
		block := peer.BlockByNumber(next)
		if block == nil {
			return applied, nil
		}
		proposerKey, ok := peerKeys[block.Header.Proposer]
		if !ok {
			return applied, fmt.Errorf("chain: no key for proposer %s at height %d",
				block.Header.Proposer.Short(), next)
		}
		if err := n.ApplyBlock(block, proposerKey); err != nil {
			return applied, fmt.Errorf("chain: sync height %d: %w", next, err)
		}
		applied++
	}
}

// AuthorityKeys returns the network's proposer-address → public-key map,
// as needed by Node.SyncFrom.
func (net *Network) AuthorityKeys() map[cryptoutil.Address][]byte {
	net.mu.Lock()
	defer net.mu.Unlock()
	out := make(map[cryptoutil.Address][]byte, len(net.keys))
	for a, k := range net.keys {
		out[a] = append([]byte(nil), k...)
	}
	return out
}

// Replace swaps a cluster member for a new node with the same authority
// address — the crash-restart path, where a validator's process state is
// lost and a replacement is reopened from its durable store. The
// replacement inherits the member's liveness flag (callers typically
// Recover it next to sync the tail it missed).
func (net *Network) Replace(n *Node) error {
	net.mu.Lock()
	defer net.mu.Unlock()
	for i, old := range net.nodes {
		if old.Address() == n.Address() {
			net.nodes[i] = n
			return nil
		}
	}
	return fmt.Errorf("chain: %s is not a cluster member", n.Address().Short())
}

// Recover marks a node as live again and syncs it from the first live
// peer, returning the number of blocks caught up.
func (net *Network) Recover(addr cryptoutil.Address) (int, error) {
	net.mu.Lock()
	net.down[addr] = false
	var target, donor *Node
	for _, n := range net.nodes {
		a := n.Address()
		if a == addr {
			target = n
			continue
		}
		if net.down[a] || donor != nil {
			continue
		}
		// Under a partition a recovering node can only sync from a peer in
		// its own cell — cross-cell traffic is cut.
		if net.cells != nil && net.cells[a] != net.cells[addr] {
			continue
		}
		donor = n
	}
	net.mu.Unlock()
	if target == nil {
		return 0, fmt.Errorf("chain: %s is not a cluster member", addr.Short())
	}
	if donor == nil {
		return 0, nil // nothing to sync from
	}
	return target.SyncFrom(donor, net.AuthorityKeys())
}

// errNoLiveNode is the verdict of every transaction submitted while no
// node is reachable.
var errNoLiveNode = errors.New("chain: no live node accepted the transaction")

// Submit is the one way into the cluster's mempools: each transaction is
// hashed once and its signature verified once for the whole cluster, then
// the batch is admitted on every reachable node under a single mempool
// lock acquisition per node. It answers per transaction and admits what
// fits — under backpressure a caller learns exactly which transactions
// were priced out (ErrPoolFull/ErrUnderpriced), quota-bounced
// (ErrQuotaExceeded) or admitted, and can retry selectively. A
// transaction stands iff every reachable node took it or already holds
// it; otherwise it is withdrawn from the nodes that took it (best effort:
// anything a concurrent seal has already committed stays committed).
//
// Transactions sharing a sender must appear in nonce order; a refused
// transaction takes its same-sender successors in the batch with it.
func (net *Network) Submit(txs []*Tx) []TxVerdict { return net.submit(txs, false) }

// SubmitAllOrNothing is Submit for a batch that must stand whole: if any
// verdict failed, everything the call added is withdrawn again and the
// lowest-indexed error returned, so an error means no reachable mempool
// still queues the batch (best effort against a concurrent seal, as in
// Submit). The returned hashes parallel the input.
func (net *Network) SubmitAllOrNothing(txs []*Tx) ([]cryptoutil.Hash, error) {
	out := net.submit(txs, true)
	hashes := make([]cryptoutil.Hash, len(out))
	for i, v := range out {
		if v.Err != nil {
			return nil, v.Err
		}
		hashes[i] = v.Hash
	}
	return hashes, nil
}

func (net *Network) submit(txs []*Tx, allOrNothing bool) []TxVerdict {
	if len(txs) == 0 {
		return nil
	}
	v := net.liveView()
	// The cluster verifies once: the pool latency lands on every node's
	// instruments (no-ops everywhere except the metered validator).
	out := checked(txs, v.nodes)
	if allOrNothing && anyRefused(out) {
		return out // nothing queued yet, nothing to withdraw
	}

	type admission struct {
		node  *Node
		added []int
	}
	took := make([]admission, 0, len(v.nodes))
	for _, n := range v.nodes {
		// Submission rides the quorum side only: a minority node's mempool
		// would hold the tx invisibly until heal, breaking the "a failed
		// verdict means no live mempool queues it" contract.
		if !v.reachable(n.Address()) {
			continue
		}
		// A transaction an earlier node refused is skipped here, so its
		// same-sender successors cascade on this node as they did there.
		took = append(took, admission{n, n.admit(txs, out)})
	}
	if len(took) == 0 {
		for i := range out {
			if out[i].Err == nil {
				out[i].Err = errNoLiveNode
			}
		}
	}
	if anyRefused(out) {
		for _, a := range took {
			a.node.withdraw(out, a.added, allOrNothing)
		}
	}
	return out
}

// anyRefused reports whether any verdict carries an error.
func anyRefused(out []TxVerdict) bool {
	for i := range out {
		if out[i].Err != nil {
			return true
		}
	}
	return false
}

// IsDown reports whether the node at addr is currently marked failed.
func (net *Network) IsDown(addr cryptoutil.Address) bool {
	net.mu.Lock()
	defer net.mu.Unlock()
	return net.down[addr]
}

// LiveNode returns the first node not marked down, or nil when every
// node has failed. Clients that need a ledger view (receipt waits,
// queries, nonce reads) must use a live node: a failed node's ledger is
// frozen until it recovers and syncs.
//
// Clients call it for every nonce read, query and receipt wait, so it
// reads the membership in place under the network lock rather than
// copying it; Node.Address takes no lock.
func (net *Network) LiveNode() *Node {
	net.mu.Lock()
	defer net.mu.Unlock()
	v := net.viewLocked()
	for _, n := range v.nodes {
		if v.reachable(n.Address()) {
			return n
		}
	}
	return nil
}

// PendingTxs reports the largest mempool backlog among live nodes — the
// number of consensus-round transactions still to seal cluster-wide. A
// sealer polls it on every idle pass, so it reads the membership under
// the network lock instead of copying it: a mempool count takes only the
// node's mempool lock, which is never held while the network lock is
// taken.
func (net *Network) PendingTxs() int {
	net.mu.Lock()
	defer net.mu.Unlock()
	v := net.viewLocked()
	maxPending := 0
	for _, n := range v.nodes {
		if !v.reachable(n.Address()) {
			continue
		}
		if p := n.PendingTxs(); p > maxPending {
			maxPending = p
		}
	}
	return maxPending
}
