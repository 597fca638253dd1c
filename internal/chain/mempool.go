package chain

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"math"

	"repro/internal/cryptoutil"
)

// Admission errors for the priced, bounded mempool. ErrUnderpriced wraps
// ErrPoolFull so a submission surface can report both as retryable
// backpressure with a single errors.Is check; ErrReplaceUnderpriced is a
// client error (the bid was syntactically fine but below the bump
// threshold), not backpressure.
var (
	ErrPoolFull           = errors.New("chain: mempool full")
	ErrUnderpriced        = fmt.Errorf("%w: gas price below eviction floor", ErrPoolFull)
	ErrQuotaExceeded      = errors.New("chain: sender pending quota exceeded")
	ErrReplaceUnderpriced = errors.New("chain: replacement gas price below bump threshold")
)

// IsBackpressure reports whether err is transient admission pressure (a
// full pool drains as blocks seal, a quota frees as the sender's pending
// transactions commit) and so worth retrying; every other admission
// error is deterministic.
func IsBackpressure(err error) bool {
	return errors.Is(err, ErrPoolFull) || errors.Is(err, ErrQuotaExceeded)
}

// poolTx pairs a queued transaction with its hash so ordering
// comparisons and index maintenance never recompute digests.
type poolTx struct {
	tx   *Tx
	hash cryptoutil.Hash
}

// senderQueue holds one sender's pending transactions in contiguous
// ascending nonce order: txs[0] is the next nonce the chain will accept
// from this sender, txs[len-1] is the speculative tail. Contiguity is an
// invariant — admission only appends the next nonce, replacement swaps
// in place, and removal either pops heads (Settle, once a block commits)
// or truncates a suffix (Remove, the rollback path) — so selection never
// has to reason about gaps.
type senderQueue struct {
	addr cryptoutil.Address
	txs  []*poolTx
	// evictIdx is this queue's position in the mempool's tail heap,
	// maintained by tailHeap.Swap so heap.Fix/heap.Remove can target the
	// queue directly.
	evictIdx int
}

func (sq *senderQueue) tail() *poolTx { return sq.txs[len(sq.txs)-1] }

// tailHeap is a min-heap of sender queues keyed by their cheapest
// evictable transaction — the speculative tail. Evicting tails (never
// heads or mid-queue entries) preserves per-sender nonce contiguity.
// Ties break on tail hash so the heap order is a strict total order and
// the eviction victim is deterministic across replicas.
//
// The heap's backing slice doubles as the pool's map-free enumeration of
// senders: block selection iterates it instead of ranging over the
// senders map, which keeps the replay-deterministic packages free of map
// iteration order (see internal/lint's determinism analyzer).
type tailHeap []*senderQueue

func (h tailHeap) Len() int { return len(h) }

func (h tailHeap) Less(i, j int) bool {
	ti, tj := h[i].tail(), h[j].tail()
	if ti.tx.GasPrice != tj.tx.GasPrice {
		return ti.tx.GasPrice < tj.tx.GasPrice
	}
	return bytes.Compare(ti.hash[:], tj.hash[:]) < 0
}

func (h tailHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].evictIdx = i
	h[j].evictIdx = j
}

func (h *tailHeap) Push(x any) {
	sq := x.(*senderQueue)
	sq.evictIdx = len(*h)
	*h = append(*h, sq)
}

func (h *tailHeap) Pop() any {
	old := *h
	n := len(old)
	sq := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return sq
}

// headCand is a block-selection candidate: the executable head of one
// sender's queue, advanced in place as the sender's transactions are
// picked.
type headCand struct {
	sq  *senderQueue
	idx int
}

// headHeap is a transient max-heap over sender heads keyed (gas price
// descending, hash ascending). The comparator is a strict total order,
// so the pop sequence — and therefore block transaction order — is
// deterministic regardless of the order candidates were pushed. That
// keeps the parallel-execution differential suites bit-identical: every
// replica seals the same transactions in the same order.
type headHeap []headCand

func (h headHeap) Len() int { return len(h) }

func (h headHeap) Less(i, j int) bool {
	ti, tj := h[i].sq.txs[h[i].idx], h[j].sq.txs[h[j].idx]
	if ti.tx.GasPrice != tj.tx.GasPrice {
		return ti.tx.GasPrice > tj.tx.GasPrice
	}
	return bytes.Compare(ti.hash[:], tj.hash[:]) < 0
}

func (h headHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *headHeap) Push(x any)   { *h = append(*h, x.(headCand)) }
func (h *headHeap) Pop() any     { old := *h; n := len(old); c := old[n-1]; *h = old[:n-1]; return c }

// mempool is a priced, bounded, hash-indexed transaction pool. Block
// selection is highest-gas-price-first (per-sender nonce order
// preserved, hash tie-break); admission enforces a per-sender pending
// quota and a pool-wide capacity, evicting the cheapest speculative tail
// when a better-priced transaction arrives at a full pool; replacement
// (same sender and nonce) requires a priceBumpPercent price bump.
//
// mempool is not internally synchronized; the owning Node guards it with
// its mempool mutex.
type mempool struct {
	capacity int // pool-wide transaction bound (>=1)
	quota    int // max pending transactions per sender (>=1)

	byHash  map[cryptoutil.Hash]*Tx
	senders map[cryptoutil.Address]*senderQueue
	tails   tailHeap
	size    int
}

// priceBumpPercent is the minimum gas-price increase, in percent, a
// replace-by-fee submission must bid over the queued transaction it
// replaces.
const priceBumpPercent = 10

func newMempool(capacity, quota int) *mempool {
	return &mempool{
		capacity: capacity,
		quota:    quota,
		byHash:   make(map[cryptoutil.Hash]*Tx),
		senders:  make(map[cryptoutil.Address]*senderQueue),
	}
}

// Len returns the number of queued transactions.
func (mp *mempool) Len() int { return mp.size }

// Capacity returns the configured pool bound.
func (mp *mempool) Capacity() int { return mp.capacity }

// Contains reports whether a transaction with the given hash is queued.
func (mp *mempool) Contains(h cryptoutil.Hash) bool {
	_, ok := mp.byHash[h]
	return ok
}

// PendingFrom returns how many queued transactions the sender has.
func (mp *mempool) PendingFrom(addr cryptoutil.Address) uint64 {
	sq := mp.senders[addr]
	if sq == nil {
		return 0
	}
	return uint64(len(sq.txs))
}

// Add appends tx (which must carry the sender's next uncommitted nonce —
// the caller checks ordering) after enforcing the sender quota and the
// pool capacity. At a full pool the incoming transaction must strictly
// price-beat the cheapest speculative tail, which is evicted to make
// room and returned so the caller can count it; an eviction that would
// gap the incoming sender's own queue is refused instead.
func (mp *mempool) Add(h cryptoutil.Hash, tx *Tx) (evicted *poolTx, err error) {
	sq := mp.senders[tx.From]
	if sq != nil && len(sq.txs) >= mp.quota {
		return nil, fmt.Errorf("%w: %s has %d pending (quota %d)", ErrQuotaExceeded, tx.From, len(sq.txs), mp.quota)
	}
	if mp.size >= mp.capacity {
		if len(mp.tails) == 0 {
			return nil, ErrPoolFull
		}
		victim := mp.tails[0]
		if victim.addr == tx.From {
			// Evicting our own tail to append right after it would
			// recreate the same occupancy with a gap risk; the sender is
			// simply out of room.
			return nil, ErrUnderpriced
		}
		vTail := victim.tail()
		if tx.GasPrice <= vTail.tx.GasPrice {
			return nil, ErrUnderpriced
		}
		mp.dropTail(victim)
		evicted = vTail
	}
	p := &poolTx{tx: tx, hash: h}
	if sq == nil {
		sq = &senderQueue{addr: tx.From, txs: []*poolTx{p}}
		mp.senders[tx.From] = sq
		heap.Push(&mp.tails, sq)
	} else {
		sq.txs = append(sq.txs, p)
		heap.Fix(&mp.tails, sq.evictIdx)
	}
	mp.byHash[h] = tx
	mp.size++
	return evicted, nil
}

// Replace swaps the queued transaction at tx's (sender, nonce) slot for
// tx, requiring the new gas price to exceed the old by at least
// priceBumpPercent. The replaced transaction is returned. Pending counts
// are unchanged: the slot is reused, not re-queued.
func (mp *mempool) Replace(h cryptoutil.Hash, tx *Tx) (*poolTx, error) {
	sq := mp.senders[tx.From]
	if sq == nil || len(sq.txs) == 0 {
		return nil, fmt.Errorf("chain: no queued transaction to replace at nonce %d", tx.Nonce)
	}
	base := sq.txs[0].tx.Nonce
	if tx.Nonce < base || tx.Nonce >= base+uint64(len(sq.txs)) {
		return nil, fmt.Errorf("chain: no queued transaction to replace at nonce %d", tx.Nonce)
	}
	idx := int(tx.Nonce - base)
	old := sq.txs[idx]
	need := bumpThreshold(old.tx.GasPrice)
	if tx.GasPrice <= old.tx.GasPrice || tx.GasPrice < need {
		return nil, fmt.Errorf("%w: have %d, old %d, need >= %d", ErrReplaceUnderpriced, tx.GasPrice, old.tx.GasPrice, need)
	}
	sq.txs[idx] = &poolTx{tx: tx, hash: h}
	delete(mp.byHash, old.hash)
	mp.byHash[h] = tx
	if idx == len(sq.txs)-1 {
		heap.Fix(&mp.tails, sq.evictIdx)
	}
	return old, nil
}

// bumpThreshold computes old*(100+priceBumpPercent)/100, saturating at
// MaxUint64 so absurd prices cannot overflow their way past the bump
// requirement.
func bumpThreshold(old uint64) uint64 {
	const mult = 100 + priceBumpPercent
	if old > math.MaxUint64/mult {
		return math.MaxUint64
	}
	return old * mult / 100
}

// Remove withdraws the transaction with the given hash, reporting
// whether it was present. It is the rollback path (a just-appended run
// that a peer refused is taken back): the entry and everything queued
// after it go, so per-sender contiguity survives and later removals of
// the same run are no-ops.
func (mp *mempool) Remove(h cryptoutil.Hash) bool {
	tx, ok := mp.byHash[h]
	if !ok {
		return false
	}
	sq := mp.senders[tx.From]
	idx := int(tx.Nonce - sq.txs[0].tx.Nonce)
	for _, p := range sq.txs[idx:] {
		delete(mp.byHash, p.hash)
		mp.size--
	}
	sq.txs = sq.txs[:idx]
	mp.refit(sq)
	return true
}

// Settle drops from's queued transactions below next, the sender's
// committed nonce once a block commits: the block's own transactions,
// and any replacement whose original the block carried.
func (mp *mempool) Settle(from cryptoutil.Address, next uint64) {
	sq := mp.senders[from]
	if sq == nil {
		return
	}
	n := 0
	for n < len(sq.txs) && sq.txs[n].tx.Nonce < next {
		delete(mp.byHash, sq.txs[n].hash)
		n++
	}
	if n == 0 {
		return
	}
	sq.txs = sq.txs[n:]
	mp.size -= n
	mp.refit(sq)
}

// dropTail evicts the speculative tail of sq (capacity pressure).
func (mp *mempool) dropTail(sq *senderQueue) {
	t := sq.tail()
	delete(mp.byHash, t.hash)
	sq.txs = sq.txs[:len(sq.txs)-1]
	mp.size--
	mp.refit(sq)
}

// refit brings the indexes up to date after sq lost entries: an emptied
// queue leaves the tail heap and the sender map, any other moves to its
// tail's place in the heap.
func (mp *mempool) refit(sq *senderQueue) {
	if len(sq.txs) == 0 {
		heap.Remove(&mp.tails, sq.evictIdx)
		delete(mp.senders, sq.addr)
	} else {
		heap.Fix(&mp.tails, sq.evictIdx)
	}
}

// Take selects up to max queued transactions for a block without
// dequeuing them: highest gas price first, ties broken by ascending hash,
// per-sender nonce order always preserved (a sender's second transaction
// is only eligible once its first was picked). The selection's txSizeHint
// total stays within maxBytes: a sender whose next transaction does not
// fit what is left drops out of this block, and the others go on.
// committed maps senders to their next expected nonce; only a queue
// whose head carries it is eligible. The admission-time hashes are handed out alongside (parallel
// to the transactions), so sealing never rehashes what the pool already
// indexed. The selected transactions stay queued until their block
// commits and Settle drops them, so a seal that fails leaves the pool as
// it was.
//
// Selection iterates the tail heap's backing slice and drains a strict
// total-order candidate heap, so the result is deterministic and
// map-iteration-free.
func (mp *mempool) Take(max, maxBytes int, committed map[cryptoutil.Address]uint64) ([]*Tx, []cryptoutil.Hash) {
	if mp.size == 0 || max <= 0 {
		return nil, nil
	}

	// Seed one candidate per sender whose head is executable now.
	cands := make(headHeap, 0, len(mp.tails))
	for _, sq := range mp.tails {
		if sq.txs[0].tx.Nonce == committed[sq.addr] {
			cands = append(cands, headCand{sq: sq, idx: 0})
		}
	}
	heap.Init(&cands)

	out := make([]*Tx, 0, min(max, mp.size))
	hashes := make([]cryptoutil.Hash, 0, cap(out))
	for len(out) < max && cands.Len() > 0 {
		c := cands[0]
		p := c.sq.txs[c.idx]
		size := txSizeHint(p.tx)
		if size > maxBytes {
			heap.Pop(&cands)
			continue
		}
		maxBytes -= size
		out = append(out, p.tx)
		hashes = append(hashes, p.hash)
		if c.idx+1 < len(c.sq.txs) {
			cands[0].idx++
			heap.Fix(&cands, 0)
		} else {
			heap.Pop(&cands)
		}
	}
	return out, hashes
}
