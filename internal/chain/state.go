package chain

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/cryptoutil"
)

// State is the committed key-value store: the ledger as of the head
// block. Keys are namespaced strings (by convention
// "<contract-addr>/<bucket>/<key>").
//
// It is read-only outside this package. Transactions never run on it:
// they run on an Overlay over it, and the one write path is applyDeltas,
// which folds a block's net diff in — at commit, and in recovery for the
// snapshot and the diff tail. State is safe for concurrent readers.
type State struct {
	mu   sync.RWMutex
	data map[string][]byte // guarded by mu
	// root is the incrementally maintained state commitment: the XOR of
	// H(key, value) over all entries (a multiset hash). Because map keys
	// are unique, every leaf appears at most once, so any single
	// insertion, deletion or value change flips the root. XOR updates
	// make Root O(1) instead of O(n·log n) per block, which keeps block
	// sealing linear as the ledger grows; the trade-off (weaker
	// collision resistance than a Merkle trie against adversarially
	// crafted key/value sets) is acceptable for this simulator.
	// Guarded by mu.
	root cryptoutil.Hash
	// bytes is the running Σ len(key)+len(value), updated wherever root
	// is: the size of a snapshot, in O(1). Guarded by mu.
	bytes int64
}

// leafHash commits to one key/value pair: HashOf([]byte(key), value),
// with the key copied to the stack rather than converted on the heap
// (keys are "0x<contract>/<bucket>/<id>"; one past 256 bytes costs the
// allocation again, nothing else).
func leafHash(key string, value []byte) cryptoutil.Hash {
	var buf [256]byte
	return cryptoutil.HashOf(append(buf[:0], key...), value)
}

// xorHash folds h into root in place.
func xorHash(root *cryptoutil.Hash, h cryptoutil.Hash) {
	for i := range root {
		root[i] ^= h[i]
	}
}

// foldLeafLocked accounts one entry entering (sign +1) or leaving (-1)
// the store in both running commitments; s.mu must be held for writing.
func (s *State) foldLeafLocked(key string, value []byte, sign int64) {
	xorHash(&s.root, leafHash(key, value))
	s.bytes += sign * int64(len(key)+len(value))
}

// NewState returns an empty state.
func NewState() *State {
	return &State{data: make(map[string][]byte)}
}

// Get returns the value for key and whether it exists. The returned slice
// is a copy, the one a ledger read makes: Node.Query reads through here,
// and what it answers leaves the ledger. The key is only read.
func (s *State) Get(key []byte) ([]byte, bool) {
	v, ok := lookup(s, key)
	if !ok {
		return nil, false
	}
	return append([]byte{}, v...), true
}

// lookup returns the stored slice for key WITHOUT copying. Stored value
// slices are immutable — applyDeltas installs slices it owns and nothing
// mutates one in place — so the result is safe to read or hash
// indefinitely, but callers must never write through it. The overlay
// reads the committed state through it to keep the hot path
// allocation-free.
func lookup[K stateKey](s *State, key K) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[string(key)]
	return v, ok
}

// Keys returns the keys with the given prefix, sorted.
func (s *State) Keys(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of stored keys.
func (s *State) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Delta is one key's net change across a block, as recorded in the
// durable block log: the value the key holds after the block (or a
// deletion marker). Deltas are what crash recovery applies instead of
// re-executing transactions.
type Delta struct {
	// K is the state key.
	K string
	// V is the post-block value (ignored when Del is set).
	V []byte
	// Del marks the key as deleted by the block.
	Del bool
}

// ExportShared returns the full key-value content in a fresh map that
// SHARES the stored value slices instead of copying them — a
// copy-on-write export costing O(keys) map work and zero byte copying.
// It is safe because stored values are immutable: a later fold installs
// other slices, leaving the shared ones untouched. The
// background snapshot writer serializes from such an export so commits
// never pay for, and readers never wait on, snapshot serialization.
func (s *State) ExportShared() map[string][]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string][]byte, len(s.data))
	for k, v := range s.data {
		out[k] = v
	}
	return out
}

// applyDeltas folds a committed block's net diff into the state. It is
// the state's only writer: commitBlock folds an overlay's drained layer,
// and recovery folds a decoded snapshot and then each block's recorded
// diff. Values are moved in, not copied: callers hand over slices nobody
// else writes (an overlay's layer, or bytes store.Dec.Bytes copied out of
// a record). The root and size are maintained incrementally, so folding
// costs O(touched keys).
func (s *State) applyDeltas(deltas []Delta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range deltas {
		prior, existed := s.data[d.K]
		if d.Del {
			if !existed {
				continue
			}
			s.foldLeafLocked(d.K, prior, -1)
			delete(s.data, d.K)
			continue
		}
		if existed {
			s.foldLeafLocked(d.K, prior, -1)
		}
		s.data[d.K] = d.V
		s.foldLeafLocked(d.K, d.V, +1)
	}
}

// Root returns the deterministic state commitment (see the root field for
// the construction). It is O(1): applyDeltas maintains the commitment
// incrementally.
func (s *State) Root() cryptoutil.Hash {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.root
}

// Bytes returns the sum of len(key)+len(value) over all entries — the
// payload a snapshot of the state would carry. O(1), like Root.
func (s *State) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}
