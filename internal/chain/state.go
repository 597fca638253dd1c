package chain

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/cryptoutil"
)

// State is the journaled key-value store that contracts execute against.
//
// Keys are namespaced strings (by convention "<contract-addr>/<bucket>/<key>").
// A journal records every mutation so that the effects of a reverted
// transaction can be rolled back without copying the whole store. State is
// safe for concurrent readers; writers are serialized by the node's block
// production, but the internal lock keeps direct use safe too.
type State struct {
	mu      sync.RWMutex
	data    map[string][]byte // guarded by mu
	journal []journalEntry    // guarded by mu
	// root is the incrementally maintained state commitment: the XOR of
	// H(key, value) over all entries (a multiset hash). Because map keys
	// are unique, every leaf appears at most once, so any single
	// insertion, deletion or value change flips the root. XOR updates
	// make Root O(1) instead of O(n·log n) per block, which keeps block
	// sealing linear as the ledger grows; the trade-off (weaker
	// collision resistance than a Merkle trie against adversarially
	// crafted key/value sets) is acceptable for this simulator and is
	// called out in DESIGN.md. Guarded by mu.
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

type journalEntry struct {
	key     string
	prior   []byte
	existed bool
}

// NewState returns an empty state.
func NewState() *State {
	return &State{data: make(map[string][]byte)}
}

// Get returns the value for key and whether it exists. The returned slice
// is a copy; the key is only read.
func (s *State) Get(key []byte) ([]byte, bool) {
	return copyValue(lookup(s, key))
}

// lookup returns the stored slice for key WITHOUT copying. Stored value
// slices are immutable — every write path installs a fresh slice and
// nothing mutates one in place — so the result is safe to read or hash
// indefinitely, but callers must never write through it. The overlay
// reads the committed state through it to keep the hot path
// allocation-free.
func lookup[K stateKey](s *State, key K) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[string(key)]
	return v, ok
}

// Set stores a copy of value under key.
func (s *State) Set(key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prior, existed := s.data[key]
	s.journal = append(s.journal, journalEntry{key: key, prior: prior, existed: existed})
	if existed {
		s.foldLeafLocked(key, prior, -1)
	}
	cp := make([]byte, len(value))
	copy(cp, value)
	s.data[key] = cp
	s.foldLeafLocked(key, cp, +1)
}

// Delete removes key.
func (s *State) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prior, existed := s.data[key]
	if !existed {
		return
	}
	s.journal = append(s.journal, journalEntry{key: key, prior: prior, existed: true})
	s.foldLeafLocked(key, prior, -1)
	delete(s.data, key)
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

// Checkpoint marks the current journal position; RevertTo undoes every
// mutation made after it.
func (s *State) Checkpoint() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.journal)
}

// RevertTo rolls the state back to a checkpoint previously returned by
// Checkpoint.
func (s *State) RevertTo(checkpoint int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.journal) - 1; i >= checkpoint; i-- {
		e := s.journal[i]
		if cur, ok := s.data[e.key]; ok {
			s.foldLeafLocked(e.key, cur, -1)
		}
		if e.existed {
			s.data[e.key] = e.prior
			s.foldLeafLocked(e.key, e.prior, +1)
		} else {
			delete(s.data, e.key)
		}
	}
	s.journal = s.journal[:checkpoint]
}

// DiscardJournal forgets rollback information (called after a block
// commits; mutations become permanent).
func (s *State) DiscardJournal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = s.journal[:0]
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

// TakeDiff makes every mutation journaled since the last commit
// permanent and returns their net effect for persistence — one Delta per
// touched key, sorted by key for a deterministic encoding. Because the
// journal is retired in the same critical section, the returned deltas
// safely alias the stored (immutable) value slices instead of copying
// every touched value — the move-semantics path used on the commit hot
// path. Later writes to the same keys replace the stored slices rather
// than mutating them, so the returned diff stays stable.
func (s *State) TakeDiff() []Delta {
	s.mu.Lock()
	defer s.mu.Unlock()
	touched := make(map[string]struct{}, len(s.journal))
	for _, e := range s.journal {
		touched[e.key] = struct{}{}
	}
	diff := make([]Delta, 0, len(touched))
	for k := range touched {
		if v, ok := s.data[k]; ok {
			diff = append(diff, Delta{K: k, V: v})
		} else {
			diff = append(diff, Delta{K: k, Del: true})
		}
	}
	sort.Slice(diff, func(i, j int) bool { return diff[i].K < diff[j].K })
	s.journal = s.journal[:0]
	return diff
}

// ApplyDiff applies a block's recorded deltas (recovery replay). The
// root is maintained incrementally by Set/Delete; the journal entries the
// application creates are discarded, mirroring a committed block.
func (s *State) ApplyDiff(diff []Delta) {
	for _, d := range diff {
		if d.Del {
			s.Delete(d.K)
		} else {
			s.Set(d.K, d.V)
		}
	}
	s.DiscardJournal()
}

// ExportShared returns the full key-value content in a fresh map that
// SHARES the stored value slices instead of copying them — a
// copy-on-write export costing O(keys) map work and zero byte copying.
// It is safe because stored values are immutable: every subsequent Set
// installs a fresh slice, leaving the shared ones untouched. The
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

// applyDeltas folds a committed block's net diff into the state: no
// journaling (the block is final) and no value copying (the deltas'
// values are moved in — callers hand over ownership, e.g. an overlay's
// drained layer or freshly decoded WAL records). The root is maintained
// incrementally, so folding costs O(touched keys).
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
// the construction). It is O(1): the commitment is maintained
// incrementally by every mutation.
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

// Clone returns a deep copy of the state with an empty journal. Clones are
// how validator nodes re-execute proposed blocks without disturbing their
// committed state.
func (s *State) Clone() *State {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := NewState()
	for k, v := range s.data {
		cp := make([]byte, len(v))
		copy(cp, v)
		c.data[k] = cp
	}
	c.root = s.root
	c.bytes = s.bytes
	return c
}
