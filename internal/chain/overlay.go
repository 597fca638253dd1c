package chain

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/cryptoutil"
)

// StateReader is the read surface of state: what a query runs against
// (the committed *State) and what an Overlay layers over (the committed
// *State for a block overlay, or a parent *Overlay for the
// per-transaction child overlays the parallel scheduler executes against,
// parallel.go). An Overlay's point reads of its base go through view,
// which serves both without copying.
type StateReader interface {
	// Get returns the value for key and whether it exists. An overlay
	// hands out a view of the stored slice, which the caller never writes
	// through; the committed *State hands out a copy, since the queries
	// that read it pass the bytes on to code outside the ledger. The key
	// is only read: a contract builds it in a reused buffer, and the
	// lookup allocates nothing for it.
	Get(key []byte) ([]byte, bool)
	// Keys returns the keys with the given prefix, sorted.
	Keys(prefix string) []string
}

// StateRW is the surface a transaction executes against. Its one
// implementation is *Overlay: sealing, validation and the parallel
// scheduler's children all run transactions on an overlay, and a
// committed block reaches the *State only through applyDeltas.
type StateRW interface {
	StateReader
	// Set stores value under key. The slice is handed over: the state
	// keeps it, and the caller must not write it afterwards.
	Set(key string, value []byte)
	// Delete removes key (a no-op when absent).
	Delete(key string)
}

var (
	_ StateReader = (*State)(nil)
	_ StateRW     = (*Overlay)(nil)
)

// overlayEntry is one key's pending effect in an overlay: a replacement
// value or a deletion marker.
type overlayEntry struct {
	value []byte
	del   bool
}

// overlayJournal records the layer entry a mutation displaced, so
// RevertTo can restore it (and the root) exactly.
type overlayJournal struct {
	key     string
	prior   overlayEntry
	existed bool // the key had a layer entry before the mutation
}

// Overlay is a copy-on-write view over a committed *State: reads fall
// through to the base, writes and deletes land in a small layer map, and
// the XOR state root is maintained incrementally from the base's root.
// Executing a block against an overlay therefore costs O(touched keys)
// regardless of ledger size, and on success the layer is exactly the
// block's net diff, so no separate Diff pass is needed. The overlay is
// also where a reverted transaction is undone: Checkpoint and RevertTo
// are the only journal in the package.
//
// The base state must not be mutated while the overlay is live (the
// node's sealMu guarantees this: commitBlock, which folds blocks into a
// live node's state, runs under it). Concurrent readers of the base are
// fine — the overlay never writes through. An Overlay is safe for
// concurrent use, mirroring State's contract.
type Overlay struct {
	mu      sync.RWMutex
	base    StateReader
	layer   map[string]overlayEntry
	journal []overlayJournal
	root    cryptoutil.Hash

	// Read-set tracking, enabled only on the child overlays the parallel
	// scheduler hands each transaction (newChildOverlay). reads records
	// every key whose value or existence the transaction observed (Get
	// and Delete — a delete's no-op decision is itself a read);
	// prefixReads records every Keys listing. Both feed touched-key
	// conflict detection; block overlays skip the bookkeeping entirely.
	recordReads bool
	reads       map[string]struct{} // guarded by mu
	prefixReads map[string]struct{} // guarded by mu
}

// NewOverlay returns an empty overlay over base.
func NewOverlay(base *State) *Overlay {
	return &Overlay{
		base:  base,
		layer: make(map[string]overlayEntry),
		root:  base.Root(),
	}
}

// newChildOverlay returns an empty read-recording overlay layered over a
// parent overlay. The parallel scheduler executes each transaction of a
// block against its own child: reads fall through the (quiescent) parent
// to the committed state, writes land in the child's layer, and the
// recorded read set is what conflict detection intersects with earlier
// transactions' write sets. The parent must not be mutated while children
// execute (the scheduler's phase barrier guarantees this).
func newChildOverlay(parent *Overlay) *Overlay {
	return &Overlay{
		base:        parent,
		layer:       make(map[string]overlayEntry),
		root:        parent.Root(),
		recordReads: true,
		reads:       make(map[string]struct{}),
		prefixReads: make(map[string]struct{}),
	}
}

// stateKey is a state key as the store holds it or as a contract builds
// it in a buffer. A lookup indexes with string(key), which allocates
// nothing for either form.
type stateKey interface{ ~string | ~[]byte }

// view returns key's value in v WITHOUT copying. The result is immutable
// by the contract lookup documents.
func view[K stateKey](v StateReader, key K) ([]byte, bool) {
	switch v := v.(type) {
	case *State:
		return lookup(v, key)
	case *Overlay:
		v.mu.RLock()
		defer v.mu.RUnlock()
		return effective(v, key)
	}
	panic("chain: unknown state view")
}

// effective returns key's current value as seen through o, without
// copying. o.mu must be held. The returned slice is immutable (neither
// State nor the layer mutates a stored slice in place), so it is safe to
// hash or alias.
func effective[K stateKey](o *Overlay, key K) ([]byte, bool) {
	if e, ok := o.layer[string(key)]; ok {
		if e.del {
			return nil, false
		}
		return e.value, true
	}
	return view(o.base, key)
}

// Get returns the value for key and whether it exists: a view of the
// stored slice, not a copy. The caller must not write through it; its
// capacity is clipped to its length, so an append copies. A
// read-recording child overlay also notes the key in its read set
// (misses included: observing absence is a read too); that copies the
// key the first time the child reads it.
func (o *Overlay) Get(key []byte) ([]byte, bool) {
	if o.recordReads {
		// Recording mutates the read set, so the read path needs the
		// write lock on a child (children are effectively single-owner,
		// so this costs nothing in practice).
		o.mu.Lock()
		defer o.mu.Unlock()
		if _, seen := o.reads[string(key)]; !seen {
			o.reads[string(key)] = struct{}{}
		}
	} else {
		o.mu.RLock()
		defer o.mu.RUnlock()
	}
	v, ok := effective(o, key)
	return v[:len(v):len(v)], ok
}

// Set stores value under key. The overlay keeps the slice it is handed
// (see StateRW.Set): it becomes the layer's value, then the block diff's,
// then the committed state's, and nothing on that path copies it.
func (o *Overlay) Set(key string, value []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	prior, existed := o.layer[key]
	o.journal = append(o.journal, overlayJournal{key: key, prior: prior, existed: existed})
	if cur, ok := effective(o, key); ok {
		xorHash(&o.root, leafHash(key, cur))
	}
	o.layer[key] = overlayEntry{value: value}
	xorHash(&o.root, leafHash(key, value))
}

// Delete removes key. Deleting an absent key is a no-op (and is not
// journaled). On a read-recording child the key joins the read set
// either way: whether the delete takes effect depends on the key's
// existence, which is an observation of state.
func (o *Overlay) Delete(key string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.recordReads {
		o.reads[key] = struct{}{}
	}
	cur, ok := effective(o, key)
	if !ok {
		return
	}
	prior, existed := o.layer[key]
	o.journal = append(o.journal, overlayJournal{key: key, prior: prior, existed: existed})
	xorHash(&o.root, leafHash(key, cur))
	o.layer[key] = overlayEntry{del: true}
}

// Keys returns the keys with the given prefix, sorted: the base's keys
// minus overlay deletions, plus overlay additions. A read-recording
// child notes the prefix: a listing observes the existence of every key
// under it, so any earlier write under the prefix is a conflict.
func (o *Overlay) Keys(prefix string) []string {
	if o.recordReads {
		o.mu.Lock()
		o.prefixReads[prefix] = struct{}{}
		o.mu.Unlock()
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	out := make([]string, 0, len(o.layer))
	for _, k := range o.base.Keys(prefix) {
		if e, ok := o.layer[k]; ok && e.del {
			continue
		}
		out = append(out, k)
	}
	for k, e := range o.layer {
		if e.del || !strings.HasPrefix(k, prefix) {
			continue
		}
		if _, inBase := view(o.base, k); inBase {
			continue // already listed
		}
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Checkpoint marks the current journal position; RevertTo undoes every
// mutation made after it.
func (o *Overlay) Checkpoint() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.journal)
}

// RevertTo rolls the overlay back to a checkpoint previously returned by
// Checkpoint.
func (o *Overlay) RevertTo(checkpoint int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i := len(o.journal) - 1; i >= checkpoint; i-- {
		e := o.journal[i]
		if cur, ok := effective(o, e.key); ok {
			xorHash(&o.root, leafHash(e.key, cur))
		}
		if e.existed {
			o.layer[e.key] = e.prior
		} else {
			delete(o.layer, e.key)
		}
		if cur, ok := effective(o, e.key); ok {
			xorHash(&o.root, leafHash(e.key, cur))
		}
	}
	o.journal = o.journal[:checkpoint]
}

// Root returns the overlay's state commitment: the base root adjusted
// incrementally by every overlay mutation, equal to what the base's root
// becomes once the overlay is folded in.
func (o *Overlay) Root() cryptoutil.Hash {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.root
}

// TakeDeltas drains the overlay's write set as the block's net diff, one
// Delta per touched key sorted by key. The delta values are MOVED out of
// the layer, not copied (they are owned by the overlay and immutable),
// so the commit hot path never re-copies block data. The overlay is
// empty afterwards and must not be written again by the caller.
func (o *Overlay) TakeDeltas() []Delta {
	o.mu.Lock()
	defer o.mu.Unlock()
	diff := make([]Delta, 0, len(o.layer))
	for k, e := range o.layer {
		if e.del {
			diff = append(diff, Delta{K: k, Del: true})
		} else {
			diff = append(diff, Delta{K: k, V: e.value})
		}
	}
	sort.Slice(diff, func(i, j int) bool { return diff[i].K < diff[j].K })
	o.layer = make(map[string]overlayEntry)
	o.journal = nil
	return diff
}

// conflictsWith reports whether the child overlay's recorded read set
// (keys plus Keys-listing prefixes) intersects written — the union of
// the write sets of the transactions merged ahead of it. A hit means the
// optimistic execution observed state an earlier transaction changes, so
// its result cannot be trusted and the scheduler re-executes serially.
func (o *Overlay) conflictsWith(written map[string]struct{}) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	for k := range o.reads {
		if _, ok := written[k]; ok {
			return true
		}
	}
	for p := range o.prefixReads {
		for k := range written {
			if strings.HasPrefix(k, p) {
				return true
			}
		}
	}
	return false
}

// addWriteKeys folds the overlay's write set (layer keys, deletions
// included) into written, for conflict checks against later transactions.
func (o *Overlay) addWriteKeys(written map[string]struct{}) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	for k := range o.layer {
		written[k] = struct{}{}
	}
}

// mergeChild folds a non-conflicting child's layer into this overlay,
// entry for entry — NOT through Set/Delete. The distinction matters for
// bit-identical block diffs: a transaction that creates and then deletes
// a base-absent key leaves a deletion marker in its layer, and the serial
// path's single overlay would carry that marker into TakeDeltas, so the
// merge must preserve it verbatim rather than letting Delete's absent-key
// no-op drop it. Values are moved, not copied (the child is discarded
// afterwards and its slices are immutable). The root is maintained
// incrementally exactly as Set/Delete would.
func (o *Overlay) mergeChild(child *Overlay) {
	child.mu.RLock()
	keys := make([]string, 0, len(child.layer))
	for k := range child.layer {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	entries := make([]overlayEntry, len(keys))
	for i, k := range keys {
		entries[i] = child.layer[k]
	}
	child.mu.RUnlock()

	o.mu.Lock()
	defer o.mu.Unlock()
	for i, k := range keys {
		e := entries[i]
		if cur, ok := effective(o, k); ok {
			xorHash(&o.root, leafHash(k, cur))
		}
		if !e.del {
			xorHash(&o.root, leafHash(k, e.value))
		}
		o.layer[k] = e
	}
}
