package chain

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// referenceState builds a committed state with n keys under two
// prefixes, folded in as one block.
func referenceState(n int) *State {
	kv := make([]string, 0, 2*n+2)
	for i := range n {
		kv = append(kv, fmt.Sprintf("a/%04d", i), fmt.Sprintf("v%d", i))
	}
	st := NewState()
	foldSet(st, append(kv, "b/only", "base")...)
	return st
}

// TestOverlayReadThrough: an empty overlay is indistinguishable from its
// base — values, key listings, and root.
func TestOverlayReadThrough(t *testing.T) {
	st := referenceState(8)
	ov := NewOverlay(st)
	if got, ok := ov.Get([]byte("a/0003")); !ok || string(got) != "v3" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := ov.Get([]byte("missing")); ok {
		t.Fatal("missing key found")
	}
	if got, want := ov.Keys("a/"), st.Keys("a/"); !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	if ov.Root() != st.Root() {
		t.Fatal("fresh overlay root differs from base")
	}
}

// TestOverlayWritesShadowBase: writes and deletes are visible through
// the overlay and invisible on the base; Keys merges correctly.
func TestOverlayWritesShadowBase(t *testing.T) {
	st := referenceState(4)
	baseRoot := st.Root()
	ov := NewOverlay(st)

	ov.Set("a/0001", []byte("patched"))
	ov.Set("a/new", []byte("added"))
	ov.Delete("a/0002")
	ov.Delete("nonexistent") // no-op

	if got, _ := ov.Get([]byte("a/0001")); string(got) != "patched" {
		t.Fatalf("overlay read = %q", got)
	}
	if got, _ := st.Get([]byte("a/0001")); string(got) != "v1" {
		t.Fatalf("base mutated: %q", got)
	}
	if _, ok := ov.Get([]byte("a/0002")); ok {
		t.Fatal("deleted key visible through overlay")
	}
	if _, ok := st.Get([]byte("a/0002")); !ok {
		t.Fatal("delete leaked to base")
	}
	want := []string{"a/0000", "a/0001", "a/0003", "a/new"}
	if got := ov.Keys("a/"); !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	if st.Root() != baseRoot {
		t.Fatal("base root changed")
	}
}

// TestOverlayGetReturnsClippedView: Get hands out the stored slice
// itself, from the layer and from the base, with its capacity clipped to
// its length, so an append copies instead of writing past the value. A
// write through a view is what the ownership rule forbids; the integrity
// check catches it, because the root was hashed from the bytes when they
// were stored.
func TestOverlayGetReturnsClippedView(t *testing.T) {
	st := referenceState(1)
	ov := NewOverlay(st)
	ov.Set("k", make([]byte, 5, 64))
	for _, key := range []string{"k", "a/0000"} {
		v, ok := ov.Get([]byte(key))
		if !ok || cap(v) != len(v) {
			t.Fatalf("Get(%q): ok %v, len %d, cap %d; want a view clipped to its length", key, ok, len(v), cap(v))
		}
		if again, _ := ov.Get([]byte(key)); &again[0] != &v[0] {
			t.Fatalf("Get(%q) copied the stored value", key)
		}
		if grown := append(v, 'X'); &grown[0] == &v[0] {
			t.Fatalf("Get(%q): an append wrote into the stored slice's array", key)
		}
	}

	// The integrity check: the root recomputed from the stored bytes.
	integrity := func(st *State) bool {
		root, _ := recompute(st)
		return root == st.Root()
	}
	st.applyDeltas(ov.TakeDeltas())
	if !integrity(st) {
		t.Fatal("integrity check fails on an untouched state")
	}
	v, _ := NewOverlay(st).Get([]byte("a/0000"))
	v[0] ^= 0xff
	if integrity(st) {
		t.Fatal("integrity check passes after a write through a view")
	}
}

// TestOverlayRootMatchesFoldedState: for a random mutation sequence, the
// overlay's incrementally maintained root equals the root recomputed
// from a plain map that applied the same mutations, and folding the
// drained deltas into the base reproduces it exactly.
func TestOverlayRootMatchesFoldedState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	st := referenceState(32)
	mirror := newMapState(st)
	ov := NewOverlay(st)
	for i := range 500 {
		key := fmt.Sprintf("a/%04d", rng.Intn(40)) // hits existing and fresh keys
		if rng.Intn(4) == 0 {
			ov.Delete(key)
			mirror.Delete(key)
		} else {
			val := []byte(fmt.Sprintf("r%d", i))
			ov.Set(key, val)
			mirror.Set(key, val)
		}
		if root, _ := recompute(mirror); ov.Root() != root {
			t.Fatalf("root diverged after %d mutations", i+1)
		}
	}
	deltas := ov.TakeDeltas()
	for i := 1; i < len(deltas); i++ {
		if deltas[i-1].K >= deltas[i].K {
			t.Fatalf("deltas not sorted: %q >= %q", deltas[i-1].K, deltas[i].K)
		}
	}
	st.applyDeltas(deltas)
	if root, size := recompute(mirror); st.Root() != root || st.Bytes() != size {
		t.Fatal("folding deltas into the base diverged from direct application")
	}
	if st.Len() != len(mirror.data) {
		t.Fatalf("folded Len = %d, mirror %d", st.Len(), len(mirror.data))
	}
}

// TestOverlayCheckpointRevert: RevertTo undoes layer entries and root
// exactly, across set-new, overwrite-layer, overwrite-base, and delete.
func TestOverlayCheckpointRevert(t *testing.T) {
	st := referenceState(4)
	ov := NewOverlay(st)
	ov.Set("a/0000", []byte("block-tx1"))
	rootAfterTx1 := ov.Root()

	cp := ov.Checkpoint()
	ov.Set("a/0000", []byte("tx2-overwrites-layer"))
	ov.Set("a/0001", []byte("tx2-overwrites-base"))
	ov.Set("fresh", []byte("tx2-new"))
	ov.Delete("a/0003")
	ov.RevertTo(cp)

	if ov.Root() != rootAfterTx1 {
		t.Fatal("root not restored")
	}
	if got, _ := ov.Get([]byte("a/0000")); string(got) != "block-tx1" {
		t.Fatalf("layer value = %q", got)
	}
	if got, _ := ov.Get([]byte("a/0001")); string(got) != "v1" {
		t.Fatalf("base value = %q", got)
	}
	if _, ok := ov.Get([]byte("fresh")); ok {
		t.Fatal("reverted key still present")
	}
	if _, ok := ov.Get([]byte("a/0003")); !ok {
		t.Fatal("reverted delete still effective")
	}
	// Only the pre-checkpoint write survives into the deltas.
	deltas := ov.TakeDeltas()
	if len(deltas) != 1 || deltas[0].K != "a/0000" || string(deltas[0].V) != "block-tx1" {
		t.Fatalf("deltas = %+v", deltas)
	}
}

// TestOverlayDeleteOfFreshKey: a key created and deleted inside the
// overlay yields a deletion delta that is a no-op on fold (matching the
// journal-based Diff semantics the WAL format already records).
func TestOverlayDeleteOfFreshKey(t *testing.T) {
	st := referenceState(1)
	ov := NewOverlay(st)
	ov.Set("temp", []byte("x"))
	ov.Delete("temp")
	if ov.Root() != st.Root() {
		t.Fatal("net no-op changed the root")
	}
	deltas := ov.TakeDeltas()
	if len(deltas) != 1 || !deltas[0].Del || deltas[0].K != "temp" {
		t.Fatalf("deltas = %+v", deltas)
	}
	before := st.Root()
	st.applyDeltas(deltas)
	if st.Root() != before {
		t.Fatal("no-op delete delta changed the base root")
	}
}

// TestOverlayRevertCheckpointUnderConcurrentReaders: a writer cycling
// Checkpoint / Set / Delete / RevertTo must never expose readers (Get,
// Keys, Root) to a torn view — the -race proof that the journal
// rollback path and the read paths share the overlay lock correctly.
func TestOverlayRevertCheckpointUnderConcurrentReaders(t *testing.T) {
	st := referenceState(16)
	ov := NewOverlay(st)
	baseRoot := st.Root()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch (i + r) % 4 {
				case 0:
					if v, ok := ov.Get([]byte(fmt.Sprintf("a/%04d", i%16))); ok && len(v) == 0 {
						t.Error("read a present key with empty value")
						return
					}
				case 1:
					_ = ov.Keys("a/")
				case 2:
					_ = ov.Root()
				case 3:
					_, _ = ov.Get([]byte("b/only"))
				}
			}
		}()
	}

	for i := range 500 {
		cp := ov.Checkpoint()
		ov.Set(fmt.Sprintf("a/%04d", i%16), []byte(fmt.Sprintf("w%d", i)))
		ov.Set(fmt.Sprintf("new/%d", i%8), []byte("x"))
		ov.Delete(fmt.Sprintf("a/%04d", (i+1)%16))
		if i%2 == 0 {
			ov.RevertTo(cp)
		}
	}
	ov.RevertTo(0)
	close(stop)
	wg.Wait()

	// Fully reverted: the overlay must be transparent again.
	if ov.Root() != baseRoot {
		t.Fatalf("root after RevertTo(0) = %s, want base %s", ov.Root().Short(), baseRoot.Short())
	}
	if deltas := ov.TakeDeltas(); len(deltas) != 0 {
		t.Fatalf("reverted overlay drained %d deltas, want 0", len(deltas))
	}
}

// TestTakeDeltasOnRevertedEmptyOverlay: RevertTo(0) must leave nothing
// for TakeDeltas to drain — no phantom deltas, an unchanged root, and a
// still-usable overlay afterwards.
func TestTakeDeltasOnRevertedEmptyOverlay(t *testing.T) {
	st := referenceState(4)
	ov := NewOverlay(st)
	cpEmpty := ov.Checkpoint()
	if cpEmpty != 0 {
		t.Fatalf("fresh overlay checkpoint = %d, want 0", cpEmpty)
	}
	ov.Set("a/0001", []byte("changed"))
	ov.Delete("a/0002")
	ov.Set("fresh", []byte("new"))
	ov.RevertTo(0)

	if got := ov.TakeDeltas(); len(got) != 0 {
		t.Fatalf("TakeDeltas after full revert = %+v, want empty", got)
	}
	if ov.Root() != st.Root() {
		t.Fatal("root diverged from base after revert+drain")
	}
	// The drained overlay is reusable: new writes produce exactly their
	// own deltas.
	ov.Set("later", []byte("y"))
	deltas := ov.TakeDeltas()
	if len(deltas) != 1 || deltas[0].K != "later" || string(deltas[0].V) != "y" {
		t.Fatalf("post-revert write drained %+v", deltas)
	}
}

// valueSink keeps what an allocation pin reads, so that the read escapes.
var valueSink []byte

// TestOverlayValueAccessAllocatesNothing: a transaction's reads and its
// rewrites of a key it already wrote cost no allocation. Get hands out a
// view of the stored slice, from the layer and from the base, and Set
// keeps the slice it is handed; the journal entry a Set adds is undone
// by RevertTo without shrinking the journal's array, so after warm-up
// neither grows anything.
func TestOverlayValueAccessAllocatesNothing(t *testing.T) {
	// Values past 32 bytes, and reads kept in a package variable, so that
	// a copy could not hide in the tiny allocator's blocks or on the stack.
	st := NewState()
	foldSet(st, "base", "a value the committed state holds")
	ov := NewOverlay(st)
	value := []byte("a value the overlay's layer holds")
	ov.Set("k", value)
	for _, key := range [][]byte{[]byte("k"), []byte("base"), []byte("absent")} {
		if n := testing.AllocsPerRun(100, func() { valueSink, _ = ov.Get(key) }); n != 0 {
			t.Errorf("Get(%q): %.0f allocations, want 0", key, n)
		}
	}
	cp := ov.Checkpoint()
	if n := testing.AllocsPerRun(100, func() {
		ov.Set("k", value)
		ov.RevertTo(cp)
	}); n != 0 {
		t.Errorf("Set of a key already in the layer: %.0f allocations, want 0", n)
	}
	if v, ok := ov.Get([]byte("k")); !ok || &v[0] != &value[0] {
		t.Fatal("the layer does not hold the slice handed to Set")
	}
}
