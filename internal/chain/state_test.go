package chain

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cryptoutil"
)

// foldSet folds one block that writes each key/value pair of kv, in
// order, through the state's one writer.
func foldSet(st *State, kv ...string) {
	deltas := make([]Delta, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		deltas = append(deltas, Delta{K: kv[i], V: []byte(kv[i+1])})
	}
	st.applyDeltas(deltas)
}

// foldDelete folds one block that deletes each key.
func foldDelete(st *State, keys ...string) {
	deltas := make([]Delta, 0, len(keys))
	for _, k := range keys {
		deltas = append(deltas, Delta{K: k, Del: true})
	}
	st.applyDeltas(deltas)
}

func TestStateGetSetDelete(t *testing.T) {
	st := NewState()
	if _, ok := st.Get([]byte("missing")); ok {
		t.Fatal("Get on empty state returned ok")
	}
	foldSet(st, "a", "1")
	v, ok := st.Get([]byte("a"))
	if !ok || string(v) != "1" {
		t.Fatalf("Get = %q, %t", v, ok)
	}
	foldSet(st, "a", "2")
	v, _ = st.Get([]byte("a"))
	if string(v) != "2" {
		t.Fatal("overwrite failed")
	}
	foldDelete(st, "a")
	if _, ok := st.Get([]byte("a")); ok {
		t.Fatal("Delete failed")
	}
	foldDelete(st, "a") // idempotent
	if st.Len() != 0 || st.Bytes() != 0 || st.Root() != (cryptoutil.Hash{}) {
		t.Fatalf("Len = %d, Bytes = %d, Root = %s; want an empty state", st.Len(), st.Bytes(), st.Root().Short())
	}
}

// TestStateCopiesValues: a fold moves the value it is handed in (the
// caller gives it up), and Get hands out a copy the caller may write.
func TestStateCopiesValues(t *testing.T) {
	st := NewState()
	foldSet(st, "k", "abc")
	out, _ := st.Get([]byte("k"))
	if string(out) != "abc" {
		t.Fatalf("Get = %q", out)
	}
	out[0] = 'Y'
	again, _ := st.Get([]byte("k"))
	if string(again) != "abc" {
		t.Fatal("Get did not copy the output")
	}
}

func TestStateKeysPrefix(t *testing.T) {
	st := NewState()
	foldSet(st, "pods/alice", "1", "pods/bob", "2", "resources/r1", "3")
	keys := st.Keys("pods/")
	if len(keys) != 2 || keys[0] != "pods/alice" || keys[1] != "pods/bob" {
		t.Fatalf("Keys = %v", keys)
	}
	if len(st.Keys("zzz")) != 0 {
		t.Fatal("prefix miss should return empty")
	}
}

func TestStateRootDeterministicAndSensitive(t *testing.T) {
	a := NewState()
	b := NewState()
	// Insert in different orders.
	foldSet(a, "k1", "v1", "k2", "v2")
	foldSet(b, "k2", "v2")
	foldSet(b, "k1", "v1")
	if a.Root() != b.Root() {
		t.Fatal("root depends on insertion order")
	}
	foldSet(b, "k3", "v3")
	if a.Root() == b.Root() {
		t.Fatal("root insensitive to extra key")
	}
	foldDelete(b, "k3")
	if a.Root() != b.Root() {
		t.Fatal("root did not return after delete")
	}
	foldSet(b, "k1", "OTHER")
	if a.Root() == b.Root() {
		t.Fatal("root insensitive to value change")
	}
}

// recompute derives the multiset commitment and the byte size from
// scratch through the read surface, for cross-checking the incrementally
// maintained ones — of a State, an Overlay, or a test's reference model.
func recompute(st StateReader) (root cryptoutil.Hash, size int64) {
	for _, k := range st.Keys("") {
		v, _ := st.Get([]byte(k))
		xorHash(&root, leafHash(k, v))
		size += int64(len(k) + len(v))
	}
	return root, size
}

// TestStateRootIncrementalMatchesRecomputation: after any random sequence
// of folds — sets, deletes of present and absent keys, and blocks that
// touch several keys at once — the O(1) incremental root and byte size
// equal the full recomputation.
func TestStateRootIncrementalMatchesRecomputation(t *testing.T) {
	f := func(ops []uint16) bool {
		st := NewState()
		for i, op := range ops {
			key := fmt.Sprintf("k%d", op%16)
			value := bytes.Repeat([]byte{byte(i)}, int(op>>8)%40)
			next := fmt.Sprintf("k%d", (op+1)%16)
			switch op % 4 {
			case 0, 1:
				st.applyDeltas([]Delta{{K: key, V: value}})
			case 2:
				st.applyDeltas([]Delta{{K: key, Del: true}})
			case 3:
				st.applyDeltas([]Delta{{K: key, Del: true}, {K: next, V: value}})
			}
		}
		root, size := recompute(st)
		return st.Root() == root && st.Bytes() == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGasMeter(t *testing.T) {
	m := NewGasMeter(100)
	if err := m.Charge(60); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 60 {
		t.Fatalf("used=%d", m.Used())
	}
	if err := m.Charge(41); err == nil {
		t.Fatal("over-limit charge accepted")
	}
	if m.Used() != 100 {
		t.Fatalf("out-of-gas should pin used to limit, got %d", m.Used())
	}
}

func TestGasMeterOverflow(t *testing.T) {
	m := NewGasMeter(^uint64(0))
	if err := m.Charge(^uint64(0) - 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Charge(^uint64(0)); err == nil {
		t.Fatal("overflowing charge accepted")
	}
}

func TestCostLedger(t *testing.T) {
	var l CostLedger
	l.Record(100)
	l.Record(200)
	l.Record(50)
	if got := l.TotalSpent(); got != 350 {
		t.Fatalf("TotalSpent = %d, want 350", got)
	}
}

func TestMerkleRoot(t *testing.T) {
	empty := merkleRoot(nil, nil)
	if empty == (cryptoutil.Hash{}) {
		t.Fatal("empty merkle root should be a defined non-zero digest")
	}
	h1 := merkleRoot(nil, []cryptoutil.Hash{hashOfByte(1)})
	h12 := merkleRoot(nil, []cryptoutil.Hash{hashOfByte(1), hashOfByte(2)})
	h21 := merkleRoot(nil, []cryptoutil.Hash{hashOfByte(2), hashOfByte(1)})
	if h1 == h12 || h12 == h21 {
		t.Fatal("merkle root not order/content sensitive")
	}
	// Odd leaf count exercises promotion.
	h123 := merkleRoot(nil, []cryptoutil.Hash{hashOfByte(1), hashOfByte(2), hashOfByte(3)})
	if h123 == h12 {
		t.Fatal("odd-leaf root collides with even-leaf root")
	}
}

func hashOfByte(b byte) cryptoutil.Hash {
	return cryptoutil.HashOf([]byte{b})
}

// TestTakeDeltasMoveSemanticsNoAliasing: a block's diff moves its values
// from the overlay's layer into the committed state, with no copy on
// any hop. That is only sound if nothing writes through a moved slice:
// the caller hands its buffer over to Set, and a later block replaces
// the stored slice rather than mutating it. This pins both, for the
// drained deltas and for the state they were folded into.
func TestTakeDeltasMoveSemanticsNoAliasing(t *testing.T) {
	st := NewState()
	ov := NewOverlay(st)
	buf := []byte("original")
	ov.Set("k", buf)
	ov.Set("gone", []byte("doomed"))
	ov.Delete("gone")
	diff := ov.TakeDeltas()
	if len(diff) != 2 {
		t.Fatalf("diff = %+v", diff)
	}
	st.applyDeltas(diff)

	// The buffer the caller handed to Set is the one the diff and the
	// state hold: nothing on the way copied it.
	if d := diff[1]; d.K != "k" || &d.V[0] != &buf[0] {
		t.Fatalf("k delta %+v does not hold the buffer handed to Set", d)
	}
	if v, ok := lookup(st, "k"); !ok || &v[0] != &buf[0] {
		t.Fatal("the state does not hold the buffer handed to Set")
	}
	// A later block overwriting and deleting the key must not reach the
	// already-taken diff either (stored slices are replaced, never
	// mutated in place).
	shared := st.ExportShared()
	next := NewOverlay(st)
	next.Set("k", []byte("overwritten"))
	next.Set("gone", []byte("resurrected"))
	st.applyDeltas(next.TakeDeltas())
	after := NewOverlay(st)
	after.Delete("k")
	st.applyDeltas(after.TakeDeltas())

	byKey := map[string]Delta{}
	for _, d := range diff {
		byKey[d.K] = d
	}
	if got := byKey["k"]; string(got.V) != "original" || got.Del {
		t.Fatalf("k delta mutated: %+v", got)
	}
	if got := byKey["gone"]; !got.Del {
		t.Fatalf("gone delta mutated: %+v", got)
	}
	if string(shared["k"]) != "original" {
		t.Fatalf("export taken before the later blocks = %q", shared["k"])
	}
	if _, ok := st.Get([]byte("k")); ok {
		t.Fatal("deleted key still in the state")
	}
	if got, _ := st.Get([]byte("gone")); string(got) != "resurrected" {
		t.Fatalf("gone = %q", got)
	}
}

// TestExportSharedIsolation: ExportShared shares the stored slices but
// still isolates the map itself.
func TestExportSharedIsolation(t *testing.T) {
	st := NewState()
	foldSet(st, "k", "value")

	shared := st.ExportShared()
	if string(shared["k"]) != "value" {
		t.Fatalf("shared export = %q", shared["k"])
	}
	// Overwriting the key replaces the stored slice: the shared export
	// keeps observing the old (immutable) value.
	foldSet(st, "k", "fresh")
	if string(shared["k"]) != "value" {
		t.Fatalf("shared export changed under mutation: %q", shared["k"])
	}
	// And deleting from the export map is invisible to the state.
	delete(shared, "k")
	if _, ok := st.Get([]byte("k")); !ok {
		t.Fatal("state lost a key through the shared export map")
	}
}
