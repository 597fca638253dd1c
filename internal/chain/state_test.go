package chain

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cryptoutil"
)

func TestStateGetSetDelete(t *testing.T) {
	st := NewState()
	if _, ok := st.Get([]byte("missing")); ok {
		t.Fatal("Get on empty state returned ok")
	}
	st.Set("a", []byte("1"))
	v, ok := st.Get([]byte("a"))
	if !ok || string(v) != "1" {
		t.Fatalf("Get = %q, %t", v, ok)
	}
	st.Set("a", []byte("2"))
	v, _ = st.Get([]byte("a"))
	if string(v) != "2" {
		t.Fatal("overwrite failed")
	}
	st.Delete("a")
	if _, ok := st.Get([]byte("a")); ok {
		t.Fatal("Delete failed")
	}
	st.Delete("a") // idempotent
	if st.Len() != 0 {
		t.Fatalf("Len = %d, want 0", st.Len())
	}
}

func TestStateCopiesValues(t *testing.T) {
	st := NewState()
	in := []byte("abc")
	st.Set("k", in)
	in[0] = 'X'
	out, _ := st.Get([]byte("k"))
	if string(out) != "abc" {
		t.Fatal("Set did not copy the input")
	}
	out[0] = 'Y'
	again, _ := st.Get([]byte("k"))
	if string(again) != "abc" {
		t.Fatal("Get did not copy the output")
	}
}

func TestStateKeysPrefix(t *testing.T) {
	st := NewState()
	st.Set("pods/alice", []byte("1"))
	st.Set("pods/bob", []byte("2"))
	st.Set("resources/r1", []byte("3"))
	keys := st.Keys("pods/")
	if len(keys) != 2 || keys[0] != "pods/alice" || keys[1] != "pods/bob" {
		t.Fatalf("Keys = %v", keys)
	}
	if len(st.Keys("zzz")) != 0 {
		t.Fatal("prefix miss should return empty")
	}
}

func TestStateRevert(t *testing.T) {
	st := NewState()
	st.Set("a", []byte("1"))
	st.DiscardJournal()

	cp := st.Checkpoint()
	st.Set("a", []byte("2")) // overwrite
	st.Set("b", []byte("3")) // create
	st.Delete("a")           // delete overwritten key
	st.RevertTo(cp)

	v, ok := st.Get([]byte("a"))
	if !ok || string(v) != "1" {
		t.Fatalf("a = %q, %t; want original value restored", v, ok)
	}
	if _, ok := st.Get([]byte("b")); ok {
		t.Fatal("created key survived revert")
	}
}

func TestStateNestedCheckpoints(t *testing.T) {
	st := NewState()
	st.Set("x", []byte("0"))
	cp1 := st.Checkpoint()
	st.Set("x", []byte("1"))
	cp2 := st.Checkpoint()
	st.Set("x", []byte("2"))
	st.RevertTo(cp2)
	if v, _ := st.Get([]byte("x")); string(v) != "1" {
		t.Fatalf("x = %s after inner revert, want 1", v)
	}
	st.RevertTo(cp1)
	if v, _ := st.Get([]byte("x")); string(v) != "0" {
		t.Fatalf("x = %s after outer revert, want 0", v)
	}
}

func TestStateRootDeterministicAndSensitive(t *testing.T) {
	a := NewState()
	b := NewState()
	// Insert in different orders.
	a.Set("k1", []byte("v1"))
	a.Set("k2", []byte("v2"))
	b.Set("k2", []byte("v2"))
	b.Set("k1", []byte("v1"))
	if a.Root() != b.Root() {
		t.Fatal("root depends on insertion order")
	}
	b.Set("k3", []byte("v3"))
	if a.Root() == b.Root() {
		t.Fatal("root insensitive to extra key")
	}
	b.Delete("k3")
	if a.Root() != b.Root() {
		t.Fatal("root did not return after delete")
	}
	b.Set("k1", []byte("OTHER"))
	if a.Root() == b.Root() {
		t.Fatal("root insensitive to value change")
	}
}

func TestStateClone(t *testing.T) {
	st := NewState()
	st.Set("k", []byte("v"))
	c := st.Clone()
	if c.Root() != st.Root() {
		t.Fatal("clone root differs")
	}
	c.Set("k", []byte("mutated"))
	if v, _ := st.Get([]byte("k")); string(v) != "v" {
		t.Fatal("clone mutation leaked into original")
	}
}

// TestStateRevertProperty: applying any mutation sequence after a
// checkpoint and reverting restores the exact root.
func TestStateRevertProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		st := NewState()
		st.Set("seed", []byte("value"))
		st.DiscardJournal()
		before := st.Root()
		cp := st.Checkpoint()
		for i, op := range ops {
			key := fmt.Sprintf("k%d", op%8)
			switch op % 3 {
			case 0:
				st.Set(key, []byte{op, byte(i)})
			case 1:
				st.Set("seed", []byte{op})
			case 2:
				st.Delete(key)
			}
		}
		st.RevertTo(cp)
		return st.Root() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// recompute derives the multiset commitment and the byte size from
// scratch through the public API, for cross-checking the incrementally
// maintained ones.
func recompute(st *State) (root cryptoutil.Hash, size int64) {
	for _, k := range st.Keys("") {
		v, _ := st.Get([]byte(k))
		xorHash(&root, leafHash(k, v))
		size += int64(len(k) + len(v))
	}
	return root, size
}

// TestStateRootIncrementalMatchesRecomputation: after any random sequence
// of sets, deletes, checkpoints, reverts, replayed diffs and folded
// deltas, the O(1) incremental root and byte size equal the full
// recomputation.
func TestStateRootIncrementalMatchesRecomputation(t *testing.T) {
	f := func(ops []uint16) bool {
		st := NewState()
		var checkpoints []int
		for i, op := range ops {
			key := fmt.Sprintf("k%d", op%16)
			value := bytes.Repeat([]byte{byte(i)}, int(op>>8)%40)
			switch op % 7 {
			case 0, 1:
				st.Set(key, value)
			case 2:
				st.Delete(key)
			case 3:
				checkpoints = append(checkpoints, st.Checkpoint())
			case 4:
				if len(checkpoints) > 0 {
					st.RevertTo(checkpoints[len(checkpoints)-1])
					checkpoints = checkpoints[:len(checkpoints)-1]
				}
			case 5: // recovery replay: retires the journal like a commit
				st.ApplyDiff([]Delta{{K: key, V: value}, {K: fmt.Sprintf("k%d", (op+1)%16), Del: true}})
				checkpoints = nil
			case 6: // commit fold: unjournaled
				st.applyDeltas([]Delta{{K: key, Del: true}, {K: fmt.Sprintf("k%d", (op+1)%16), V: value}})
			}
		}
		root, size := recompute(st)
		return st.Root() == root && st.Bytes() == size && st.Clone().Bytes() == size
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

// TestTakeDiffMoveSemanticsNoAliasing: TakeDiff returns deltas that
// alias the stored (immutable) value slices instead of copying them.
// That is only sound if later mutations REPLACE stored slices rather
// than writing through old ones — this regression test pins exactly
// that: a taken diff must be unaffected by subsequent Set/Delete on the
// same keys, and by mutation of the caller-owned buffer that was Set.
func TestTakeDiffMoveSemanticsNoAliasing(t *testing.T) {
	st := NewState()
	buf := []byte("original")
	st.Set("k", buf)
	st.Set("gone", []byte("doomed"))
	st.Delete("gone")
	diff := st.TakeDiff()
	if len(diff) != 2 {
		t.Fatalf("diff = %+v", diff)
	}

	// Mutating the buffer the caller handed to Set must not reach the
	// diff (Set stored a copy).
	for i := range buf {
		buf[i] = 'X'
	}
	// Overwriting and deleting the key afterwards must not reach the
	// already-taken diff either (stored slices are replaced, never
	// mutated in place).
	st.Set("k", []byte("overwritten"))
	st.Delete("k")
	st.Set("gone", []byte("resurrected"))

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

	// Same property for the overlay's moved deltas.
	ov := NewOverlay(st)
	ovBuf := []byte("layer-value")
	ov.Set("ok", ovBuf)
	deltas := ov.TakeDeltas()
	for i := range ovBuf {
		ovBuf[i] = 'Y'
	}
	if len(deltas) != 1 || string(deltas[0].V) != "layer-value" {
		t.Fatalf("overlay delta mutated: %+v", deltas)
	}
}

// TestExportSharedIsolation: ExportShared shares the stored slices but
// still isolates the map itself.
func TestExportSharedIsolation(t *testing.T) {
	st := NewState()
	st.Set("k", []byte("value"))
	st.DiscardJournal()

	shared := st.ExportShared()
	if string(shared["k"]) != "value" {
		t.Fatalf("shared export = %q", shared["k"])
	}
	// Overwriting the key replaces the stored slice: the shared export
	// keeps observing the old (immutable) value.
	st.Set("k", []byte("fresh"))
	st.DiscardJournal()
	if string(shared["k"]) != "value" {
		t.Fatalf("shared export changed under mutation: %q", shared["k"])
	}
	// And deleting from the export map is invisible to the state.
	delete(shared, "k")
	if _, ok := st.Get([]byte("k")); !ok {
		t.Fatal("state lost a key through the shared export map")
	}
}
