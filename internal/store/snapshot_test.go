package store

import (
	"bytes"
	"math/bits"
	"os"
	"testing"
)

// TestSnapshotRoundTrip: write, list, load.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, 7, []byte("state at 7")); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(dir, 12, []byte("state at 12")); err != nil {
		t.Fatal(err)
	}
	seqs, err := ListSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 12 || seqs[1] != 7 {
		t.Fatalf("ListSnapshots = %v, want [12 7]", seqs)
	}
	payload, err := LoadSnapshot(dir, 7)
	if err != nil || string(payload) != "state at 7" {
		t.Fatalf("LoadSnapshot(7) = %q, %v", payload, err)
	}
	// Header and payload are written separately; the file must still be
	// exactly one framed record.
	raw, err := os.ReadFile(snapshotPath(dir, 7))
	if err != nil {
		t.Fatal(err)
	}
	if want := AppendRecord(nil, []byte("state at 7")); !bytes.Equal(raw, want) {
		t.Fatalf("snapshot file = %x, want one framed record %x", raw, want)
	}
}

// TestLatestSnapshotBounds: maxSeq excludes snapshots newer than the log
// head (the snapshot-ahead-of-torn-WAL case).
func TestLatestSnapshotBounds(t *testing.T) {
	dir := t.TempDir()
	for _, seq := range []uint64{4, 8, 16} {
		if err := WriteSnapshot(dir, seq, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	seq, payload, ok := LatestSnapshot(dir, 10)
	if !ok || seq != 8 || payload[0] != 8 {
		t.Fatalf("LatestSnapshot(10) = %d %v %v, want 8", seq, payload, ok)
	}
	if _, _, ok := LatestSnapshot(dir, 3); ok {
		t.Fatal("LatestSnapshot(3) found a snapshot below every seq")
	}
	if seq, _, ok := LatestSnapshot(dir, 1<<40); !ok || seq != 16 {
		t.Fatalf("LatestSnapshot(max) = %d %v, want 16", seq, ok)
	}
}

// TestLatestSnapshotSkipsCorrupt: a flipped byte in the newest snapshot
// falls back to the older one.
func TestLatestSnapshotSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, 1, []byte("old but intact")); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(dir, 2, []byte("new but doomed")); err != nil {
		t.Fatal(err)
	}
	path := snapshotPath(dir, 2)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	seq, payload, ok := LatestSnapshot(dir, 1<<40)
	if !ok || seq != 1 || !bytes.Equal(payload, []byte("old but intact")) {
		t.Fatalf("LatestSnapshot = %d %q %v, want the intact 1", seq, payload, ok)
	}
	// Trailing garbage after the framed payload is also corruption.
	if err := os.WriteFile(snapshotPath(dir, 3),
		append(AppendRecord(nil, []byte("x")), 0xaa), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(dir, 3); err == nil {
		t.Fatal("snapshot with trailing bytes loaded")
	}
}

// TestPruneSnapshots keeps the newest n.
func TestPruneSnapshots(t *testing.T) {
	dir := t.TempDir()
	for seq := uint64(1); seq <= 5; seq++ {
		if err := WriteSnapshot(dir, seq, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := PruneSnapshots(dir, 2)
	if err != nil || removed != 3 {
		t.Fatalf("PruneSnapshots = %d, %v; want 3 removed", removed, err)
	}
	seqs, _ := ListSnapshots(dir)
	if len(seqs) != 2 || seqs[0] != 5 || seqs[1] != 4 {
		t.Fatalf("after prune: %v, want [5 4]", seqs)
	}
	// keep < 1 is clamped to 1, never deleting everything.
	if _, err := PruneSnapshots(dir, 0); err != nil {
		t.Fatal(err)
	}
	seqs, _ = ListSnapshots(dir)
	if len(seqs) != 1 || seqs[0] != 5 {
		t.Fatalf("after prune 0: %v, want [5]", seqs)
	}
}

// TestListSnapshotsIgnoresForeignFiles: temp files and unrelated names
// never surface as snapshots, and a missing dir lists empty.
func TestListSnapshotsIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snap-tmp-123", "wal.log", "snap-nothex.snap"} {
		if err := os.WriteFile(dir+"/"+name, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := ListSnapshots(dir)
	if err != nil || len(seqs) != 0 {
		t.Fatalf("ListSnapshots = %v, %v; want empty", seqs, err)
	}
	seqs, err = ListSnapshots(dir + "/does-not-exist")
	if err != nil || seqs != nil {
		t.Fatalf("missing dir: %v, %v", seqs, err)
	}
}

// TestSnapshotDue pins the one snapshot trigger: due exactly when the
// tail has reached both the floor and the size of the snapshot.
func TestSnapshotDue(t *testing.T) {
	for _, tc := range []struct {
		tail, snapshot, floor int64
		want                  bool
	}{
		{0, 0, SnapshotFloor, false},
		{SnapshotFloor - 1, 0, SnapshotFloor, false},             // below the floor a replay is cheaper than the fsync
		{SnapshotFloor, 0, SnapshotFloor, true},                  // empty or tiny snapshot: the floor decides
		{SnapshotFloor, 4 * SnapshotFloor, SnapshotFloor, false}, // past the floor, the snapshot's size decides
		{4*SnapshotFloor - 1, 4 * SnapshotFloor, SnapshotFloor, false},
		{4 * SnapshotFloor, 4 * SnapshotFloor, SnapshotFloor, true},
		{100, 99, 1, true}, // a lowered floor (tests) leaves the rule alone
		{98, 99, 1, false},
	} {
		if got := SnapshotDue(tc.tail, tc.snapshot, tc.floor); got != tc.want {
			t.Errorf("SnapshotDue(%d, %d, %d) = %v, want %v", tc.tail, tc.snapshot, tc.floor, got, tc.want)
		}
	}
}

// TestSnapshotDueAmortises replays the rule over a tail that grows by a
// fixed step while every snapshot is as large as everything committed so
// far — the worst case for a pod, which compares against its last
// snapshot. Snapshots come at geometrically growing sizes: O(log N) of
// them, holding at most twice the final size plus the floor.
func TestSnapshotDueAmortises(t *testing.T) {
	const step, steps, floor = 1000, 10_000, 16_000
	var tail, last, total, written int64
	var count int
	for range steps {
		tail += step
		total += step
		if SnapshotDue(tail, last, floor) {
			tail, last = 0, total
			written += total
			count++
		}
	}
	if limit := bits.Len64(uint64(total/floor)) + 1; count > limit {
		t.Fatalf("%d snapshots, want <= %d", count, limit)
	}
	if written > 2*total+floor {
		t.Fatalf("wrote %d bytes of snapshots for %d committed", written, total)
	}
}
