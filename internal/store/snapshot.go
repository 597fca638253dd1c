package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// snapshot filename shape: snap-<seq, 16 hex digits>.snap
const (
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

// SnapshotFloor is the smallest diff tail worth replacing with a
// snapshot: below it, replaying the tail on recovery costs less than
// writing the snapshot would have. Measured by the chain package's
// BenchmarkSnapshotFloor on the reference host: replaying 1 MiB of diff
// takes ≈ 3.0 ms, writing a 1 MiB snapshot (fsync and rename included)
// ≈ 3.7 ms, loading one ≈ 5.8 ms.
const SnapshotFloor = 1 << 20

// SnapshotDue is the one snapshot trigger, shared by the chain and pod
// layers: due when the diff tail a recovery would have to replay is at
// least as large as the snapshot that would replace it, and at least
// floor (SnapshotFloor outside tests). snapshotBytes is that snapshot's
// size where the caller tracks it (the chain's State.Bytes), else the
// last one's (pods). Snapshot writes then cost at most one byte per diff
// byte committed (two for pods) and a recovery replays less than
// max(floor, snapshotBytes). The rule reads committed bytes only, so
// replicas and repeated runs snapshot at the same points.
func SnapshotDue(tailBytes, snapshotBytes, floor int64) bool {
	return tailBytes >= max(floor, snapshotBytes)
}

// snapshotPath returns the snapshot filename for a sequence number.
func snapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix))
}

// WriteSnapshot atomically writes a CRC-framed snapshot with the given
// sequence number: the payload goes to a temp file, is fsynced, and is
// renamed into place, so a crash mid-write never leaves a torn snapshot
// under the final name.
func WriteSnapshot(dir string, seq uint64, payload []byte) error {
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("store: snapshot %d exceeds MaxRecordSize (%d bytes)", seq, len(payload))
	}
	tmp, err := os.CreateTemp(dir, snapPrefix+"tmp-*")
	if err != nil {
		return fmt.Errorf("store: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	// Header and payload go out as two writes — the same bytes on disk as
	// one framed record, without copying a full-state payload to frame it.
	hdr := recordHeader(payload)
	for _, part := range [][]byte{hdr[:], payload} {
		if _, err := tmp.Write(part); err != nil {
			return errors.Join(fmt.Errorf("store: snapshot write: %w", err), tmp.Close())
		}
	}
	if err := tmp.Sync(); err != nil {
		return errors.Join(fmt.Errorf("store: snapshot sync: %w", err), tmp.Close())
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), snapshotPath(dir, seq)); err != nil {
		return fmt.Errorf("store: snapshot rename: %w", err)
	}
	return nil
}

// LoadSnapshot reads and validates the snapshot with the given sequence
// number, returning its payload.
func LoadSnapshot(dir string, seq uint64) ([]byte, error) {
	raw, err := os.ReadFile(snapshotPath(dir, seq))
	if err != nil {
		return nil, fmt.Errorf("store: load snapshot %d: %w", seq, err)
	}
	payload, consumed, err := DecodeRecord(raw)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot %d: %w", seq, err)
	}
	if consumed != len(raw) {
		return nil, fmt.Errorf("%w: snapshot %d has %d trailing bytes", ErrCorruptRecord, seq, len(raw)-consumed)
	}
	return payload, nil
}

// ListSnapshots returns the sequence numbers of the snapshots present in
// dir, newest first. Files that merely look like snapshots but do not
// parse are ignored (their content is validated only on load).
func ListSnapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: list snapshots: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		hexSeq := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
		seq, err := strconv.ParseUint(hexSeq, 16, 64)
		if err != nil {
			continue // a temp file or foreign name
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	return seqs, nil
}

// LatestSnapshot returns the newest decodable snapshot whose sequence
// number does not exceed maxSeq. Corrupt or too-new snapshots are skipped
// in favour of older ones; ok is false when none qualifies (recovery then
// replays the whole log).
func LatestSnapshot(dir string, maxSeq uint64) (seq uint64, payload []byte, ok bool) {
	seqs, err := ListSnapshots(dir)
	if err != nil {
		return 0, nil, false
	}
	for _, s := range seqs {
		if s > maxSeq {
			continue
		}
		p, err := LoadSnapshot(dir, s)
		if err != nil {
			continue
		}
		return s, p, true
	}
	return 0, nil, false
}

// PruneSnapshots removes all but the newest keep snapshots. It never
// removes the file a concurrent LatestSnapshot would prefer (the newest),
// and returns the number deleted.
func PruneSnapshots(dir string, keep int) (int, error) {
	if keep < 1 {
		keep = 1
	}
	seqs, err := ListSnapshots(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, s := range seqs[min(keep, len(seqs)):] {
		if err := os.Remove(snapshotPath(dir, s)); err != nil {
			return removed, fmt.Errorf("store: prune snapshot %d: %w", s, err)
		}
		removed++
	}
	return removed, nil
}
