package solid

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/store"
)

// FuzzPodRecordDecode feeds arbitrary bytes to the two decoders pod
// recovery runs on what it reads from disk: decodePodOp on every op-log
// record and decodePodSnapshot on a snapshot file. Neither may panic, and
// a record either accepts must encode again to the same bytes. The corpus
// is seeded with the op log and the latest snapshot of a real durable pod.
func FuzzPodRecordDecode(f *testing.F) {
	dir := f.TempDir()
	p, err := OpenPod(persistOwner, "https://alice.pod", dir, store.Options{Sync: store.SyncNever})
	if err != nil {
		f.Fatal(err)
	}
	p.mu.Lock()
	p.persist.floor = 1
	p.mu.Unlock()
	at := persistEpoch.In(time.FixedZone("", 5*3600+45*60))
	if err := p.Put(persistOwner, "/data/a.txt", "text/plain", []byte("alice"), at); err != nil {
		f.Fatal(err)
	}
	if _, _, err := p.Append(persistOwner, "/inbox/", "application/ld+json", []byte(`{"n":1}`), at.Add(time.Second)); err != nil {
		f.Fatal(err)
	}
	acl := NewACL(persistOwner, "/data/")
	acl.Authorizations = append(acl.Authorizations, Authorization{
		ID: "reader", Agents: []WebID{persistReader}, AccessTo: "/data/a.txt", Modes: []AccessMode{ModeRead},
	})
	if err := p.SetACL(persistOwner, "/data/", acl); err != nil {
		f.Fatal(err)
	}
	if err := p.Delete(persistOwner, "/data/a.txt"); err != nil {
		f.Fatal(err)
	}
	if err := p.CloseStore(); err != nil {
		f.Fatal(err)
	}
	_, snapshot, ok := store.LatestSnapshot(dir, math.MaxUint64)
	if !ok {
		f.Fatal("the pod wrote no snapshot")
	}
	f.Add(snapshot)
	wal, records, err := store.OpenWAL(filepath.Join(dir, podLogName), store.Options{Sync: store.SyncNever})
	if err != nil {
		f.Fatal(err)
	}
	if len(records) != 4 {
		f.Fatalf("%d op-log records, want 4", len(records))
	}
	for _, rec := range records {
		f.Add(rec.Payload)
	}
	if err := wal.Close(); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		if op, err := decodePodOp(payload); err == nil {
			if again := encodePodOp(&op); !bytes.Equal(again, payload) {
				t.Fatalf("accepted op %+v encodes to % x, not to % x", op, again, payload)
			}
		}
		if snap, err := decodePodSnapshot(payload); err == nil {
			if again := encodePodSnapshot(snap); !bytes.Equal(again, payload) {
				t.Fatalf("accepted snapshot %+v encodes to % x, not to % x", snap, again, payload)
			}
		}
	})
}
