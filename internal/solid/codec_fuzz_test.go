package solid

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/store"
)

// FuzzPodRecordDecode feeds arbitrary bytes to the two decoders pod
// recovery runs on what it reads from disk: decodePodOp on every op-log
// record and decodePodSnapshot on a snapshot file. Neither may panic, and
// a record either accepts must encode again and decode to an equal value.
// Values, not bytes: an ACL is a JSON blob, which spells one document in
// many ways. The corpus is seeded with the op log and the latest snapshot
// of a real durable pod.
func FuzzPodRecordDecode(f *testing.F) {
	dir := f.TempDir()
	p, err := OpenPod(persistOwner, "https://alice.pod", dir, PodStoreOptions{WAL: store.Options{Sync: store.SyncNever}})
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
			again, err := encodePodOp(&op)
			if err != nil {
				t.Fatalf("accepted op does not encode: %v", err)
			}
			op2, err := decodePodOp(again)
			if err != nil || !sameInstant(&op.Modified, &op2.Modified) || !reflect.DeepEqual(op, op2) {
				t.Fatalf("accepted op %+v re-decodes to %+v (%v)", op, op2, err)
			}
		}
		if snap, err := decodePodSnapshot(payload); err == nil {
			again, err := encodePodSnapshot(snap)
			if err != nil {
				t.Fatalf("accepted snapshot does not encode: %v", err)
			}
			snap2, err := decodePodSnapshot(again)
			if err != nil || len(snap2.Resources) != len(snap.Resources) {
				t.Fatalf("accepted snapshot %+v re-decodes to %+v (%v)", snap, snap2, err)
			}
			for i, r := range snap.Resources {
				if !sameInstant(&r.Modified, &snap2.Resources[i].Modified) || !reflect.DeepEqual(r, snap2.Resources[i]) {
					t.Fatalf("resource %d: %+v re-decodes to %+v", i, r, snap2.Resources[i])
				}
			}
			snap.Resources, snap2.Resources = nil, nil
			if !reflect.DeepEqual(snap, snap2) {
				t.Fatalf("accepted snapshot %+v re-decodes to %+v", snap, snap2)
			}
		}
	})
}

// sameInstant reports whether a and b are the same instant, and then
// clears both, so the records holding them compare deeply on the rest.
func sameInstant(a, b *time.Time) bool {
	same := a.Equal(*b)
	*a, *b = time.Time{}, time.Time{}
	return same
}
