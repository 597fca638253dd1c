package solid

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/store"
)

// podLogName is the per-pod operation log filename.
const podLogName = "oplog.wal"

// podSnapshotsKept bounds retained pod snapshot files.
const podSnapshotsKept = 3

// podOp is one mutation's effect: what commitLocked logs and applies,
// and what replay applies again — authorization already happened when
// the op was built — so a restored pod reproduces the exact resource
// bytes, ETags, ACL documents, ACL generation, and POST-minting sequence
// of the pod that wrote the log.
type podOp struct {
	Kind podOpKind
	// Path is the affected resource (or ACL target) path.
	Path string
	// ContentType/Data/Modified describe the stored resource of a put.
	ContentType string
	Data        []byte
	Modified    time.Time
	// ACL is the document an ACL op installs.
	ACL *ACL
	// PostSeq is the pod's POST-minting counter after the op, so replay
	// never re-mints a server-assigned child name.
	PostSeq uint64
}

// podSnapshot is a full pod dump bounding op replay.
type podSnapshot struct {
	Ops       uint64 // op count the snapshot covers
	PostSeq   uint64
	ACLGen    uint64
	Resources []*Resource
	ACLs      map[string]*ACL
}

// podStore is a pod's attached durability state. Its fields are guarded
// by the pod's write lock (every logged mutation holds p.mu).
//
// The op log is deliberately never compacted: snapshots bound how much
// of it recovery must APPLY, but the full history stays on disk so that
// a corrupt snapshot can always fall back to a complete replay —
// snapshots remain strictly an optimization. Compacting the covered
// prefix would trade that property for bounded storage; if a
// deployment ever needs it, the rotation must keep at least one
// verified snapshot per truncated prefix.
//
// Snapshots follow the chain's rule (store.SnapshotDue): tailBytes is the
// op-log payload appended since the last snapshot, snapBytes that
// snapshot's size, floor store.SnapshotFloor (tests lower it).
type podStore struct {
	wal       *store.WAL
	dir       string
	ops       uint64 // total ops in the log (replayed + appended)
	tailBytes int64
	snapBytes int64
	floor     int64
}

// OpenPod opens (or bootstraps) a durable pod rooted at dir: it loads
// the newest usable snapshot, replays the op-log tail past it
// (truncating any torn tail back to the last complete record), and
// attaches the log so subsequent mutations are durable. A pod restored
// this way serves byte-identical resources with identical ETags and the
// same ACL generation the original pod last reported. opts is the
// op log's fsync policy.
func OpenPod(owner WebID, baseURL, dir string, opts store.Options) (*Pod, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("solid: create pod dir: %w", err)
	}
	wal, records, err := store.OpenWAL(filepath.Join(dir, podLogName), opts)
	if err != nil {
		return nil, err
	}
	// A log written in an earlier record format opens with another tag.
	// Recovery would take its first record for damage and truncate the
	// whole log from it, so the log is refused as it is.
	if len(records) > 0 && (len(records[0].Payload) == 0 || records[0].Payload[0] != tagPodOp) {
		return nil, errors.Join(fmt.Errorf("solid: %s: first op-log record is not of this format; start from an empty directory", dir), wal.Close())
	}
	p := NewPod(owner, baseURL)
	// The pod is not yet published, so no other goroutine can race the
	// replay — but holding mu anyway costs nothing (one uncontended
	// acquisition per open) and keeps the lock discipline uniform for
	// every path that touches guarded fields.
	p.mu.Lock()
	defer p.mu.Unlock()

	// ps.ops counts the records actually in the log (snapshot base + the
	// replayed tail) — the op log is the source of truth, not the ACL
	// generation, even though the two agree on every successful path.
	// tailBytes starts at what this open replays, so a pod that keeps
	// restarting still reaches its next snapshot.
	ps := &podStore{wal: wal, dir: dir, floor: store.SnapshotFloor}
	if seq, payload, ok := store.LatestSnapshot(dir, uint64(len(records))); ok {
		if snap, err := decodePodSnapshot(payload); err == nil && snap.Ops == seq {
			for _, r := range snap.Resources {
				p.resources[r.Path] = r
			}
			for path, acl := range snap.ACLs {
				p.acls[path] = acl
			}
			p.postSeq = snap.PostSeq
			p.aclGen.Store(snap.ACLGen)
			ps.ops, ps.snapBytes = seq, int64(len(payload))
		}
		// An undecodable snapshot is skipped: the log tail below carries
		// every op, so full replay recovers the same content.
	}
	lastGoodEnd := int64(0)
	if ps.ops > 0 {
		lastGoodEnd = records[ps.ops-1].End
	}
	for _, rec := range records[ps.ops:] {
		op, err := decodePodOp(rec.Payload)
		if err != nil {
			// A record that passes the CRC but not the schema is damage
			// the frame cannot see; treat it as the torn tail.
			break
		}
		p.applyOpLocked(op)
		ps.ops++
		ps.tailBytes += int64(len(rec.Payload))
		lastGoodEnd = rec.End
	}
	if lastGoodEnd < wal.Size() {
		if err := wal.TruncateTo(lastGoodEnd); err != nil {
			return nil, errors.Join(err, wal.Close())
		}
	}
	p.persist = ps
	return p, nil
}

// commitLocked is the one way a pod changes. It logs op when the pod is
// durable, applies it with applyOpLocked — the function OpenPod replays
// the log through — and then snapshots if one is due. A log append that
// fails is returned with the pod untouched: a durable pod never
// acknowledges (or serves) a write its log does not hold. op.PostSeq is
// the counter a POST minted, or zero; the op is logged with the pod's
// counter after it. Callers hold p.mu for writing.
func (p *Pod) commitLocked(op podOp) error {
	op.PostSeq = max(op.PostSeq, p.postSeq)
	if ps := p.persist; ps != nil {
		buf := encodePodOp(&op)
		if err := ps.wal.Append(buf); err != nil {
			return fmt.Errorf("solid: persist pod op: %w", err)
		}
		ps.ops++
		ps.tailBytes += int64(len(buf))
	}
	p.applyOpLocked(op)
	p.maybeSnapshotLocked()
	return nil
}

// applyOpLocked applies one op to memory, checking and logging nothing
// (authorization happened before the op was built). Each op advances the
// ACL generation once, orphaning every cached decision. Callers hold
// p.mu for writing.
func (p *Pod) applyOpLocked(op podOp) {
	switch op.Kind {
	case podOpPut:
		p.resources[op.Path] = &Resource{
			Path:        op.Path,
			ContentType: op.ContentType,
			Data:        op.Data,
			Modified:    op.Modified,
			ETag:        ETagFor(op.Data),
		}
	case podOpDel:
		delete(p.resources, op.Path)
	case podOpACL:
		p.acls[op.Path] = op.ACL
	}
	p.postSeq = max(p.postSeq, op.PostSeq)
	p.aclGen.Add(1)
}

// maybeSnapshotLocked snapshots when the op-log tail has outgrown the
// last snapshot. commitLocked calls it after applying the op, so the
// snapshot includes the op it is stamped with. A failed snapshot never
// fails the (already journaled and applied) mutation: recovery just
// replays a longer tail.
func (p *Pod) maybeSnapshotLocked() {
	ps := p.persist
	if ps == nil || !store.SnapshotDue(ps.tailBytes, ps.snapBytes, ps.floor) {
		return
	}
	ps.tailBytes = 0 // also on failure: the retry comes a tail later, not on every op
	if err := p.writeSnapshotLocked(); err != nil {
		log.Printf("solid: pod snapshot at op %d skipped: %v", p.persist.ops, err)
	}
}

// writeSnapshotLocked dumps the pod under its current op count. Callers
// hold p.mu for writing.
func (p *Pod) writeSnapshotLocked() error {
	// Encoded before p.mu is released, so the dump shares the pod's
	// resources and ACLs instead of copying them.
	snap := podSnapshot{
		Ops:       p.persist.ops,
		PostSeq:   p.postSeq,
		ACLGen:    p.aclGen.Load(),
		Resources: make([]*Resource, 0, len(p.resources)),
		ACLs:      p.acls,
	}
	for _, r := range p.resources {
		snap.Resources = append(snap.Resources, r)
	}
	buf := encodePodSnapshot(&snap)
	if err := store.WriteSnapshot(p.persist.dir, snap.Ops, buf); err != nil {
		return fmt.Errorf("solid: write pod snapshot: %w", err)
	}
	p.persist.snapBytes = int64(len(buf))
	if _, err := store.PruneSnapshots(p.persist.dir, podSnapshotsKept); err != nil {
		return fmt.Errorf("solid: prune pod snapshots: %w", err)
	}
	return nil
}

// CloseStore flushes and closes the pod's durable store (no-op for
// in-memory pods).
func (p *Pod) CloseStore() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.persist == nil {
		return nil
	}
	return p.persist.wal.Close()
}
