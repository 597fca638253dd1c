package solid

import (
	"fmt"
	"sort"

	"repro/internal/store"
)

// Binary codec for the pod durability records (op log entries and pod
// snapshots), built on the store package's primitives: varint lengths,
// raw resource bytes, UTC timestamps (store.AppendUTC), and ACL documents
// written field by field. It is the only record format, and each record
// has one encoding: a payload that decodes encodes back to the same
// bytes, and a payload that opens with any other byte than these tags
// fails decoding.
const (
	// tagPodOp opens a pod op-log record. It is not 0x11, the tag of an
	// earlier format (zoned times, JSON ACLs), so that OpenPod can tell
	// such a log apart and refuse it.
	tagPodOp byte = 0x13
	// tagPodSnapshot opens a pod snapshot payload (not the earlier 0x12).
	tagPodSnapshot byte = 0x14
)

// podOpKind is a pod op's kind, as its record spells it.
type podOpKind byte

const (
	// podOpPut stores a resource (create/replace, covering Append's net
	// effect too).
	podOpPut podOpKind = 1
	// podOpDel deletes a resource.
	podOpDel podOpKind = 2
	// podOpACL installs an ACL document.
	podOpACL podOpKind = 3
)

// encodePodOp encodes one logged mutation effect. A kind writes only the
// fields it uses.
func encodePodOp(op *podOp) []byte {
	dst := make([]byte, 0, 64+len(op.Path)+len(op.ContentType)+len(op.Data))
	dst = append(dst, tagPodOp, byte(op.Kind))
	dst = store.AppendString(dst, op.Path)
	switch op.Kind {
	case podOpPut:
		dst = store.AppendString(dst, op.ContentType)
		dst = store.AppendBytes(dst, op.Data)
		dst = store.AppendUTC(dst, op.Modified)
	case podOpACL:
		dst = appendACL(dst, op.ACL)
	}
	return store.AppendUvarint(dst, op.PostSeq)
}

// decodePodOp decodes an op-log payload.
func decodePodOp(payload []byte) (podOp, error) {
	d := store.NewDec(payload)
	d.Tag(tagPodOp)
	op := podOp{Kind: podOpKind(d.Byte()), Path: d.String()}
	switch op.Kind {
	case podOpPut:
		op.ContentType = d.String()
		op.Data = d.Bytes()
		op.Modified = d.UTC()
	case podOpDel:
	case podOpACL:
		op.ACL = decodeACL(d)
	default:
		if d.Err() == nil {
			return op, fmt.Errorf("%w: unknown pod op kind %d", store.ErrCodec, op.Kind)
		}
	}
	op.PostSeq = d.Uvarint()
	return op, d.Finish()
}

// encodePodSnapshot encodes a full pod dump deterministically
// (resources and ACLs sorted by path).
func encodePodSnapshot(snap *podSnapshot) []byte {
	size := 64
	for _, r := range snap.Resources {
		size += 64 + len(r.Path) + len(r.ContentType) + len(r.Data)
	}
	dst := make([]byte, 0, size)
	dst = append(dst, tagPodSnapshot)
	dst = store.AppendUvarint(dst, snap.Ops)
	dst = store.AppendUvarint(dst, snap.PostSeq)
	dst = store.AppendUvarint(dst, snap.ACLGen)

	resources := append([]*Resource(nil), snap.Resources...)
	sort.Slice(resources, func(i, j int) bool { return resources[i].Path < resources[j].Path })
	dst = store.AppendUvarint(dst, uint64(len(resources)))
	for _, r := range resources {
		dst = store.AppendString(dst, r.Path)
		dst = store.AppendString(dst, r.ContentType)
		dst = store.AppendBytes(dst, r.Data)
		dst = store.AppendUTC(dst, r.Modified)
	}

	paths := make([]string, 0, len(snap.ACLs))
	for path := range snap.ACLs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	dst = store.AppendUvarint(dst, uint64(len(paths)))
	for _, path := range paths {
		dst = store.AppendString(dst, path)
		dst = appendACL(dst, snap.ACLs[path])
	}
	return dst
}

// decodePodSnapshot decodes a snapshot payload. Resource ETags are not
// stored: they are recomputed from the data bytes, exactly as the pod
// does on every write.
func decodePodSnapshot(payload []byte) (*podSnapshot, error) {
	d := store.NewDec(payload)
	d.Tag(tagPodSnapshot)
	snap := &podSnapshot{
		Ops:     d.Uvarint(),
		PostSeq: d.Uvarint(),
		ACLGen:  d.Uvarint(),
	}
	resCount := d.Count("resources", uint64(len(payload)))
	for range resCount {
		r := &Resource{
			Path:        d.String(),
			ContentType: d.String(),
			Data:        d.Bytes(),
			Modified:    d.UTC(),
		}
		if d.Err() != nil {
			break
		}
		// encodePodSnapshot writes resources and ACLs in strictly
		// increasing path order: another order would encode back to other
		// bytes, and a repeated path would restore whichever copy came last.
		if n := len(snap.Resources); n > 0 && r.Path <= snap.Resources[n-1].Path {
			return nil, fmt.Errorf("%w: resource %q out of path order", store.ErrCodec, r.Path)
		}
		r.ETag = ETagFor(r.Data)
		snap.Resources = append(snap.Resources, r)
	}
	aclCount := d.Count("ACLs", uint64(len(payload)))
	snap.ACLs = make(map[string]*ACL, min(aclCount, store.DecodeCapHint))
	prev := ""
	for i := range aclCount {
		path, acl := d.String(), decodeACL(d)
		if d.Err() != nil {
			break
		}
		if i > 0 && path <= prev {
			return nil, fmt.Errorf("%w: ACL %q out of path order", store.ErrCodec, path)
		}
		prev = path
		snap.ACLs[path] = acl
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return snap, nil
}

// appendACL appends an ACL document: its authorization count, then each
// authorization's fields in declaration order.
func appendACL(dst []byte, acl *ACL) []byte {
	dst = store.AppendUvarint(dst, uint64(len(acl.Authorizations)))
	for _, a := range acl.Authorizations {
		dst = store.AppendString(dst, a.ID)
		dst = store.AppendStrings(dst, a.Agents)
		dst = store.AppendBool(dst, a.Public)
		dst = store.AppendString(dst, a.AccessTo)
		dst = store.AppendBool(dst, a.Default)
		dst = store.AppendStrings(dst, a.Modes)
	}
	return dst
}

// decodeACL reads an ACL written by appendACL.
func decodeACL(d *store.Dec) *ACL {
	acl := &ACL{}
	n := d.Count("authorizations", uint64(d.Remaining()))
	for range n {
		acl.Authorizations = append(acl.Authorizations, Authorization{
			ID:       d.String(),
			Agents:   store.Strings[WebID](d, "agents"),
			Public:   d.Bool(),
			AccessTo: d.String(),
			Default:  d.Bool(),
			Modes:    store.Strings[AccessMode](d, "modes"),
		})
		if d.Err() != nil {
			break
		}
	}
	return acl
}
