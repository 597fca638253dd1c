package solid

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/store"
)

// Binary codec for the pod durability records (op log entries and pod
// snapshots), built on the store package's primitives: varint lengths
// and raw resource bytes (the JSON era base64-inflated every resource
// body by 4/3). ACL documents are small structured values with no bulk
// payload, so they are embedded as length-prefixed JSON blobs — the
// hot bytes (resource data) stay raw. It is the only record format: a
// payload that opens with any other byte than these tags fails decoding.
const (
	// tagPodOp opens a pod op-log record.
	tagPodOp byte = 0x11
	// tagPodSnapshot opens a pod snapshot payload.
	tagPodSnapshot byte = 0x12
)

// podOp.Kind values and their wire encoding.
const (
	podOpPut = "put"
	podOpDel = "del"
	podOpACL = "acl"
)

func podOpKindByte(kind string) (byte, error) {
	switch kind {
	case podOpPut:
		return 1, nil
	case podOpDel:
		return 2, nil
	case podOpACL:
		return 3, nil
	}
	return 0, fmt.Errorf("solid: unknown pod op kind %q", kind)
}

func podOpKindString(b byte) (string, error) {
	switch b {
	case 1:
		return podOpPut, nil
	case 2:
		return podOpDel, nil
	case 3:
		return podOpACL, nil
	}
	return "", fmt.Errorf("solid: unknown pod op kind byte 0x%02x", b)
}

// encodePodOp encodes one logged mutation effect.
func encodePodOp(op *podOp) ([]byte, error) {
	kind, err := podOpKindByte(op.Kind)
	if err != nil {
		return nil, err
	}
	dst := make([]byte, 0, 64+len(op.Path)+len(op.ContentType)+len(op.Data))
	dst = append(dst, tagPodOp, kind)
	dst = store.AppendString(dst, op.Path)
	dst = store.AppendString(dst, op.ContentType)
	dst = store.AppendBytes(dst, op.Data)
	dst, err = store.AppendTime(dst, op.Modified)
	if err != nil {
		return nil, err
	}
	dst = store.AppendUvarint(dst, op.PostSeq)
	return appendACLBlob(dst, op.ACL)
}

// decodePodOp decodes an op-log payload.
func decodePodOp(payload []byte) (podOp, error) {
	var op podOp
	if len(payload) < 2 || payload[0] != tagPodOp {
		return op, fmt.Errorf("solid: not a pod op record")
	}
	kind, err := podOpKindString(payload[1])
	if err != nil {
		return op, err
	}
	op.Kind = kind
	d := store.NewDec(payload[2:])
	op.Path = d.String()
	op.ContentType = d.String()
	op.Data = d.Bytes()
	op.Modified = d.Time()
	op.PostSeq = d.Uvarint()
	op.ACL, err = decodeACLBlob(d)
	if err != nil {
		return op, err
	}
	if err := d.Finish(); err != nil {
		return op, err
	}
	return op, nil
}

// encodePodSnapshot encodes a full pod dump deterministically
// (resources and ACLs sorted by path).
func encodePodSnapshot(snap *podSnapshot) ([]byte, error) {
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
	var err error
	for _, r := range resources {
		dst = store.AppendString(dst, r.Path)
		dst = store.AppendString(dst, r.ContentType)
		dst = store.AppendBytes(dst, r.Data)
		if dst, err = store.AppendTime(dst, r.Modified); err != nil {
			return nil, err
		}
	}

	paths := make([]string, 0, len(snap.ACLs))
	for path := range snap.ACLs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	dst = store.AppendUvarint(dst, uint64(len(paths)))
	for _, path := range paths {
		dst = store.AppendString(dst, path)
		if dst, err = appendACLBlob(dst, snap.ACLs[path]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// decodePodSnapshot decodes a snapshot payload. Resource ETags are not
// stored: they are recomputed from the data bytes, exactly as the pod
// does on every write.
func decodePodSnapshot(payload []byte) (*podSnapshot, error) {
	if len(payload) == 0 || payload[0] != tagPodSnapshot {
		return nil, fmt.Errorf("solid: not a pod snapshot payload")
	}
	d := store.NewDec(payload[1:])
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
			Modified:    d.Time(),
		}
		if d.Err() != nil {
			break
		}
		// encodePodSnapshot writes resources in strictly increasing path
		// order: another order would encode back to other bytes, and a
		// repeated path would restore whichever copy came last.
		if n := len(snap.Resources); n > 0 && r.Path <= snap.Resources[n-1].Path {
			return nil, fmt.Errorf("%w: resource %q out of path order", store.ErrCodec, r.Path)
		}
		r.ETag = ETagFor(r.Data)
		snap.Resources = append(snap.Resources, r)
	}
	aclCount := d.Count("ACLs", uint64(len(payload)))
	snap.ACLs = make(map[string]*ACL, min(aclCount, store.DecodeCapHint))
	for range aclCount {
		path := d.String()
		acl, err := decodeACLBlob(d)
		if err != nil {
			return nil, err
		}
		if d.Err() != nil {
			break
		}
		snap.ACLs[path] = acl
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return snap, nil
}

// appendACLBlob embeds an ACL document as a length-prefixed JSON blob
// (empty blob = no ACL).
func appendACLBlob(dst []byte, acl *ACL) ([]byte, error) {
	if acl == nil {
		return store.AppendBytes(dst, nil), nil
	}
	blob, err := json.Marshal(acl)
	if err != nil {
		return nil, fmt.Errorf("solid: encode ACL: %w", err)
	}
	return store.AppendBytes(dst, blob), nil
}

// decodeACLBlob reads an ACL embedded by appendACLBlob.
func decodeACLBlob(d *store.Dec) (*ACL, error) {
	blob := d.Bytes()
	if len(blob) == 0 {
		return nil, nil
	}
	acl := &ACL{}
	if err := json.Unmarshal(blob, acl); err != nil {
		return nil, fmt.Errorf("solid: decode ACL: %w", err)
	}
	return acl, nil
}
