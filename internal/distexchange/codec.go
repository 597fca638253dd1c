package distexchange

import (
	"encoding/binary"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/policy"
	"repro/internal/store"
)

// The record codec: the one encoding of every DE App record, described in
// the package comment ("Record format"). What the contract stores under a
// key is what it answers queries with; the Decode functions read those
// bytes off-chain.
const (
	// tagPod opens a PodRecord.
	tagPod byte = 0x21
	// tagResource opens a ResourceRecord.
	tagResource byte = 0x22
	// tagDevice opens a DeviceRecord.
	tagDevice byte = 0x23
	// tagGrant opens a Grant.
	tagGrant byte = 0x24
	// tagRound opens a MonitoringRound.
	tagRound byte = 0x25
	// 0x26 opened a round-progress record, which the ledger no longer
	// keeps; it stays unassigned.
	// tagEvidence opens an EvidenceRecord.
	tagEvidence byte = 0x27
	// tagViolation opens a Violation.
	tagViolation byte = 0x28
	// tagEvidenceOutcomes opens what submitEvidence returns.
	tagEvidenceOutcomes byte = 0x29
)

// grow returns dst with room for n more bytes, in one allocation when it
// has none. slices.Grow's append of a fresh slice allocates twice when the
// race detector keeps the compiler from fusing the two.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]byte, 0, len(dst)+n), dst...)
}

// fixedSize bounds from above what a record's fixed-width and integer
// fields add to its strings: the tag, four timestamps, two addresses and a
// handful of integers and booleans.
const fixedSize = 160

func appendOptPolicy(dst []byte, p *policy.Policy) []byte {
	if p == nil {
		return store.AppendBool(dst, false)
	}
	return policy.AppendRecord(store.AppendBool(dst, true), p)
}

func decodeOptPolicy(d *store.Dec) *policy.Policy {
	if !d.Bool() {
		return nil
	}
	p := new(policy.Policy)
	policy.DecodeRecord(d, p)
	return p
}

func optPolicySize(p *policy.Policy) int {
	if p == nil {
		return 0
	}
	return policy.RecordSize(p)
}

func appendAddresses(dst []byte, as []cryptoutil.Address) []byte {
	dst = store.AppendUvarint(dst, uint64(len(as)))
	for i := range as {
		dst = append(dst, as[i][:]...)
	}
	return dst
}

func decodeAddresses(d *store.Dec, what string) []cryptoutil.Address {
	n := d.Count(what, uint64(d.Remaining()/cryptoutil.AddressLen))
	if n == 0 {
		return nil
	}
	out := make([]cryptoutil.Address, 0, min(n, store.DecodeCapHint))
	for range n {
		var a cryptoutil.Address
		d.Raw(a[:])
		out = append(out, a)
	}
	return out
}

func appendPodRecord(dst []byte, r *PodRecord) []byte {
	dst = grow(dst, fixedSize+len(r.OwnerWebID)+len(r.Location)+optPolicySize(r.DefaultPolicy))
	dst = append(dst, tagPod)
	dst = store.AppendString(dst, r.OwnerWebID)
	dst = store.AppendString(dst, r.Location)
	dst = append(dst, r.Owner[:]...)
	dst = store.AppendUTC(dst, r.RegisteredAt)
	return appendOptPolicy(dst, r.DefaultPolicy)
}

func decodePodRecord(d *store.Dec, r *PodRecord) {
	d.Tag(tagPod)
	r.OwnerWebID = d.String()
	r.Location = d.String()
	d.Raw(r.Owner[:])
	r.RegisteredAt = d.UTC()
	r.DefaultPolicy = decodeOptPolicy(d)
}

// appendResourceRecord ends the record with its policy, so PolicyUpdated
// carries a tail of the stored bytes (spliceResourcePolicy).
func appendResourceRecord(dst []byte, r *ResourceRecord) []byte {
	dst = grow(dst, fixedSize+len(r.ResourceIRI)+len(r.PodWebID)+len(r.Location)+len(r.Description)+optPolicySize(r.Policy))
	dst = append(dst, tagResource)
	dst = store.AppendBool(dst, r.Withdrawn)
	dst = store.AppendString(dst, r.ResourceIRI)
	dst = store.AppendString(dst, r.PodWebID)
	dst = store.AppendString(dst, r.Location)
	dst = store.AppendString(dst, r.Description)
	dst = append(dst, r.Owner[:]...)
	dst = store.AppendUTC(dst, r.RegisteredAt)
	return appendOptPolicy(dst, r.Policy)
}

func decodeResourceRecord(d *store.Dec, r *ResourceRecord) {
	d.Tag(tagResource)
	r.Withdrawn = d.Bool()
	r.ResourceIRI = d.String()
	r.PodWebID = d.String()
	r.Location = d.String()
	r.Description = d.String()
	d.Raw(r.Owner[:])
	r.RegisteredAt = d.UTC()
	r.Policy = decodeOptPolicy(d)
}

// decodeResourceWithdrawn reads the Withdrawn flag — the byte behind the
// tag — off a stored ResourceRecord, so the market listing can leave out
// withdrawn resources without decoding any. ok is false when raw does not
// open like a ResourceRecord.
func decodeResourceWithdrawn(raw []byte) (withdrawn, ok bool) {
	if len(raw) < 2 || raw[0] != tagResource || raw[1] > 1 {
		return false, false
	}
	return raw[1] == 1, true
}

// resourceHead is what a ResourceRecord's owner checks and rewrites read of
// it (decodeResourceHead).
type resourceHead struct {
	withdrawn bool
	owner     cryptoutil.Address
	// version is the policy's Version, 0 when the record has no policy.
	version uint64
	// flagAt is the offset of the optional-policy flag: the record's bytes
	// before it are the same whatever its policy.
	flagAt int
}

// policyTag opens a policy's record encoding; it is read off
// policy.AppendRecord, which owns it.
var policyTag = policy.AppendRecord(nil, new(policy.Policy))[0]

// decodeResourceHead reads a stored ResourceRecord in place: it walks the
// whole record and refuses exactly what decodeResourceRecord refuses, with
// the same error, but copies nothing: reading a record it accepts
// allocates nothing.
func decodeResourceHead(raw []byte) (h resourceHead, err error) {
	d := store.NewDec(raw)
	d.Tag(tagResource)
	h.withdrawn = d.Bool()
	d.View() // ResourceIRI
	d.View() // PodWebID
	d.View() // Location
	d.View() // Description
	d.Raw(h.owner[:])
	d.UTC() // RegisteredAt
	h.flagAt = len(raw) - d.Remaining()
	if d.Bool() {
		h.version = decodePolicyVersion(d)
	}
	return h, d.Finish()
}

// decodePolicyVersion walks a policy's record encoding as policy.DecodeRecord
// reads it, refusing what that refuses, and returns only its Version.
func decodePolicyVersion(d *store.Dec) uint64 {
	d.Tag(policyTag)
	d.View() // ID
	d.View() // ResourceIRI
	d.View() // OwnerWebID
	version := d.Uvarint()
	d.UTC() // IssuedAt
	decodeStringsInPlace(d, "purposes")
	decodeStringsInPlace(d, "actions")
	d.Uvarint() // MaxRetention
	d.UTC()     // ExpiresAt
	d.Uvarint() // MaxUses
	d.Bool()    // ProhibitSharing
	d.Bool()    // NotifyOnUse
	return version
}

// decodeStringsInPlace walks a list store.Strings would read, as it reads it.
func decodeStringsInPlace(d *store.Dec, what string) {
	for range d.Count(what, uint64(d.Remaining())) {
		if d.View(); d.Err() != nil {
			return
		}
	}
}

// spliceResourcePolicy returns the stored ResourceRecord raw, whose policy
// flag sits at flagAt, with p as its policy, and where p's encoding starts.
// The bytes before the flag are what appendResourceRecord writes for them —
// the encoding is canonical — so the result is appendResourceRecord's for
// the record with p, in one buffer sized for both parts.
func spliceResourcePolicy(raw []byte, flagAt int, p *policy.Policy) (record []byte, policyAt int) {
	record = append(grow(nil, flagAt+1+optPolicySize(p)), raw[:flagAt]...)
	return appendOptPolicy(record, p), flagAt + 1
}

// withdrawnResource returns a copy of the stored ResourceRecord raw with its
// Withdrawn flag — the byte behind the tag, where decodeResourceWithdrawn
// reads it — set: appendResourceRecord's bytes for the withdrawn record. A
// stored value is never written in place, hence the copy.
func withdrawnResource(raw []byte) []byte {
	record := append(grow(nil, len(raw)), raw...)
	record[1] = 1
	return record
}

func appendDeviceRecord(dst []byte, r *DeviceRecord) []byte {
	dst = grow(dst, fixedSize+len(r.DeviceKey))
	dst = append(dst, tagDevice)
	dst = append(dst, r.Device[:]...)
	dst = store.AppendBytes(dst, r.DeviceKey)
	dst = append(dst, r.Measurement[:]...)
	return store.AppendUTC(dst, r.RegisteredAt)
}

func decodeDeviceRecord(d *store.Dec, r *DeviceRecord) {
	d.Tag(tagDevice)
	d.Raw(r.Device[:])
	r.DeviceKey = d.Bytes()
	d.Raw(r.Measurement[:])
	r.RegisteredAt = d.UTC()
}

// decodeDeviceKey reads the DeviceKey of a stored DeviceRecord in place: it
// walks the whole record and refuses exactly what decodeDeviceRecord
// refuses, with the same error, and returns a view of raw, never to be
// written through or kept (cryptoutil.ParsePublicKey copies what it keeps).
func decodeDeviceKey(raw []byte) ([]byte, error) {
	d := store.NewDec(raw)
	d.Tag(tagDevice)
	var device cryptoutil.Address
	d.Raw(device[:])
	key := d.View()
	var measurement cryptoutil.Hash
	d.Raw(measurement[:])
	d.UTC() // RegisteredAt
	return key, d.Finish()
}

func appendGrant(dst []byte, g *Grant) []byte {
	dst = grow(dst, fixedSize+len(g.ResourceIRI)+len(g.Purpose))
	dst = append(dst, tagGrant)
	dst = store.AppendString(dst, g.ResourceIRI)
	dst = append(dst, g.Consumer[:]...)
	dst = append(dst, g.Device[:]...)
	dst = store.AppendString(dst, string(g.Purpose))
	dst = store.AppendUTC(dst, g.GrantedAt)
	dst = store.AppendUTC(dst, g.RetrievedAt)
	return store.AppendBool(dst, g.Revoked)
}

func decodeGrant(d *store.Dec, g *Grant) {
	d.Tag(tagGrant)
	g.ResourceIRI = d.String()
	d.Raw(g.Consumer[:])
	d.Raw(g.Device[:])
	g.Purpose = policy.PurposeOf(d.View())
	g.GrantedAt = d.UTC()
	g.RetrievedAt = d.UTC()
	g.Revoked = d.Bool()
}

// grantHead is what monitoring reads of a Grant (decodeGrantHead).
type grantHead struct {
	device      cryptoutil.Address
	retrievedAt time.Time
	revoked     bool
}

// decodeGrantHead reads a stored Grant in place, as decodeResourceHead
// reads a resource: it walks the whole record and refuses exactly what
// decodeGrant refuses, with the same error, but copies none of its
// strings, so reading a grant it accepts allocates nothing.
func decodeGrantHead(raw []byte) (h grantHead, err error) {
	d := store.NewDec(raw)
	d.Tag(tagGrant)
	d.View() // ResourceIRI
	var consumer cryptoutil.Address
	d.Raw(consumer[:])
	d.Raw(h.device[:])
	d.View() // Purpose
	d.UTC()  // GrantedAt
	h.retrievedAt = d.UTC()
	h.revoked = d.Bool()
	return h, d.Finish()
}

func appendMonitoringRound(dst []byte, r *MonitoringRound) []byte {
	dst = grow(dst, fixedSize+len(r.ResourceIRI)+cryptoutil.AddressLen*(len(r.Targets)+len(r.Responded)))
	dst = append(dst, tagRound)
	dst = store.AppendUvarint(dst, r.Round)
	dst = store.AppendString(dst, r.ResourceIRI)
	dst = store.AppendUTC(dst, r.RequestedAt)
	dst = store.AppendBool(dst, r.Closed)
	dst = appendAddresses(dst, r.Targets)
	return appendAddresses(dst, r.Responded)
}

func decodeMonitoringRound(d *store.Dec, r *MonitoringRound) {
	d.Tag(tagRound)
	r.Round = d.Uvarint()
	r.ResourceIRI = d.String()
	r.RequestedAt = d.UTC()
	r.Closed = d.Bool()
	r.Targets = decodeAddresses(d, "targets")
	r.Responded = decodeAddresses(d, "responded")
}

// appendEvidence and decodeEvidence are the Evidence inside an
// EvidenceRecord and a submitEvidence item. Evidence is not stored on its
// own, so it has no tag; behind tagEvidence it is what a device signs
// (Evidence.SigningBytes).
func appendEvidence(dst []byte, e *Evidence) []byte {
	dst = store.AppendString(dst, e.ResourceIRI)
	dst = append(dst, e.Device[:]...)
	dst = store.AppendUvarint(dst, e.Round)
	dst = store.AppendUvarint(dst, e.PolicyVersion)
	dst = store.AppendBool(dst, e.StillStored)
	dst = store.AppendUTC(dst, e.DeletedAt)
	dst = store.AppendUTC(dst, e.RetrievedAt)
	dst = store.AppendUvarint(dst, e.UseCount)
	dst = store.AppendUvarint(dst, uint64(len(e.Entries)))
	for i := range e.Entries {
		u := &e.Entries[i]
		dst = store.AppendUTC(dst, u.At)
		dst = store.AppendString(dst, string(u.Action))
		dst = store.AppendString(dst, string(u.Purpose))
		dst = store.AppendBool(dst, u.Allowed)
	}
	return store.AppendUTC(dst, e.GeneratedAt)
}

// decodeEvidence keeps the IRI e holds when the encoded one spells it, so
// a list's items on one resource share one string.
func decodeEvidence(d *store.Dec, e *Evidence) {
	if iri := d.View(); string(iri) != e.ResourceIRI {
		e.ResourceIRI = string(iri)
	}
	d.Raw(e.Device[:])
	e.Round = d.Uvarint()
	e.PolicyVersion = d.Uvarint()
	e.StillStored = d.Bool()
	e.DeletedAt = d.UTC()
	e.RetrievedAt = d.UTC()
	e.UseCount = d.Uvarint()
	e.Entries = decodeUsageEntries(d)
	e.GeneratedAt = d.UTC()
}

func decodeUsageEntries(d *store.Dec) []UsageEntry {
	n := d.Count("usage entries", uint64(d.Remaining()))
	if n == 0 {
		return nil
	}
	out := make([]UsageEntry, 0, min(n, store.DecodeCapHint))
	for range n {
		out = append(out, UsageEntry{
			At: d.UTC(), Action: policy.ActionOf(d.View()), Purpose: policy.PurposeOf(d.View()), Allowed: d.Bool(),
		})
		if d.Err() != nil {
			return nil
		}
	}
	return out
}

// evidenceRecordSize bounds from above the encoding of an EvidenceRecord
// that holds e and the given number of findings.
func evidenceRecordSize(e *Evidence, findings int) int {
	// A finding is a short string; a usage entry a timestamp, a boolean and
	// two strings behind their lengths.
	size := fixedSize + len(e.ResourceIRI) + 16*findings
	for i := range e.Entries {
		size += 24 + len(e.Entries[i].Action) + len(e.Entries[i].Purpose)
	}
	return size
}

func appendEvidenceRecord(dst []byte, r *EvidenceRecord) []byte {
	e := &r.Evidence
	dst = grow(dst, evidenceRecordSize(e, len(r.Findings)))
	dst = append(dst, tagEvidence)
	dst = store.AppendUvarint(dst, r.Seq)
	dst = appendEvidence(dst, e)
	dst = store.AppendBool(dst, r.Verified)
	dst = store.AppendUTC(dst, r.Stored)
	dst = store.AppendUvarint(dst, r.Round)
	return store.AppendStrings(dst, r.Findings)
}

func decodeEvidenceRecord(d *store.Dec, r *EvidenceRecord) {
	d.Tag(tagEvidence)
	r.Seq = d.Uvarint()
	decodeEvidence(d, &r.Evidence)
	r.Verified = d.Bool()
	r.Stored = d.UTC()
	r.Round = d.Uvarint()
	r.Findings = store.Strings[ViolationKind](d, "findings")
}

func appendViolation(dst []byte, v *Violation) []byte {
	dst = grow(dst, fixedSize+len(v.ResourceIRI)+len(v.Kind)+len(v.Detail))
	dst = append(dst, tagViolation)
	dst = store.AppendUvarint(dst, v.Seq)
	dst = store.AppendString(dst, v.ResourceIRI)
	dst = append(dst, v.Device[:]...)
	dst = store.AppendString(dst, string(v.Kind))
	dst = store.AppendString(dst, v.Detail)
	dst = store.AppendUTC(dst, v.DetectedAt)
	return store.AppendUvarint(dst, v.Round)
}

func decodeViolation(d *store.Dec, v *Violation) {
	d.Tag(tagViolation)
	v.Seq = d.Uvarint()
	v.ResourceIRI = d.String()
	d.Raw(v.Device[:])
	v.Kind = ViolationKind(d.String())
	v.Detail = d.String()
	v.DetectedAt = d.UTC()
	v.Round = d.Uvarint()
}

// appendEvidenceOutcomes opens what submitEvidence returns for a list of n
// evidence: the tag and n, followed — in list order, one per item — by
// appendAcceptedEvidence or appendRefusedEvidence. It makes room for n
// accepted items.
func appendEvidenceOutcomes(dst []byte, n int) []byte {
	dst = grow(dst, (1+n)*(1+binary.MaxVarintLen64))
	return store.AppendUvarint(append(dst, tagEvidenceOutcomes), uint64(n))
}

// appendAcceptedEvidence appends the outcome of an accepted evidence: the
// seq its record is stored under.
func appendAcceptedEvidence(dst []byte, seq uint64) []byte {
	return store.AppendUvarint(store.AppendBool(dst, true), seq)
}

// appendRefusedEvidence appends the outcome of a refused evidence: the
// revert text a transaction carrying it alone would have had.
func appendRefusedEvidence(dst []byte, reason string) []byte {
	return store.AppendString(store.AppendBool(dst, false), reason)
}

func decodeEvidenceOutcomes(d *store.Dec, out *[]EvidenceOutcome) {
	d.Tag(tagEvidenceOutcomes)
	n := d.Count("outcomes", uint64(d.Remaining()))
	if n == 0 {
		return
	}
	*out = make([]EvidenceOutcome, 0, min(n, store.DecodeCapHint))
	for range n {
		var o EvidenceOutcome
		if d.Bool() {
			o.Seq = d.Uvarint()
		} else {
			o.Err = &RevertError{Method: methodSubmitEvidence, Reason: d.String()}
		}
		if d.Err() != nil {
			return
		}
		*out = append(*out, o)
	}
}

// ledgerRefSize bounds the data of an EvidenceRecorded or ViolationDetected
// event.
const ledgerRefSize = 2 * binary.MaxVarintLen64

// withLedgerRef returns the record an append… function just built and the
// data of the event that names it: the record's round and seq, two
// uvarints, which with the event's key, the resource IRI, name its ledger
// key (evKey, violKey). The reference goes behind the record, in the room
// the append's size bound leaves there, so the two share one allocation
// unless that room is short; the record comes back capped at its length,
// so nothing appended to it reaches the reference.
func withLedgerRef(record []byte, round, seq uint64) (stored, ref []byte) {
	n := len(record)
	return record[:n:n], store.AppendUvarint(store.AppendUvarint(record[n:], round), seq)
}

// appendListing appends a query's listing reply: a count, then the stored
// encodings as they are. Records delimit themselves, so nothing separates
// them and a listing costs its own records and nothing else.
func appendListing(dst []byte, records [][]byte) []byte {
	size := 10
	for _, raw := range records {
		size += len(raw)
	}
	dst = grow(dst, size)
	dst = store.AppendUvarint(dst, uint64(len(records)))
	for _, raw := range records {
		dst = append(dst, raw...)
	}
	return dst
}

// decodeRecord decodes b as exactly one record of decode's type.
func decodeRecord[T any](b []byte, decode func(*store.Dec, *T)) (T, error) {
	var v T
	d := store.NewDec(b)
	decode(d, &v)
	return v, d.Finish()
}

// decodeListing decodes a reply built by appendListing.
func decodeListing[T any](b []byte, decode func(*store.Dec, *T)) ([]T, error) {
	d := store.NewDec(b)
	n := d.Count("records", uint64(len(b)))
	var out []T
	if n > 0 {
		out = make([]T, 0, min(n, store.DecodeCapHint))
	}
	for range n {
		// Decoded in place: a value handed to decode by address would be
		// allocated once per record.
		var zero T
		out = append(out, zero)
		if decode(d, &out[len(out)-1]); d.Err() != nil {
			break
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// The Decode functions read what the DE App answers queries with, returns
// and puts in the two events that carry a payload. Each takes exactly one
// record (or one listing) and reports anything else as store.ErrCodec.

// DecodePodRecord decodes a getPod reply.
func DecodePodRecord(b []byte) (PodRecord, error) { return decodeRecord(b, decodePodRecord) }

// DecodeResourceRecord decodes a getResource reply.
func DecodeResourceRecord(b []byte) (ResourceRecord, error) {
	return decodeRecord(b, decodeResourceRecord)
}

// DecodeResourceRecords decodes a listResources reply.
func DecodeResourceRecords(b []byte) ([]ResourceRecord, error) {
	return decodeListing(b, decodeResourceRecord)
}

// DecodePolicy decodes a PolicyUpdated payload.
func DecodePolicy(b []byte) (policy.Policy, error) { return decodeRecord(b, policy.DecodeRecord) }

// DecodeDeviceRecord decodes a getDevice reply.
func DecodeDeviceRecord(b []byte) (DeviceRecord, error) { return decodeRecord(b, decodeDeviceRecord) }

// DecodeGrants decodes a getGrants reply.
func DecodeGrants(b []byte) ([]Grant, error) { return decodeListing(b, decodeGrant) }

// DecodeMonitoringRound decodes a getMonitoringRound reply, what
// requestMonitoring and reportUnresponsive return, or a MonitoringRequested
// payload.
func DecodeMonitoringRound(b []byte) (MonitoringRound, error) {
	return decodeRecord(b, decodeMonitoringRound)
}

// DecodeEvidenceOutcomes decodes what submitEvidence returns: one outcome
// per evidence of the list, in its order.
func DecodeEvidenceOutcomes(b []byte) ([]EvidenceOutcome, error) {
	return decodeRecord(b, decodeEvidenceOutcomes)
}

// DecodeEvidenceRecords decodes a getEvidence reply.
func DecodeEvidenceRecords(b []byte) ([]EvidenceRecord, error) {
	return decodeListing(b, decodeEvidenceRecord)
}

// DecodeViolations decodes a getViolations reply.
func DecodeViolations(b []byte) ([]Violation, error) { return decodeListing(b, decodeViolation) }
