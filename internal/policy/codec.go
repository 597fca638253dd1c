package policy

import (
	"time"

	"repro/internal/rdf"
	"repro/internal/store"
)

// tagPolicy opens a policy's record encoding.
const tagPolicy byte = 0x20

// AppendRecord appends p's record encoding: the form in which the DE App
// holds a policy inside its pod and resource records and carries it in
// PolicyUpdated events. Fields follow the tag in
// declaration order — ID, ResourceIRI, OwnerWebID, Version, IssuedAt, the
// purposes and the actions (a count, then the strings), MaxRetention (its
// int64 bits), ExpiresAt, MaxUses, ProhibitSharing, NotifyOnUse — in
// store's framing, with timestamps in store.AppendUTC's form. An empty list
// and a nil one encode alike and decode to nil.
func AppendRecord(dst []byte, p *Policy) []byte {
	dst = append(dst, tagPolicy)
	dst = store.AppendString(dst, p.ID)
	dst = store.AppendString(dst, p.ResourceIRI)
	dst = store.AppendString(dst, p.OwnerWebID)
	dst = store.AppendUvarint(dst, p.Version)
	dst = store.AppendUTC(dst, p.IssuedAt)
	dst = store.AppendStrings(dst, p.AllowedPurposes)
	dst = store.AppendStrings(dst, p.AllowedActions)
	dst = store.AppendUvarint(dst, uint64(p.MaxRetention))
	dst = store.AppendUTC(dst, p.ExpiresAt)
	dst = store.AppendUvarint(dst, p.MaxUses)
	dst = store.AppendBool(dst, p.ProhibitSharing)
	return store.AppendBool(dst, p.NotifyOnUse)
}

// RecordSize bounds the length of p's record encoding from above, for
// callers that size a buffer before appending to it.
func RecordSize(p *Policy) int {
	// The tag, two 16-byte timestamps, four 10-byte integers, two
	// booleans and five length prefixes.
	size := 128 + len(p.ID) + len(p.ResourceIRI) + len(p.OwnerWebID)
	for _, pu := range p.AllowedPurposes {
		size += 10 + len(pu)
	}
	for _, a := range p.AllowedActions {
		size += 10 + len(a)
	}
	return size
}

// DecodeRecord reads into p a policy appended by AppendRecord. A malformed
// encoding is d's error; the policy is not validated. Its purposes and
// actions are read through PurposeOf and ActionOf.
func DecodeRecord(d *store.Dec, p *Policy) {
	d.Tag(tagPolicy)
	p.ID = d.String()
	p.ResourceIRI = d.String()
	p.OwnerWebID = d.String()
	p.Version = d.Uvarint()
	p.IssuedAt = d.UTC()
	p.AllowedPurposes = decodeWords(d, "purposes", purposeWords)
	p.AllowedActions = decodeWords(d, "actions", actionWords)
	p.MaxRetention = time.Duration(d.Uvarint())
	p.ExpiresAt = d.UTC()
	p.MaxUses = d.Uvarint()
	p.ProhibitSharing = d.Bool()
	p.NotifyOnUse = d.Bool()
}

// Record is a policy's record encoding read in place (ReadRecord): views of
// the bytes it was read from, valid as long as they are and never written
// through, so reading one allocates nothing. Its Validate and
// PermitsPurpose apply Policy's rules, through the same code.
type Record struct {
	enc                         []byte // the whole encoding
	id, resourceIRI, ownerWebID []byte
	version                     uint64
	maxRetention                time.Duration
	purposes, actions           []byte // each list's encoding: its count, then its words
}

// ReadRecord reads the policy encoded at d's position in place. It refuses
// exactly what DecodeRecord refuses, with the same error, which d holds;
// the Record is then not to be used. The zero Record is none: its Bytes
// are empty.
func ReadRecord(d *store.Dec) (r Record) {
	start := len(d.Consumed())
	d.Tag(tagPolicy)
	r.id = d.View()
	r.resourceIRI = d.View()
	r.ownerWebID = d.View()
	r.version = d.Uvarint()
	d.UTC() // IssuedAt
	r.purposes = readWords(d, "purposes")
	r.actions = readWords(d, "actions")
	r.maxRetention = time.Duration(d.Uvarint())
	d.UTC()     // ExpiresAt
	d.Uvarint() // MaxUses
	d.Bool()    // ProhibitSharing
	d.Bool()    // NotifyOnUse
	if d.Err() == nil {
		r.enc = d.Consumed()[start:]
	}
	return r
}

// readWords walks a list as decodeWords reads it and returns its encoding.
func readWords(d *store.Dec, what string) []byte {
	start := len(d.Consumed())
	for range d.Count(what, uint64(d.Remaining())) {
		if d.View(); d.Err() != nil {
			return nil
		}
	}
	return d.Consumed()[start:]
}

// eachWord calls f on each word of a list readWords returned, until f
// reports true, and reports whether it did.
func eachWord(list []byte, f func(w []byte) bool) bool {
	d := store.NewDec(list)
	for range d.Count("words", uint64(d.Remaining())) {
		if f(d.View()) {
			return true
		}
	}
	return false
}

// Bytes returns the policy's record encoding: a view of what r was read from.
func (r *Record) Bytes() []byte { return r.enc }

// ResourceIRI returns the policy's ResourceIRI, a view.
func (r *Record) ResourceIRI() []byte { return r.resourceIRI }

// Version returns the policy's Version.
func (r *Record) Version() uint64 { return r.version }

// Validate is Policy.Validate of the policy r encodes.
func (r *Record) Validate() error {
	err := checkScalars(len(r.id), len(r.resourceIRI), len(r.ownerWebID), r.version, r.maxRetention)
	if err == nil {
		eachWord(r.purposes, func(w []byte) bool { err = checkPurpose(w); return err != nil })
	}
	if err == nil {
		eachWord(r.actions, func(w []byte) bool { err = checkAction(w); return err != nil })
	}
	return err
}

// PermitsPurpose is Policy.PermitsPurpose of the policy r encodes.
func (r *Record) PermitsPurpose(purpose Purpose) bool {
	return len(r.purposes) <= 1 || // a count of 0
		eachWord(r.purposes, func(w []byte) bool { return permits(w, purpose) })
}

// UC is the RDF vocabulary namespace for usage-control policy documents.
const UC = "https://w3id.org/usagecontrol#"

// Vocabulary IRIs for the RDF form of policies.
var (
	ucPolicy          = rdf.IRI(UC + "UsagePolicy")
	ucResource        = rdf.IRI(UC + "resource")
	ucOwner           = rdf.IRI(UC + "owner")
	ucVersion         = rdf.IRI(UC + "version")
	ucIssuedAt        = rdf.IRI(UC + "issuedAt")
	ucAllowedPurpose  = rdf.IRI(UC + "allowedPurpose")
	ucAllowedAction   = rdf.IRI(UC + "allowedAction")
	ucMaxRetention    = rdf.IRI(UC + "maxRetentionNanos")
	ucExpiresAt       = rdf.IRI(UC + "expiresAt")
	ucMaxUses         = rdf.IRI(UC + "maxUses")
	ucProhibitSharing = rdf.IRI(UC + "prohibitSharing")
	ucNotifyOnUse     = rdf.IRI(UC + "notifyOnUse")
)

// ToGraph renders the policy as an RDF graph, the form in which policies
// are stored inside Solid pods alongside the resources they govern.
func (p *Policy) ToGraph() *rdf.Graph {
	g := rdf.NewGraph()
	id := rdf.IRI(p.ID)
	g.Add(rdf.T(id, rdf.IRI(rdf.RDFType), ucPolicy))
	g.Add(rdf.T(id, ucResource, rdf.IRI(p.ResourceIRI)))
	g.Add(rdf.T(id, ucOwner, rdf.IRI(p.OwnerWebID)))
	g.Add(rdf.T(id, ucVersion, rdf.Integer(int64(p.Version))))
	g.Add(rdf.T(id, ucIssuedAt, rdf.TypedLiteral(p.IssuedAt.UTC().Format(time.RFC3339Nano), rdf.XSDDateTime)))
	for _, pu := range p.AllowedPurposes {
		g.Add(rdf.T(id, ucAllowedPurpose, rdf.Literal(string(pu))))
	}
	for _, a := range p.AllowedActions {
		g.Add(rdf.T(id, ucAllowedAction, rdf.Literal(string(a))))
	}
	if p.MaxRetention > 0 {
		g.Add(rdf.T(id, ucMaxRetention, rdf.Integer(int64(p.MaxRetention))))
	}
	if !p.ExpiresAt.IsZero() {
		g.Add(rdf.T(id, ucExpiresAt, rdf.TypedLiteral(p.ExpiresAt.UTC().Format(time.RFC3339Nano), rdf.XSDDateTime)))
	}
	if p.MaxUses > 0 {
		g.Add(rdf.T(id, ucMaxUses, rdf.Integer(int64(p.MaxUses))))
	}
	if p.ProhibitSharing {
		g.Add(rdf.T(id, ucProhibitSharing, rdf.Boolean(true)))
	}
	if p.NotifyOnUse {
		g.Add(rdf.T(id, ucNotifyOnUse, rdf.Boolean(true)))
	}
	return g
}

// decodeWords reads a list written by store.AppendStrings as store.Strings
// does, but each word through wordOf(words, …); an empty list is nil.
func decodeWords[S ~string](d *store.Dec, what string, words []S) []S {
	n := d.Count(what, uint64(d.Remaining()))
	if n == 0 {
		return nil
	}
	out := make([]S, 0, min(n, store.DecodeCapHint))
	for range n {
		w := d.View()
		if d.Err() != nil {
			return nil
		}
		out = append(out, wordOf(words, w))
	}
	return out
}

// ActionOf returns the action b spells: the package constant when b names
// one, so that decoding a vocabulary word allocates nothing, and a copy of b
// otherwise. It never keeps b.
func ActionOf(b []byte) Action { return wordOf(actionWords, b) }

// PurposeOf returns the purpose b spells as ActionOf does: the package
// constant when b names one, a copy of b otherwise.
func PurposeOf(b []byte) Purpose { return wordOf(purposeWords, b) }

// wordOf returns the word of words that b spells, or a copy of b.
func wordOf[S ~string](words []S, b []byte) S {
	for _, w := range words {
		if string(w) == string(b) {
			return w
		}
	}
	return S(b)
}
