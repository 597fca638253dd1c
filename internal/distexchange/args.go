package distexchange

import (
	"math/bits"

	"repro/internal/cryptoutil"
	"repro/internal/policy"
	"repro/internal/store"
)

// The argument codec: the one encoding of every method's and query's
// arguments, described in the package comment ("Argument format"). Each
// …Args type appends its own encoding with a value-receiver AppendArgs,
// which chain.NewTx calls; the contract reads it with the reader that the
// method name selects. A reader takes the argument bytes and returns what
// it read by value, so its decoder stays on its stack; what it refuses
// reverts with "bad args: …" (finishArgs). The market methods' readers, and
// the readers of an IRI, read views of the bytes: they live as long as the
// call (contract.Env), and nothing the call stores keeps one.

func appendOptRound(dst []byte, round *uint64) []byte {
	if round == nil {
		return store.AppendBool(dst, false)
	}
	return store.AppendUvarint(store.AppendBool(dst, true), *round)
}

func decodeOptRound(d *store.Dec) *uint64 {
	if !d.Bool() {
		return nil
	}
	round := d.Uvarint()
	return &round
}

// AppendArgs appends the arguments' encoding.
func (a RegisterPodArgs) AppendArgs(dst []byte) []byte {
	dst = grow(dst, 20+len(a.OwnerWebID)+len(a.Location)+optPolicySize(a.DefaultPolicy))
	dst = store.AppendString(dst, a.OwnerWebID)
	dst = store.AppendString(dst, a.Location)
	return appendOptPolicy(dst, a.DefaultPolicy)
}

// registerPodView is RegisterPodArgs read in place (readRegisterPodArgs).
type registerPodView struct {
	ownerWebID, location []byte
	defaultPolicy        policy.Record // zero when none
}

func readRegisterPodArgs(raw []byte) (a registerPodView, err error) {
	d := store.NewDec(raw)
	a.ownerWebID = d.View()
	a.location = d.View()
	a.defaultPolicy = readOptPolicy(d)
	return a, finishArgs(d)
}

// AppendArgs appends the arguments' encoding.
func (a RegisterResourceArgs) AppendArgs(dst []byte) []byte {
	dst = grow(dst, 40+len(a.ResourceIRI)+len(a.PodWebID)+len(a.Location)+len(a.Description)+optPolicySize(a.Policy))
	dst = store.AppendString(dst, a.ResourceIRI)
	dst = store.AppendString(dst, a.PodWebID)
	dst = store.AppendString(dst, a.Location)
	dst = store.AppendString(dst, a.Description)
	return appendOptPolicy(dst, a.Policy)
}

// registerResourceView is RegisterResourceArgs read in place
// (readRegisterResourceArgs).
type registerResourceView struct {
	iri, podWebID, location, description []byte
	policy                               policy.Record // zero when none
}

func readRegisterResourceArgs(raw []byte) (a registerResourceView, err error) {
	d := store.NewDec(raw)
	a.iri = d.View()
	a.podWebID = d.View()
	a.location = d.View()
	a.description = d.View()
	a.policy = readOptPolicy(d)
	return a, finishArgs(d)
}

// AppendArgs appends the arguments' encoding.
func (a WithdrawResourceArgs) AppendArgs(dst []byte) []byte {
	return store.AppendString(dst, a.ResourceIRI)
}

// AppendArgs appends the arguments' encoding.
func (a UpdatePolicyArgs) AppendArgs(dst []byte) []byte {
	dst = grow(dst, 10+len(a.ResourceIRI)+optPolicySize(a.Policy))
	return appendOptPolicy(store.AppendString(dst, a.ResourceIRI), a.Policy)
}

// updatePolicyView is UpdatePolicyArgs read in place
// (readUpdatePolicyArgs).
type updatePolicyView struct {
	iri    []byte
	policy policy.Record // zero when none
}

func readUpdatePolicyArgs(raw []byte) (a updatePolicyView, err error) {
	d := store.NewDec(raw)
	a.iri = d.View()
	a.policy = readOptPolicy(d)
	return a, finishArgs(d)
}

// AppendArgs appends the arguments' encoding.
func (a RegisterDeviceArgs) AppendArgs(dst []byte) []byte {
	return store.AppendBytes(dst, a.Certificate)
}

func decodeRegisterDeviceArgs(raw []byte) (a RegisterDeviceArgs, err error) {
	d := store.NewDec(raw)
	a.Certificate = d.Bytes()
	return a, finishArgs(d)
}

// AppendArgs appends the arguments' encoding.
func (a RecordGrantArgs) AppendArgs(dst []byte) []byte {
	dst = grow(dst, 20+2*cryptoutil.AddressLen+len(a.ResourceIRI)+len(a.Purpose))
	dst = store.AppendString(dst, a.ResourceIRI)
	dst = append(dst, a.Consumer[:]...)
	dst = append(dst, a.Device[:]...)
	return store.AppendString(dst, string(a.Purpose))
}

// recordGrantView is RecordGrantArgs read in place (readRecordGrantArgs).
type recordGrantView struct {
	iri              []byte
	consumer, device cryptoutil.Address
	purpose          []byte
}

func readRecordGrantArgs(raw []byte) (a recordGrantView, err error) {
	d := store.NewDec(raw)
	a.iri = d.View()
	d.Raw(a.consumer[:])
	d.Raw(a.device[:])
	a.purpose = d.View()
	return a, finishArgs(d)
}

// AppendArgs appends the arguments' encoding.
func (a ConfirmRetrievalArgs) AppendArgs(dst []byte) []byte {
	return store.AppendString(dst, a.ResourceIRI)
}

// AppendArgs appends the arguments' encoding.
func (a RevokeGrantArgs) AppendArgs(dst []byte) []byte {
	return append(store.AppendString(dst, a.ResourceIRI), a.Device[:]...)
}

// revokeGrantView is RevokeGrantArgs read in place (readRevokeGrantArgs).
type revokeGrantView struct {
	iri    []byte
	device cryptoutil.Address
}

func readRevokeGrantArgs(raw []byte) (a revokeGrantView, err error) {
	d := store.NewDec(raw)
	a.iri = d.View()
	d.Raw(a.device[:])
	return a, finishArgs(d)
}

// AppendArgs appends the arguments' encoding.
func (a RequestMonitoringArgs) AppendArgs(dst []byte) []byte {
	return store.AppendString(dst, a.ResourceIRI)
}

// signedEvidenceSize bounds from above the encoding of one item of a
// submitEvidence list.
func signedEvidenceSize(s *SignedEvidence) int {
	return evidenceRecordSize(&s.Evidence, 0) + 10 + len(s.Signature)
}

// AppendArgs appends the arguments' encoding: the count of the list, then
// per item the evidence as an EvidenceRecord holds it and the signature.
func (a SubmitEvidenceArgs) AppendArgs(dst []byte) []byte {
	size := 10
	for i := range a.Signed {
		size += signedEvidenceSize(&a.Signed[i])
	}
	dst = store.AppendUvarint(grow(dst, size), uint64(len(a.Signed)))
	for i := range a.Signed {
		dst = store.AppendBytes(appendEvidence(dst, &a.Signed[i].Evidence), a.Signed[i].Signature)
	}
	return dst
}

// decodeSubmitEvidenceArgs decodes a list without copying what the
// arguments already hold: each Signature is a view of them, and items that
// follow one of the same resource share its IRI string (decodeEvidence).
// Each item's signing slice is tagEvidence and its evidence as the
// arguments carry it. Arguments have one encoding, so that is
// Evidence.SigningBytes; all items' slices share one buffer. Views live as
// long as the call the arguments came with (contract.Env), and nothing
// stored keeps one.
func decodeSubmitEvidenceArgs(raw []byte) (a SubmitEvidenceArgs, err error) {
	d := store.NewDec(raw)
	n := d.Count("evidence", uint64(d.Remaining()))
	if n == 0 {
		return a, finishArgs(d)
	}
	a.Signed = make([]SignedEvidence, 0, min(n, store.DecodeCapHint))
	// Every item's evidence is in the remaining bytes. Were a list past the
	// hint to grow the buffer, the slices taken before keep their bytes.
	rest := d.Remaining()
	signing := make([]byte, 0, min(rest+int(n), rest+store.DecodeCapHint))
	var iri string
	for range n {
		// Decoded in place, as decodeListing does.
		a.Signed = append(a.Signed, SignedEvidence{Evidence: Evidence{ResourceIRI: iri}})
		s := &a.Signed[len(a.Signed)-1]
		start, at := len(d.Consumed()), len(signing)
		decodeEvidence(d, &s.Evidence)
		signing = append(append(signing, tagEvidence), d.Consumed()[start:]...)
		iri, s.signing = s.Evidence.ResourceIRI, signing[at:]
		if s.Signature = d.View(); len(s.Signature) == 0 {
			s.Signature = nil // as Dec.Bytes reads an empty one
		}
		if d.Err() != nil {
			break
		}
	}
	return a, finishArgs(d)
}

// AppendArgs appends the arguments' encoding.
func (a ReportUnresponsiveArgs) AppendArgs(dst []byte) []byte {
	return store.AppendUvarint(store.AppendString(dst, a.ResourceIRI), a.Round)
}

// readIRIRoundArgs reads arguments that are an IRI and a round number:
// reportUnresponsive's and getMonitoringRound's. The IRI is a view.
func readIRIRoundArgs(raw []byte) (iri []byte, round uint64, err error) {
	d := store.NewDec(raw)
	iri = d.View()
	round = d.Uvarint()
	return iri, round, finishArgs(d)
}

// AppendArgs appends the arguments' encoding.
func (a GetPodArgs) AppendArgs(dst []byte) []byte { return store.AppendString(dst, a.OwnerWebID) }

// AppendArgs appends the arguments' encoding, in a buffer of its exact size
// when dst has no room: the IRI's length as a uvarint, then the IRI.
func (a GetResourceArgs) AppendArgs(dst []byte) []byte {
	n := len(a.ResourceIRI)
	return store.AppendString(grow(dst, (bits.Len64(uint64(n)|1)+6)/7+n), a.ResourceIRI)
}

// readIRIArgs reads arguments that are one IRI — or, for getPod, a WebID —
// as a view: those of every method and query the package comment's
// argument table lists as "resource" alone. A caller that builds its keys
// from the view and keeps nothing reads its arguments without allocating.
func readIRIArgs(raw []byte) ([]byte, error) {
	d := store.NewDec(raw)
	iri := d.View()
	return iri, finishArgs(d)
}

// AppendArgs appends the arguments' encoding.
func (a GetGrantsArgs) AppendArgs(dst []byte) []byte { return store.AppendString(dst, a.ResourceIRI) }

// AppendArgs appends the arguments' encoding.
func (a GetDeviceArgs) AppendArgs(dst []byte) []byte { return append(dst, a.Device[:]...) }

func decodeGetDeviceArgs(raw []byte) (a GetDeviceArgs, err error) {
	d := store.NewDec(raw)
	d.Raw(a.Device[:])
	return a, finishArgs(d)
}

// AppendArgs appends the arguments' encoding.
func (a GetViolationsArgs) AppendArgs(dst []byte) []byte {
	return appendOptRound(store.AppendString(dst, a.ResourceIRI), a.Round)
}

// readLedgerArgs reads getViolations' and getEvidence's arguments, an IRI
// and an optional round. The IRI is a view.
func readLedgerArgs(raw []byte) (iri []byte, round *uint64, err error) {
	d := store.NewDec(raw)
	iri = d.View()
	round = decodeOptRound(d)
	return iri, round, finishArgs(d)
}

// AppendArgs appends the arguments' encoding.
func (a GetEvidenceArgs) AppendArgs(dst []byte) []byte {
	return appendOptRound(store.AppendString(dst, a.ResourceIRI), a.Round)
}

// AppendArgs appends the arguments' encoding.
func (a GetMonitoringRoundArgs) AppendArgs(dst []byte) []byte {
	return store.AppendUvarint(store.AppendString(dst, a.ResourceIRI), a.Round)
}
