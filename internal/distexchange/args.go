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
// which chain.NewTx calls; the contract decodes it with the decoder that
// the method name selects.

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

func decodeRegisterPodArgs(d *store.Dec, a *RegisterPodArgs) {
	a.OwnerWebID = d.String()
	a.Location = d.String()
	a.DefaultPolicy = decodeOptPolicy(d)
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

func decodeRegisterResourceArgs(d *store.Dec, a *RegisterResourceArgs) {
	a.ResourceIRI = d.String()
	a.PodWebID = d.String()
	a.Location = d.String()
	a.Description = d.String()
	a.Policy = decodeOptPolicy(d)
}

// AppendArgs appends the arguments' encoding.
func (a WithdrawResourceArgs) AppendArgs(dst []byte) []byte {
	return store.AppendString(dst, a.ResourceIRI)
}

func decodeWithdrawResourceArgs(d *store.Dec, a *WithdrawResourceArgs) { a.ResourceIRI = d.String() }

// AppendArgs appends the arguments' encoding.
func (a UpdatePolicyArgs) AppendArgs(dst []byte) []byte {
	dst = grow(dst, 10+len(a.ResourceIRI)+optPolicySize(a.Policy))
	return appendOptPolicy(store.AppendString(dst, a.ResourceIRI), a.Policy)
}

func decodeUpdatePolicyArgs(d *store.Dec, a *UpdatePolicyArgs) {
	a.ResourceIRI = d.String()
	a.Policy = decodeOptPolicy(d)
}

// AppendArgs appends the arguments' encoding.
func (a RegisterDeviceArgs) AppendArgs(dst []byte) []byte {
	return store.AppendBytes(dst, a.Certificate)
}

func decodeRegisterDeviceArgs(d *store.Dec, a *RegisterDeviceArgs) { a.Certificate = d.Bytes() }

// AppendArgs appends the arguments' encoding.
func (a RecordGrantArgs) AppendArgs(dst []byte) []byte {
	dst = grow(dst, 20+2*cryptoutil.AddressLen+len(a.ResourceIRI)+len(a.Purpose))
	dst = store.AppendString(dst, a.ResourceIRI)
	dst = append(dst, a.Consumer[:]...)
	dst = append(dst, a.Device[:]...)
	return store.AppendString(dst, string(a.Purpose))
}

func decodeRecordGrantArgs(d *store.Dec, a *RecordGrantArgs) {
	a.ResourceIRI = d.String()
	d.Raw(a.Consumer[:])
	d.Raw(a.Device[:])
	a.Purpose = policy.Purpose(d.String())
}

// AppendArgs appends the arguments' encoding.
func (a ConfirmRetrievalArgs) AppendArgs(dst []byte) []byte {
	return store.AppendString(dst, a.ResourceIRI)
}

func decodeConfirmRetrievalArgs(d *store.Dec, a *ConfirmRetrievalArgs) { a.ResourceIRI = d.String() }

// AppendArgs appends the arguments' encoding.
func (a RevokeGrantArgs) AppendArgs(dst []byte) []byte {
	return append(store.AppendString(dst, a.ResourceIRI), a.Device[:]...)
}

func decodeRevokeGrantArgs(d *store.Dec, a *RevokeGrantArgs) {
	a.ResourceIRI = d.String()
	d.Raw(a.Device[:])
}

// AppendArgs appends the arguments' encoding.
func (a RequestMonitoringArgs) AppendArgs(dst []byte) []byte {
	return store.AppendString(dst, a.ResourceIRI)
}

func decodeRequestMonitoringArgs(d *store.Dec, a *RequestMonitoringArgs) { a.ResourceIRI = d.String() }

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
func decodeSubmitEvidenceArgs(d *store.Dec, a *SubmitEvidenceArgs) {
	n := d.Count("evidence", uint64(d.Remaining()))
	if n == 0 {
		return
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
			return
		}
	}
}

// AppendArgs appends the arguments' encoding.
func (a ReportUnresponsiveArgs) AppendArgs(dst []byte) []byte {
	return store.AppendUvarint(store.AppendString(dst, a.ResourceIRI), a.Round)
}

func decodeReportUnresponsiveArgs(d *store.Dec, a *ReportUnresponsiveArgs) {
	a.ResourceIRI = d.String()
	a.Round = d.Uvarint()
}

// AppendArgs appends the arguments' encoding.
func (a GetPodArgs) AppendArgs(dst []byte) []byte { return store.AppendString(dst, a.OwnerWebID) }

func decodeGetPodArgs(d *store.Dec, a *GetPodArgs) { a.OwnerWebID = d.String() }

// AppendArgs appends the arguments' encoding, in a buffer of its exact size
// when dst has no room: the IRI's length as a uvarint, then the IRI.
func (a GetResourceArgs) AppendArgs(dst []byte) []byte {
	n := len(a.ResourceIRI)
	return store.AppendString(grow(dst, (bits.Len64(uint64(n)|1)+6)/7+n), a.ResourceIRI)
}

// getResourceIRI reads getResource's arguments, the IRI alone, as a view of
// args, refusing what decodeArgs refuses: the query builds its key from the
// view and keeps nothing, so reading the arguments allocates nothing.
func getResourceIRI(args []byte) ([]byte, error) {
	d := store.NewDec(args)
	iri := d.View()
	return iri, finishArgs(d)
}

// AppendArgs appends the arguments' encoding.
func (a GetGrantsArgs) AppendArgs(dst []byte) []byte { return store.AppendString(dst, a.ResourceIRI) }

func decodeGetGrantsArgs(d *store.Dec, a *GetGrantsArgs) { a.ResourceIRI = d.String() }

// AppendArgs appends the arguments' encoding.
func (a GetDeviceArgs) AppendArgs(dst []byte) []byte { return append(dst, a.Device[:]...) }

func decodeGetDeviceArgs(d *store.Dec, a *GetDeviceArgs) { d.Raw(a.Device[:]) }

// AppendArgs appends the arguments' encoding.
func (a GetViolationsArgs) AppendArgs(dst []byte) []byte {
	return appendOptRound(store.AppendString(dst, a.ResourceIRI), a.Round)
}

func decodeGetViolationsArgs(d *store.Dec, a *GetViolationsArgs) {
	a.ResourceIRI = d.String()
	a.Round = decodeOptRound(d)
}

// AppendArgs appends the arguments' encoding.
func (a GetEvidenceArgs) AppendArgs(dst []byte) []byte {
	return appendOptRound(store.AppendString(dst, a.ResourceIRI), a.Round)
}

func decodeGetEvidenceArgs(d *store.Dec, a *GetEvidenceArgs) {
	a.ResourceIRI = d.String()
	a.Round = decodeOptRound(d)
}

// AppendArgs appends the arguments' encoding.
func (a GetMonitoringRoundArgs) AppendArgs(dst []byte) []byte {
	return store.AppendUvarint(store.AppendString(dst, a.ResourceIRI), a.Round)
}

func decodeGetMonitoringRoundArgs(d *store.Dec, a *GetMonitoringRoundArgs) {
	a.ResourceIRI = d.String()
	a.Round = d.Uvarint()
}
