package distexchange

import (
	"repro/internal/policy"
	"repro/internal/store"
)

// The copying codec the market methods used before they read their
// arguments and records in place: the reference that the in-place readers
// and the fresh-buffer builders are held to (FuzzArgsDecode,
// TestArgsCodecRoundTrip, TestMarketRecordsMatchReference). Each decoder
// reads one …Args value in full, its policy decoded into a *policy.Policy,
// and each encoder writes a record from its decoded form.

// decodeArgs decodes a method's or a query's arguments with a copying
// decoder: exactly raw, or the "bad args" refusal.
func decodeArgs[A any](raw []byte, args *A, decode func(*store.Dec, *A)) error {
	d := store.NewDec(raw)
	decode(d, args)
	return finishArgs(d)
}

func decodeRegisterPodArgs(d *store.Dec, a *RegisterPodArgs) {
	a.OwnerWebID = d.String()
	a.Location = d.String()
	a.DefaultPolicy = decodeOptPolicy(d)
}

func decodeRegisterResourceArgs(d *store.Dec, a *RegisterResourceArgs) {
	a.ResourceIRI = d.String()
	a.PodWebID = d.String()
	a.Location = d.String()
	a.Description = d.String()
	a.Policy = decodeOptPolicy(d)
}

func decodeUpdatePolicyArgs(d *store.Dec, a *UpdatePolicyArgs) {
	a.ResourceIRI = d.String()
	a.Policy = decodeOptPolicy(d)
}

func decodeRecordGrantArgs(d *store.Dec, a *RecordGrantArgs) {
	a.ResourceIRI = d.String()
	d.Raw(a.Consumer[:])
	d.Raw(a.Device[:])
	a.Purpose = policy.Purpose(d.String())
}

func decodeRevokeGrantArgs(d *store.Dec, a *RevokeGrantArgs) {
	a.ResourceIRI = d.String()
	d.Raw(a.Device[:])
}

func decodeWithdrawResourceArgs(d *store.Dec, a *WithdrawResourceArgs) { a.ResourceIRI = d.String() }
func decodeConfirmRetrievalArgs(d *store.Dec, a *ConfirmRetrievalArgs) { a.ResourceIRI = d.String() }
func decodeRequestMonitoringArgs(d *store.Dec, a *RequestMonitoringArgs) {
	a.ResourceIRI = d.String()
}
func decodeGetPodArgs(d *store.Dec, a *GetPodArgs)           { a.OwnerWebID = d.String() }
func decodeGetResourceArgs(d *store.Dec, a *GetResourceArgs) { a.ResourceIRI = d.String() }
func decodeGetGrantsArgs(d *store.Dec, a *GetGrantsArgs)     { a.ResourceIRI = d.String() }

func decodeReportUnresponsiveArgs(d *store.Dec, a *ReportUnresponsiveArgs) {
	a.ResourceIRI = d.String()
	a.Round = d.Uvarint()
}

func decodeGetViolationsArgs(d *store.Dec, a *GetViolationsArgs) {
	a.ResourceIRI = d.String()
	a.Round = decodeOptRound(d)
}

func decodeGetEvidenceArgs(d *store.Dec, a *GetEvidenceArgs) {
	a.ResourceIRI = d.String()
	a.Round = decodeOptRound(d)
}

func decodeGetMonitoringRoundArgs(d *store.Dec, a *GetMonitoringRoundArgs) {
	a.ResourceIRI = d.String()
	a.Round = d.Uvarint()
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

// policyBytes is p's record encoding, empty for none: what the in-place
// builders take for an optional policy.
func policyBytes(p *policy.Policy) []byte {
	if p == nil {
		return nil
	}
	return policy.AppendRecord(nil, p)
}
