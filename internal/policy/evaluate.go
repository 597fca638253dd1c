package policy

import (
	"fmt"
	"time"
)

// UsageContext describes one attempted use of a resource copy, as seen by
// the enforcement point (the TEE's trusted application).
type UsageContext struct {
	// Now is the evaluation instant.
	Now time.Time
	// Purpose is the declared purpose of the running application.
	Purpose Purpose
	// Action is the operation being attempted.
	Action Action
	// RetrievedAt is when the local copy was obtained from the pod.
	RetrievedAt time.Time
	// PriorUses is the number of uses already performed on this copy.
	PriorUses uint64
}

// DenialReason is a machine-readable reason code for a denied use.
type DenialReason string

// Denial reason codes.
const (
	DenyPurpose   DenialReason = "purpose-not-allowed"
	DenyAction    DenialReason = "action-not-allowed"
	DenyExpired   DenialReason = "retention-expired"
	DenyUsesSpent DenialReason = "max-uses-exhausted"
)

// Decision is the outcome of evaluating a policy against a usage context.
type Decision struct {
	// Allowed reports whether the use may proceed.
	Allowed bool
	// Reasons lists why the use was denied (empty when allowed).
	Reasons []DenialReason
}

// Deny reports whether the decision denies for the given reason.
func (d Decision) Deny(reason DenialReason) bool {
	for _, r := range d.Reasons {
		if r == reason {
			return true
		}
	}
	return false
}

// String renders the decision for logs.
func (d Decision) String() string {
	if d.Allowed {
		return "permit"
	}
	return fmt.Sprintf("deny %v", d.Reasons)
}

// Evaluate decides whether the use described by ctx complies with the
// policy. Evaluation is pure: it inspects only its arguments.
//
// The decision combines four checks — purpose constraint, action
// permission, temporal obligation (retention/expiry), and usage-count
// limit. All failing checks are reported, not just the first, so that
// compliance evidence can name every violated constraint.
func (p *Policy) Evaluate(ctx UsageContext) Decision {
	var d Decision
	if !p.PermitsPurpose(ctx.Purpose) {
		d.Reasons = append(d.Reasons, DenyPurpose)
	}
	if !p.PermitsAction(ctx.Action) {
		d.Reasons = append(d.Reasons, DenyAction)
	}
	if deadline, has := p.DeleteDeadline(ctx.RetrievedAt); has && ctx.Now.After(deadline) {
		d.Reasons = append(d.Reasons, DenyExpired)
	}
	if p.MaxUses > 0 && ctx.PriorUses >= p.MaxUses {
		d.Reasons = append(d.Reasons, DenyUsesSpent)
	}
	d.Allowed = len(d.Reasons) == 0
	return d
}
