package policy

import (
	"fmt"
	"time"
)

// ObligationKind classifies an action a copy-holder must take in response
// to a policy update (the Fig. 2(5) "execute actions according to the
// policy change" step).
type ObligationKind string

// Obligation kinds triggered by policy updates.
const (
	// ObligationDeleteNow requires immediate deletion of the local copy
	// (its deadline has already lapsed under the new policy).
	ObligationDeleteNow ObligationKind = "delete-now"
	// ObligationReschedule requires re-arming the deletion timer to the new
	// deadline.
	ObligationReschedule ObligationKind = "reschedule-deletion"
	// ObligationRevokeUse requires the holder to stop using the copy
	// because its declared purpose is no longer allowed. The copy may be
	// kept if retention still permits, but no further use may occur.
	ObligationRevokeUse ObligationKind = "revoke-use"
	// ObligationNone indicates the update does not affect this holder.
	ObligationNone ObligationKind = "none"
)

// HolderState is the per-copy state a TEE holds, needed to translate a
// policy update into concrete obligations.
type HolderState struct {
	// RetrievedAt is when this holder obtained its copy.
	RetrievedAt time.Time
	// Purpose is the declared purpose of the holding application.
	Purpose Purpose
	// Now is the instant of the update delivery.
	Now time.Time
}

// Obligation is a concrete action a holder must execute, derived from a
// policy update.
type Obligation struct {
	Kind ObligationKind
	// DeleteBy carries the (new) deadline for ObligationReschedule.
	DeleteBy time.Time
	// Reason is a human-readable explanation for audit logs.
	Reason string
}

// ObligationsFor translates a policy update into the obligations a given
// holder must execute. This is the core of the paper's policy-modification
// scenario: after Alice shortens retention from one month to one week,
// holders whose copies are already older than a week must delete
// immediately; younger copies reschedule their timers. Bob's purpose
// change to "academic" revokes use for holders with non-academic purposes
// but, as in the paper, does not affect holders whose purpose remains
// allowed.
func ObligationsFor(newP *Policy, state HolderState) []Obligation {
	var out []Obligation

	if deadline, has := newP.DeleteDeadline(state.RetrievedAt); has {
		if state.Now.After(deadline) {
			out = append(out, Obligation{
				Kind:   ObligationDeleteNow,
				Reason: fmt.Sprintf("deadline %s already lapsed", deadline.UTC().Format(time.RFC3339)),
			})
		} else {
			out = append(out, Obligation{
				Kind:     ObligationReschedule,
				DeleteBy: deadline,
				Reason:   fmt.Sprintf("new deadline %s", deadline.UTC().Format(time.RFC3339)),
			})
		}
	}

	if !newP.PermitsPurpose(state.Purpose) {
		out = append(out, Obligation{
			Kind:   ObligationRevokeUse,
			Reason: fmt.Sprintf("purpose %q no longer allowed", state.Purpose),
		})
	}

	if len(out) == 0 {
		out = append(out, Obligation{Kind: ObligationNone, Reason: "update does not affect this holder"})
	}
	return out
}
