package policy

import (
	"testing"
	"time"
)

// TestObligationsForAliceScenario reproduces the paper's policy
// modification: after two days Alice shortens max storage from one month
// to one week. A holder that retrieved five days ago gets a new deadline
// still ahead of it; a holder that retrieved nine days ago is already past
// it and must delete now. The trusted app reads exactly these two facts
// from the new version when it applies the update.
func TestObligationsForAliceScenario(t *testing.T) {
	week := 7 * 24 * time.Hour
	newP := alicePolicy().NextVersion(t0)
	newP.MaxRetention = week

	t.Run("young copy reschedules", func(t *testing.T) {
		retrieved := t0.Add(-5 * 24 * time.Hour)
		deadline, has := newP.DeleteDeadline(retrieved)
		if !has || !deadline.Equal(retrieved.Add(week)) {
			t.Fatalf("DeleteDeadline = %s, %v, want %s, true", deadline, has, retrieved.Add(week))
		}
		if !deadline.After(t0) {
			t.Fatalf("deadline %s already passed at %s, want a rescheduled timer", deadline, t0)
		}
		d := newP.Evaluate(UsageContext{Now: t0, Purpose: PurposeWebAnalytics, Action: ActionUse, RetrievedAt: retrieved})
		if !d.Allowed {
			t.Fatalf("young copy use = %s, want permit", d)
		}
	})

	t.Run("old copy deletes now", func(t *testing.T) {
		retrieved := t0.Add(-9 * 24 * time.Hour)
		deadline, has := newP.DeleteDeadline(retrieved)
		if !has || !t0.After(deadline) {
			t.Fatalf("DeleteDeadline = %s, %v, want a deadline before %s", deadline, has, t0)
		}
		d := newP.Evaluate(UsageContext{Now: t0, Purpose: PurposeWebAnalytics, Action: ActionUse, RetrievedAt: retrieved})
		if d.Allowed || !d.Deny(DenyExpired) || d.Deny(DenyPurpose) {
			t.Fatalf("old copy use = %s, want deny [retention-expired] only", d)
		}
	})
}

// TestObligationsForBobScenario reproduces Bob's purpose change to
// academic: a holder whose purpose remains allowed keeps access; a
// consumer with a non-academic purpose has its use revoked. No deadline
// is involved, so neither holder has to delete.
func TestObligationsForBobScenario(t *testing.T) {
	newP := bobPolicy().NextVersion(t0)
	newP.AllowedPurposes = []Purpose{PurposeAcademic}
	retrieved := t0.Add(-time.Hour)

	t.Run("still-allowed purpose unaffected", func(t *testing.T) {
		if _, has := newP.DeleteDeadline(retrieved); has {
			t.Fatal("unexpected deletion deadline")
		}
		if !newP.PermitsPurpose(PurposeAcademic) {
			t.Fatal("academic purpose not permitted after the update")
		}
		d := newP.Evaluate(UsageContext{Now: t0, Purpose: PurposeAcademic, Action: ActionUse, RetrievedAt: retrieved})
		if !d.Allowed {
			t.Fatalf("use = %s, want permit", d)
		}
	})

	t.Run("disallowed purpose revoked", func(t *testing.T) {
		if _, has := newP.DeleteDeadline(retrieved); has {
			t.Fatal("unexpected deletion deadline")
		}
		if newP.PermitsPurpose(PurposeMedicalResearch) {
			t.Fatal("medical-research purpose still permitted after the update")
		}
		d := newP.Evaluate(UsageContext{Now: t0, Purpose: PurposeMedicalResearch, Action: ActionUse, RetrievedAt: retrieved})
		if d.Allowed || !d.Deny(DenyPurpose) || d.Deny(DenyExpired) {
			t.Fatalf("use = %s, want deny [purpose-not-allowed] only", d)
		}
	})
}
