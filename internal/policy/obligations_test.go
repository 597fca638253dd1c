package policy

import (
	"testing"
	"time"
)

// TestObligationsForAliceScenario reproduces the paper's policy
// modification: after two days Alice shortens max storage from one month
// to one week. A holder that retrieved five days ago reschedules; a holder
// that retrieved nine days ago must delete now.
func TestObligationsForAliceScenario(t *testing.T) {
	week := 7 * 24 * time.Hour
	newP := alicePolicy().NextVersion(t0)
	newP.MaxRetention = week

	t.Run("young copy reschedules", func(t *testing.T) {
		retrieved := t0.Add(-5 * 24 * time.Hour)
		obs := ObligationsFor(newP, HolderState{RetrievedAt: retrieved, Purpose: PurposeWebAnalytics, Now: t0})
		if len(obs) != 1 || obs[0].Kind != ObligationReschedule {
			t.Fatalf("obligations = %+v, want single reschedule", obs)
		}
		if !obs[0].DeleteBy.Equal(retrieved.Add(week)) {
			t.Fatalf("DeleteBy = %s, want %s", obs[0].DeleteBy, retrieved.Add(week))
		}
	})

	t.Run("old copy deletes now", func(t *testing.T) {
		retrieved := t0.Add(-9 * 24 * time.Hour)
		obs := ObligationsFor(newP, HolderState{RetrievedAt: retrieved, Purpose: PurposeWebAnalytics, Now: t0})
		if len(obs) != 1 || obs[0].Kind != ObligationDeleteNow {
			t.Fatalf("obligations = %+v, want single delete-now", obs)
		}
	})
}

// TestObligationsForBobScenario reproduces Bob's purpose change to
// academic: Alice (medical-research app at a university hospital that also
// declares academic) keeps access if her purpose remains allowed; a
// consumer with a non-academic purpose has its use revoked.
func TestObligationsForBobScenario(t *testing.T) {
	newP := bobPolicy().NextVersion(t0)
	newP.AllowedPurposes = []Purpose{PurposeAcademic}

	t.Run("still-allowed purpose unaffected", func(t *testing.T) {
		obs := ObligationsFor(newP, HolderState{RetrievedAt: t0.Add(-time.Hour), Purpose: PurposeAcademic, Now: t0})
		if len(obs) != 1 || obs[0].Kind != ObligationNone {
			t.Fatalf("obligations = %+v, want none", obs)
		}
	})

	t.Run("disallowed purpose revoked", func(t *testing.T) {
		obs := ObligationsFor(newP, HolderState{RetrievedAt: t0.Add(-time.Hour), Purpose: PurposeMedicalResearch, Now: t0})
		if len(obs) != 1 || obs[0].Kind != ObligationRevokeUse {
			t.Fatalf("obligations = %+v, want revoke-use", obs)
		}
	})
}

func TestObligationsCombined(t *testing.T) {
	newP := bobPolicy().NextVersion(t0)
	newP.AllowedPurposes = []Purpose{PurposeAcademic}
	newP.MaxRetention = time.Hour

	obs := ObligationsFor(newP, HolderState{
		RetrievedAt: t0.Add(-2 * time.Hour), Purpose: PurposeMedicalResearch, Now: t0,
	})
	kinds := map[ObligationKind]bool{}
	for _, o := range obs {
		kinds[o.Kind] = true
	}
	if !kinds[ObligationDeleteNow] || !kinds[ObligationRevokeUse] {
		t.Fatalf("obligations = %+v, want delete-now + revoke-use", obs)
	}
}
