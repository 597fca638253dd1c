package tee

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/policy"
	"repro/internal/simclock"
)

func newApp(t *testing.T, purpose policy.Purpose) (*App, *simclock.Sim) {
	t.Helper()
	_, dev := newDevice(t)
	clk := simclock.NewSim(teeEpoch)
	return NewApp(dev, purpose, clk), clk
}

func webPolicy(retention time.Duration) *policy.Policy {
	p := policy.New("https://alice.pod/web/browsing.csv", "https://alice.pod/profile#me", teeEpoch)
	p.MaxRetention = retention
	return p
}

func medicalPolicy() *policy.Policy {
	p := policy.New("https://bob.pod/medical/ds1.ttl", "https://bob.pod/profile#me", teeEpoch)
	p.AllowedPurposes = []policy.Purpose{policy.PurposeMedicalResearch}
	return p
}

func TestStoreAndUse(t *testing.T) {
	app, _ := newApp(t, policy.PurposeWebAnalytics)
	data := []byte("browsing,data,rows")
	if err := app.StoreResource("https://alice.pod/web/browsing.csv", data, webPolicy(time.Hour)); err != nil {
		t.Fatal(err)
	}
	got, err := app.Use("https://alice.pod/web/browsing.csv", policy.ActionUse)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Use returned %q", got)
	}
	if app.copies["https://alice.pod/web/browsing.csv"].useCount != 1 {
		t.Fatal("use count not incremented")
	}
	if !app.Holds("https://alice.pod/web/browsing.csv") {
		t.Fatal("Holds = false")
	}
}

func TestStoreDuplicateRejected(t *testing.T) {
	app, _ := newApp(t, policy.PurposeWebAnalytics)
	iri := "https://alice.pod/web/browsing.csv"
	if err := app.StoreResource(iri, []byte("x"), webPolicy(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := app.StoreResource(iri, []byte("y"), webPolicy(time.Hour)); err == nil {
		t.Fatal("duplicate store accepted")
	}
}

func TestUseDeniedByPurpose(t *testing.T) {
	app, _ := newApp(t, policy.PurposeMarketing) // wrong purpose
	iri := "https://bob.pod/medical/ds1.ttl"
	if err := app.StoreResource(iri, []byte("med"), medicalPolicy()); err != nil {
		t.Fatal(err)
	}
	_, err := app.Use(iri, policy.ActionUse)
	if !errors.Is(err, ErrUseDenied) {
		t.Fatalf("err = %v, want ErrUseDenied", err)
	}
	if app.copies[iri].useCount != 0 {
		t.Fatal("denied use counted")
	}
	// The denied attempt is still logged for evidence.
	signed, err := app.Evidence(iri, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(signed.Evidence.Entries) != 1 || signed.Evidence.Entries[0].Allowed {
		t.Fatalf("entries = %+v", signed.Evidence.Entries)
	}
}

func TestAutomaticExpiryDeletion(t *testing.T) {
	app, clk := newApp(t, policy.PurposeWebAnalytics)
	iri := "https://alice.pod/web/browsing.csv"
	if err := app.StoreResource(iri, []byte("x"), webPolicy(24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(23 * time.Hour)
	if !app.Holds(iri) {
		t.Fatal("copy deleted early")
	}
	clk.Advance(2 * time.Hour) // deadline passes; timer fires
	if app.Holds(iri) {
		t.Fatal("copy survived its deadline — the paper's core enforcement failed")
	}
	if _, err := app.Use(iri, policy.ActionUse); !errors.Is(err, ErrDeleted) {
		t.Fatalf("use after deletion: %v", err)
	}
	// Sealed bytes are gone too.
	if _, sealed := app.device.store.entries["data/"+iri]; sealed {
		t.Fatal("sealed data survived deletion")
	}
}

func TestUseAfterDeadlineWithoutTimerTriggersDeletion(t *testing.T) {
	// Even if the timer did not fire (e.g. clock jumped), a use attempt
	// after the deadline is denied and enforces deletion.
	app, clk := newApp(t, policy.PurposeWebAnalytics)
	iri := "https://alice.pod/web/browsing.csv"
	pol := webPolicy(time.Hour)
	if err := app.StoreResource(iri, []byte("x"), pol); err != nil {
		t.Fatal(err)
	}
	// Cancel the scheduled timer by replacing policy state directly is not
	// possible from outside; instead simulate a rogue toggle around the
	// advance so the timer no-ops, then re-enable enforcement.
	app.SetRogue(true)
	clk.Advance(2 * time.Hour)
	app.SetRogue(false)
	if !app.Holds(iri) {
		t.Fatal("setup failed")
	}
	_, err := app.Use(iri, policy.ActionUse)
	if !errors.Is(err, ErrUseDenied) {
		t.Fatalf("err = %v", err)
	}
	if app.Holds(iri) {
		t.Fatal("expired copy not deleted on access attempt")
	}
}

func TestManualDelete(t *testing.T) {
	app, _ := newApp(t, policy.PurposeWebAnalytics)
	iri := "https://alice.pod/web/browsing.csv"
	if err := app.StoreResource(iri, []byte("x"), webPolicy(0)); err != nil {
		t.Fatal(err)
	}
	if err := app.Delete(iri); err != nil {
		t.Fatal(err)
	}
	if err := app.Delete(iri); !errors.Is(err, ErrDeleted) {
		t.Fatalf("double delete: %v", err)
	}
	if err := app.Delete("https://unknown"); !errors.Is(err, ErrNoCopy) {
		t.Fatalf("unknown delete: %v", err)
	}
}

// TestPolicyUpdateAliceScenario reproduces the paper's running example:
// Alice shortens retention from one month to one week two days after
// Bob retrieved her data; Bob's copy is kept, its deletion rescheduled,
// and then erased when the new deadline lapses.
func TestPolicyUpdateAliceScenario(t *testing.T) {
	app, clk := newApp(t, policy.PurposeWebAnalytics)
	iri := "https://alice.pod/web/browsing.csv"
	month := 30 * 24 * time.Hour
	week := 7 * 24 * time.Hour

	if err := app.StoreResource(iri, []byte("x"), webPolicy(month)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * 24 * time.Hour)

	v2 := webPolicy(week).NextVersion(clk.Now())
	v2.MaxRetention = week
	if err := app.ApplyPolicyUpdate(v2); err != nil {
		t.Fatal(err)
	}
	if !app.Holds(iri) {
		t.Fatal("young copy erased by the update")
	}
	if app.PolicyVersion(iri) != 2 {
		t.Fatalf("policy version = %d", app.PolicyVersion(iri))
	}

	// Five more days: day 7 after retrieval, the new deadline lapses.
	clk.Advance(5*24*time.Hour + time.Minute)
	if app.Holds(iri) {
		t.Fatal("copy survived the shortened retention")
	}
}

// TestPolicyUpdateDeleteNow: the update arrives after the new deadline
// already lapsed, so the copy is erased immediately.
func TestPolicyUpdateDeleteNow(t *testing.T) {
	app, clk := newApp(t, policy.PurposeWebAnalytics)
	iri := "https://alice.pod/web/browsing.csv"
	if err := app.StoreResource(iri, []byte("x"), webPolicy(30*24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * 24 * time.Hour)
	v2 := webPolicy(7 * 24 * time.Hour).NextVersion(clk.Now())
	v2.MaxRetention = 7 * 24 * time.Hour
	if err := app.ApplyPolicyUpdate(v2); err != nil {
		t.Fatal(err)
	}
	if app.Holds(iri) {
		t.Fatal("copy survived an update whose deadline had lapsed")
	}
	if _, err := app.Use(iri, policy.ActionUse); !errors.Is(err, ErrDeleted) {
		t.Fatalf("use after erasure: %v", err)
	}
}

// TestPolicyUpdateBobScenario: Bob narrows purposes to academic; an app
// with medical-research purpose has use revoked but an academic app
// continues unaffected.
func TestPolicyUpdateBobScenario(t *testing.T) {
	iri := "https://bob.pod/medical/ds1.ttl"

	t.Run("revoked purpose", func(t *testing.T) {
		app, clk := newApp(t, policy.PurposeMedicalResearch)
		if err := app.StoreResource(iri, []byte("med"), medicalPolicy()); err != nil {
			t.Fatal(err)
		}
		if _, err := app.Use(iri, policy.ActionUse); err != nil {
			t.Fatal(err)
		}
		v2 := medicalPolicy().NextVersion(clk.Now())
		v2.AllowedPurposes = []policy.Purpose{policy.PurposeAcademic}
		if err := app.ApplyPolicyUpdate(v2); err != nil {
			t.Fatal(err)
		}
		if app.PolicyVersion(iri) != 2 {
			t.Fatalf("policy version = %d", app.PolicyVersion(iri))
		}
		if _, err := app.Use(iri, policy.ActionUse); !errors.Is(err, ErrUseRevoked) {
			t.Fatalf("use after revocation: %v", err)
		}
		// The copy itself may remain (no retention obligation).
		if !app.Holds(iri) {
			t.Fatal("revocation should not delete the copy")
		}
	})

	t.Run("still-allowed purpose", func(t *testing.T) {
		app, clk := newApp(t, policy.PurposeAcademic)
		pol := medicalPolicy()
		pol.AllowedPurposes = []policy.Purpose{policy.PurposeMedicalResearch, policy.PurposeAcademic}
		if err := app.StoreResource(iri, []byte("med"), pol); err != nil {
			t.Fatal(err)
		}
		v2 := pol.NextVersion(clk.Now())
		v2.AllowedPurposes = []policy.Purpose{policy.PurposeAcademic}
		if err := app.ApplyPolicyUpdate(v2); err != nil {
			t.Fatal(err)
		}
		if app.PolicyVersion(iri) != 2 || !app.Holds(iri) {
			t.Fatalf("policy version = %d, holds = %t", app.PolicyVersion(iri), app.Holds(iri))
		}
		if _, err := app.Use(iri, policy.ActionUse); err != nil {
			t.Fatalf("allowed purpose blocked after update: %v", err)
		}
	})

	// One update both lapses the deadline and drops the app's purpose: an
	// honest app erases its copy at once; a rogue app keeps it, but its
	// use is still revoked.
	for _, tt := range []struct {
		name      string
		rogue     bool
		wantHolds bool
		wantErr   error
	}{
		{"lapsed deadline and dropped purpose", false, false, ErrDeleted},
		{"rogue app, lapsed deadline and dropped purpose", true, true, ErrUseRevoked},
	} {
		t.Run(tt.name, func(t *testing.T) {
			app, clk := newApp(t, policy.PurposeMedicalResearch)
			app.SetRogue(tt.rogue)
			if err := app.StoreResource(iri, []byte("med"), medicalPolicy()); err != nil {
				t.Fatal(err)
			}
			clk.Advance(2 * time.Hour)
			v2 := medicalPolicy().NextVersion(clk.Now())
			v2.AllowedPurposes = []policy.Purpose{policy.PurposeAcademic}
			v2.MaxRetention = time.Hour
			if err := app.ApplyPolicyUpdate(v2); err != nil {
				t.Fatal(err)
			}
			if app.Holds(iri) != tt.wantHolds {
				t.Fatalf("holds = %t, want %t", app.Holds(iri), tt.wantHolds)
			}
			if _, err := app.Use(iri, policy.ActionUse); !errors.Is(err, tt.wantErr) {
				t.Fatalf("use after update: %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestPolicyUpdateStaleVersionIgnored(t *testing.T) {
	app, clk := newApp(t, policy.PurposeWebAnalytics)
	iri := "https://alice.pod/web/browsing.csv"
	pol := webPolicy(time.Hour)
	pol.Version = 3
	if err := app.StoreResource(iri, []byte("x"), pol); err != nil {
		t.Fatal(err)
	}
	stale := webPolicy(time.Minute)
	stale.Version = 2
	if err := app.ApplyPolicyUpdate(stale); err != nil {
		t.Fatal(err)
	}
	if app.PolicyVersion(iri) != 3 {
		t.Fatal("stale update applied")
	}
	// The stale one-minute retention must not have re-armed the timer.
	clk.Advance(2 * time.Minute)
	if !app.Holds(iri) {
		t.Fatal("stale update's deadline erased the copy")
	}
}

func TestPolicyUpdateForUnknownResource(t *testing.T) {
	app, _ := newApp(t, policy.PurposeWebAnalytics)
	if err := app.ApplyPolicyUpdate(webPolicy(time.Hour)); !errors.Is(err, ErrNoCopy) {
		t.Fatalf("err = %v", err)
	}
}

func TestRogueDeviceKeepsDataAndReportsTruthfully(t *testing.T) {
	app, clk := newApp(t, policy.PurposeWebAnalytics)
	app.SetRogue(true)
	iri := "https://alice.pod/web/browsing.csv"
	if err := app.StoreResource(iri, []byte("x"), webPolicy(time.Hour)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(3 * time.Hour)
	if !app.Holds(iri) {
		t.Fatal("rogue app deleted anyway")
	}
	signed, err := app.Evidence(iri, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !signed.Evidence.StillStored {
		t.Fatal("evidence should truthfully report the copy is still stored")
	}
}

func TestEvidenceSignedAndCapped(t *testing.T) {
	app, _ := newApp(t, policy.PurposeWebAnalytics)
	iri := "https://alice.pod/web/browsing.csv"
	if err := app.StoreResource(iri, []byte("x"), webPolicy(0)); err != nil {
		t.Fatal(err)
	}
	for range maxReportedEntries + 50 {
		if _, err := app.Use(iri, policy.ActionUse); err != nil {
			t.Fatal(err)
		}
	}
	signed, err := app.Evidence(iri, 7)
	if err != nil {
		t.Fatal(err)
	}
	ev := signed.Evidence
	if len(ev.Entries) != maxReportedEntries {
		t.Fatalf("entries = %d, want cap %d", len(ev.Entries), maxReportedEntries)
	}
	if ev.UseCount != uint64(maxReportedEntries+50) {
		t.Fatalf("UseCount = %d", ev.UseCount)
	}
	if ev.Round != 7 || ev.Device != app.Device().Address() {
		t.Fatalf("evidence = %+v", ev)
	}
	// Signature verifies under the device key.
	if err := cryptoutil.VerifyWithAddress(ev.Device, app.Device().Key().PublicBytes(), ev.SigningBytes(), signed.Signature); err != nil {
		t.Fatal("evidence signature invalid")
	}
	if _, err := app.Evidence("https://unknown", 1); !errors.Is(err, ErrNoCopy) {
		t.Fatalf("unknown evidence: %v", err)
	}
}

// parked spins until a WaitPolicyVersion caller is waiting on the app.
func parked(app *App) {
	for {
		app.mu.Lock()
		waiting := app.versionChanged != nil
		app.mu.Unlock()
		if waiting {
			return
		}
		runtime.Gosched()
	}
}

// TestWaitPolicyVersion: the wait is woken by the update that satisfies
// it, sleeps through the ones that do not, and ends with its context.
func TestWaitPolicyVersion(t *testing.T) {
	app, _ := newApp(t, policy.PurposeWebAnalytics)
	pol := webPolicy(time.Hour)
	iri := pol.ResourceIRI
	ctx := context.Background()

	waiting := make(chan error, 1)
	go func() { waiting <- app.WaitPolicyVersion(ctx, iri, 3) }()
	parked(app) // before the copy even exists
	if err := app.StoreResource(iri, []byte("x"), pol); err != nil {
		t.Fatal(err)
	}
	if err := app.WaitPolicyVersion(ctx, iri, 1); err != nil {
		t.Fatalf("version already enforced: %v", err)
	}
	for v := uint64(2); v <= 3; v++ {
		parked(app) // woken by the previous change, found it short, waiting again
		select {
		case err := <-waiting:
			t.Fatalf("wait for v3 returned %v at v%d", err, v-1)
		default:
		}
		next := pol.Clone()
		next.Version = v
		if err := app.ApplyPolicyUpdate(next); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-waiting; err != nil {
		t.Fatalf("wait for v3: %v", err)
	}
	app.mu.Lock()
	left := app.versionChanged
	app.mu.Unlock()
	if left != nil {
		t.Fatal("a wake-up channel outlived its waiters")
	}

	ctx, cancel := context.WithCancel(ctx)
	go func() { waiting <- app.WaitPolicyVersion(ctx, iri, 9) }()
	parked(app)
	cancel()
	if err := <-waiting; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait returned %v", err)
	}
}
