package tee

import (
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/simclock"
)

// TestPolicyUpdateCancelsStaleDeletionTimer: a policy update that drops
// the retention deadline used to leave the previous version's deletion
// timer armed, so the copy was erased at the *old* deadline even though
// the new policy allows keeping it. The scenario engine's
// retention-enforcement invariant caught the mismatch across a clock
// skip; applying an update must re-arm (and thereby cancel) the timer
// against the new policy.
func TestPolicyUpdateCancelsStaleDeletionTimer(t *testing.T) {
	start := time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC)
	clk := simclock.NewSim(start)
	app, iri := newAppWithCopy(t, clk, func(p *policy.Policy) {
		p.MaxRetention = 7 * 24 * time.Hour
	})

	// v2 removes the retention bound entirely.
	v2 := policy.New(iri, "https://owner.example/profile#me", clk.Now())
	v2.Version = 2
	if err := app.ApplyPolicyUpdate(v2); err != nil {
		t.Fatal(err)
	}

	// Cross the old deadline: the copy must survive under v2.
	clk.Advance(8 * 24 * time.Hour)
	if !app.Holds(iri) {
		t.Fatal("copy deleted at the old deadline despite the new policy having none")
	}
	if _, err := app.Use(iri, policy.ActionUse); err != nil {
		t.Fatalf("use under the deadline-free policy: %v", err)
	}
}

// TestPolicyUpdateExtendsDeadline: lengthening retention must move the
// deletion to the new (later) deadline — not fire at the old one, not
// linger past the new one.
func TestPolicyUpdateExtendsDeadline(t *testing.T) {
	start := time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC)
	clk := simclock.NewSim(start)
	app, iri := newAppWithCopy(t, clk, func(p *policy.Policy) {
		p.MaxRetention = 2 * 24 * time.Hour
	})

	v2 := policy.New(iri, "https://owner.example/profile#me", clk.Now())
	v2.Version = 2
	v2.MaxRetention = 9 * 24 * time.Hour
	if err := app.ApplyPolicyUpdate(v2); err != nil {
		t.Fatal(err)
	}

	clk.Advance(3 * 24 * time.Hour) // past old deadline, before new
	if !app.Holds(iri) {
		t.Fatal("copy deleted at the superseded (shorter) deadline")
	}
	clk.Advance(7 * 24 * time.Hour) // past the new deadline
	if app.Holds(iri) {
		t.Fatal("copy survived the extended deadline")
	}
}

// newAppWithCopy provisions an attested device + app holding one copy of
// a resource governed by the mutated policy.
func newAppWithCopy(t *testing.T, clk *simclock.Sim, mutate func(*policy.Policy)) (*App, string) {
	t.Helper()
	manufacturer, err := NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	now := clk.Now()
	device, err := manufacturer.Provision(MeasurementOf("app"), now, now.Add(100*365*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	app := NewApp(device, policy.PurposeAny, clk)
	const iri = "https://owner.pod/data/r.bin"
	pol := policy.New(iri, "https://owner.example/profile#me", now)
	if mutate != nil {
		mutate(pol)
	}
	if err := app.StoreResource(iri, []byte("payload"), pol); err != nil {
		t.Fatal(err)
	}
	return app, iri
}
