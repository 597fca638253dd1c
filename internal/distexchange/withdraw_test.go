package distexchange

import (
	"context"
	"testing"

	"repro/internal/policy"
)

func TestWithdrawResourceLifecycle(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	iri := f.registerAlicePodAndResource(alicePolicy())
	f.registerDevice()
	f.grantAndRetrieve(iri, policy.PurposeWebAnalytics)

	// Non-owner cannot withdraw.
	if _, err := f.bob.WithdrawResource(ctx, iri); err == nil {
		t.Fatal("non-owner withdrawal accepted")
	}
	// Unknown resource reverts.
	if _, err := f.alice.WithdrawResource(ctx, "https://missing"); err == nil {
		t.Fatal("unknown withdrawal accepted")
	}

	if _, err := f.alice.WithdrawResource(ctx, iri); err != nil {
		t.Fatal(err)
	}
	// Double withdrawal reverts.
	if _, err := f.alice.WithdrawResource(ctx, iri); err == nil {
		t.Fatal("double withdrawal accepted")
	}

	// The record survives (marked withdrawn) so monitoring continues.
	rec, err := f.alice.GetResource(iri)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Withdrawn {
		t.Fatal("record not marked withdrawn")
	}
	round, err := f.alice.RequestMonitoring(ctx, iri)
	if err != nil {
		t.Fatal(err)
	}
	if len(round.Targets) != 1 {
		t.Fatalf("existing holder lost from monitoring: %+v", round)
	}

	// The listing no longer holds it.
	all, err := f.device.ListResources()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 0 {
		t.Fatalf("withdrawn resource still listed: %+v", all)
	}

	// New grants are refused.
	if _, err := f.alice.RecordGrant(ctx, RecordGrantArgs{
		ResourceIRI: iri, Consumer: f.device.Address(), Device: f.device.Address(),
		Purpose: policy.PurposeWebAnalytics,
	}); err == nil {
		t.Fatal("grant on withdrawn resource accepted")
	}
}
