package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/distexchange"
	"repro/internal/policy"
)

// TestGrantRejectedForDisallowedPurpose: the DE App refuses to record a
// grant whose declared purpose the policy forbids, so the owner finds out
// at grant time, not at monitoring time.
func TestGrantRejectedForDisallowedPurpose(t *testing.T) {
	s := newScenario(t, Config{})
	ctx := context.Background()
	// Bob's medical policy allows only medical-research; granting the web
	// analyst (web-analytics purpose) must fail on-chain.
	err := s.bob.Grant(ctx, s.bobAsCon, "/medical/ds1.ttl", policy.PurposeWebAnalytics)
	if err == nil {
		t.Fatal("grant with disallowed purpose accepted")
	}
	var revert *distexchange.RevertError
	if !errors.As(err, &revert) || !strings.Contains(revert.Reason, "not permitted") {
		t.Fatalf("err = %v", err)
	}
}

// TestConsumerCatalogAndIndexErrors covers the read-side error paths of
// resource indexing.
func TestConsumerCatalogAndIndexErrors(t *testing.T) {
	s := newScenario(t, Config{})
	if _, err := s.aliceAsCon.Index("https://nonexistent/resource"); err == nil {
		t.Fatal("index of unknown resource succeeded")
	}
	catalog, err := s.aliceAsCon.DE.ListResources()
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, rec := range catalog {
		found[rec.ResourceIRI] = true
	}
	if !found[s.browsingIRI] || !found[s.medicalIRI] {
		t.Fatalf("catalog missing scenario resources: %v", found)
	}
}

// TestAccessIdempotenceRejected: a second Access for the same (consumer,
// resource) fails because the TEE already holds a live copy.
func TestAccessIdempotenceRejected(t *testing.T) {
	s := newScenario(t, Config{})
	ctx := context.Background()
	if err := s.alice.Grant(ctx, s.bobAsCon, "/web/browsing.csv", policy.PurposeWebAnalytics); err != nil {
		t.Fatal(err)
	}
	if err := s.bobAsCon.Access(ctx, s.browsingIRI); err != nil {
		t.Fatal(err)
	}
	if err := s.bobAsCon.Access(ctx, s.browsingIRI); err == nil {
		t.Fatal("double access accepted")
	}
}

// TestMarketSettlementThroughDeployment verifies the core wiring of
// resource attribution: accesses through Consumer.Access accrue to the
// publishing owner.
func TestMarketSettlementThroughDeployment(t *testing.T) {
	s := newScenario(t, Config{})
	ctx := context.Background()
	if err := s.alice.Grant(ctx, s.bobAsCon, "/web/browsing.csv", policy.PurposeWebAnalytics); err != nil {
		t.Fatal(err)
	}
	if err := s.bobAsCon.Access(ctx, s.browsingIRI); err != nil {
		t.Fatal(err)
	}
	payouts, err := s.d.Market.Settle(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(payouts) != 1 || payouts[0].OwnerWebID != string(s.alice.WebID) || payouts[0].Accesses != 1 {
		t.Fatalf("payouts = %+v", payouts)
	}
	if _, earned, _ := s.d.Market.Totals(); earned != payouts[0].Amount || earned == 0 {
		t.Fatalf("owners earned %d, payout %+v", earned, payouts[0])
	}
}

// TestUnpublishLifecycle: withdrawing a resource removes it from the
// catalog and blocks new consumers, while an existing holder keeps its
// copy and remains monitorable.
func TestUnpublishLifecycle(t *testing.T) {
	s := newScenario(t, Config{})
	ctx := context.Background()

	if err := s.alice.Grant(ctx, s.bobAsCon, "/web/browsing.csv", policy.PurposeWebAnalytics); err != nil {
		t.Fatal(err)
	}
	if err := s.bobAsCon.Access(ctx, s.browsingIRI); err != nil {
		t.Fatal(err)
	}
	if err := s.alice.Unpublish(ctx, "/web/browsing.csv"); err != nil {
		t.Fatal(err)
	}
	// Catalog shrinks to Bob's resource only.
	catalog, err := s.aliceAsCon.DE.ListResources()
	if err != nil {
		t.Fatal(err)
	}
	if len(catalog) != 1 || catalog[0].ResourceIRI != s.medicalIRI {
		t.Fatalf("catalog = %+v", catalog)
	}
	// New grants refused.
	late, err := s.d.NewConsumer("latecomer", policy.PurposeWebAnalytics)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.alice.Grant(ctx, late, "/web/browsing.csv", policy.PurposeWebAnalytics); err == nil {
		t.Fatal("grant on withdrawn resource accepted")
	}
	// Existing holder still monitored.
	evidence, violations, err := s.alice.Monitor(ctx, "/web/browsing.csv")
	if err != nil {
		t.Fatal(err)
	}
	if len(evidence) != 1 || len(violations) != 0 {
		t.Fatalf("monitor after unpublish: evidence=%d violations=%d", len(evidence), len(violations))
	}
	// Unpublishing twice fails (no longer published).
	if err := s.alice.Unpublish(ctx, "/web/browsing.csv"); err == nil {
		t.Fatal("double unpublish accepted")
	}
}

// TestRetrievalConfirmationTimestamp: the on-chain RetrievedAt is the
// block time of the confirmation, which anchors retention deadlines.
func TestRetrievalConfirmationTimestamp(t *testing.T) {
	s := newScenario(t, Config{})
	ctx := context.Background()
	if err := s.alice.Grant(ctx, s.bobAsCon, "/web/browsing.csv", policy.PurposeWebAnalytics); err != nil {
		t.Fatal(err)
	}
	s.d.Clock.Advance(3 * time.Hour)
	before := s.d.Clock.Now()
	if err := s.bobAsCon.Access(ctx, s.browsingIRI); err != nil {
		t.Fatal(err)
	}
	grants, err := s.alice.Manager.DE().GetGrants(s.browsingIRI)
	if err != nil {
		t.Fatal(err)
	}
	if grants[0].RetrievedAt.Before(before) {
		t.Fatalf("RetrievedAt = %s, want >= %s", grants[0].RetrievedAt, before)
	}
}
