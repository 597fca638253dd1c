package core

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/podmanager"
	"repro/internal/policy"
	"repro/internal/solid"
	"repro/internal/tee"
)

// TestAttestationGatedAccess verifies the Section III-C rule: with
// RequireAttestation on, only requests generated by an attested trusted
// application can retrieve published resources, even with a valid payment
// certificate.
func TestAttestationGatedAccess(t *testing.T) {
	d := newDeployment(t, Config{RequireAttestation: true})
	ctx := context.Background()

	owner, err := d.NewOwner("owner")
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.InitializePod(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if err := owner.AddResource("/data/r.csv", "text/csv", []byte("a,b")); err != nil {
		t.Fatal(err)
	}
	iri, err := owner.Publish(ctx, "/data/r.csv", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	consumer, err := d.NewConsumer("reader", policy.PurposeAny)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.Grant(ctx, consumer, "/data/r.csv", policy.PurposeAny); err != nil {
		t.Fatal(err)
	}

	t.Run("full access path with quote succeeds", func(t *testing.T) {
		if err := consumer.Access(ctx, iri); err != nil {
			t.Fatal(err)
		}
		if !consumer.App.Holds(iri) {
			t.Fatal("copy not stored")
		}
	})

	t.Run("certificate without quote is rejected", func(t *testing.T) {
		cert, err := d.Market.PayFee(string(consumer.WebID), iri)
		if err != nil {
			t.Fatal(err)
		}
		decorate, err := podmanager.AttachCertificate(cert)
		if err != nil {
			t.Fatal(err)
		}
		client := solid.NewClient(consumer.WebID, consumer.Key, d.Clock)
		client.Decorate = decorate // no quote
		_, _, err = client.Get(iri)
		var status *solid.StatusError
		if !errors.As(err, &status) || !strings.Contains(status.Body, "attestation") {
			t.Fatalf("quote-less access: %v", err)
		}
	})

	t.Run("quote from wrong application measurement is rejected", func(t *testing.T) {
		// Provision a device running different (unpinned) code.
		now := d.Clock.Now()
		rogueDev, err := d.Manufacturer.Provision(
			tee.MeasurementOf("modified-exfiltration-app"), now, now.Add(24*time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		cert, err := d.Market.PayFee(string(consumer.WebID), iri)
		if err != nil {
			t.Fatal(err)
		}
		decorate, err := podmanager.AttachCertificate(cert)
		if err != nil {
			t.Fatal(err)
		}
		client := solid.NewClient(consumer.WebID, consumer.Key, d.Clock)
		client.Decorate = podmanager.Decorators(decorate, podmanager.AttachTEEQuote(rogueDev))
		_, _, err = client.Get(iri)
		var status *solid.StatusError
		if !errors.As(err, &status) || !strings.Contains(status.Body, "attestation") {
			t.Fatalf("wrong-measurement access: %v", err)
		}
	})

	t.Run("replayed quote for a different request is rejected", func(t *testing.T) {
		// A quote is bound to the request's date header; a fixed stale
		// quote replayed on a new request fails the nonce check.
		quoteOnce := podmanager.AttachTEEQuote(consumer.Device)
		cert, err := d.Market.PayFee(string(consumer.WebID), iri)
		if err != nil {
			t.Fatal(err)
		}
		decorate, err := podmanager.AttachCertificate(cert)
		if err != nil {
			t.Fatal(err)
		}
		var stolenQuote string
		client := solid.NewClient(consumer.WebID, consumer.Key, d.Clock)
		client.Decorate = podmanager.Decorators(decorate, quoteOnce, func(r *http.Request) {
			stolenQuote = r.Header.Get(podmanager.HeaderTEEQuote)
		})
		if _, _, err := client.Get(iri); err != nil {
			t.Fatal(err)
		}
		// Replay the captured quote verbatim; the new request has a new
		// date, so the nonce no longer matches.
		replay := solid.NewClient(consumer.WebID, consumer.Key, d.Clock)
		replay.Decorate = podmanager.Decorators(decorate, func(r *http.Request) {
			r.Header.Set(podmanager.HeaderTEEQuote, stolenQuote)
		})
		d.Clock.Advance(time.Second) // ensure the date differs
		_, _, err = replay.Get(iri)
		var status *solid.StatusError
		if !errors.As(err, &status) || !strings.Contains(status.Body, "attestation") {
			t.Fatalf("replayed quote: %v", err)
		}
	})
}

// TestAttestationNotRequiredByDefault keeps backwards compatibility:
// deployments without the flag accept certificate-only access.
func TestAttestationNotRequiredByDefault(t *testing.T) {
	d := newDeployment(t, Config{})
	ctx := context.Background()
	owner, err := d.NewOwner("owner")
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.InitializePod(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if err := owner.AddResource("/data/r.csv", "text/csv", []byte("a")); err != nil {
		t.Fatal(err)
	}
	iri, err := owner.Publish(ctx, "/data/r.csv", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	consumer, err := d.NewConsumer("reader", policy.PurposeAny)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.Grant(ctx, consumer, "/data/r.csv", policy.PurposeAny); err != nil {
		t.Fatal(err)
	}
	cert, err := d.Market.PayFee(string(consumer.WebID), iri)
	if err != nil {
		t.Fatal(err)
	}
	decorate, err := podmanager.AttachCertificate(cert)
	if err != nil {
		t.Fatal(err)
	}
	client := solid.NewClient(consumer.WebID, consumer.Key, d.Clock)
	client.Decorate = decorate
	if _, _, err := client.Get(iri); err != nil {
		t.Fatalf("certificate-only access without attestation requirement: %v", err)
	}
}

// TestStolenQuoteOtherAgentRefused: a quote attests one request of one
// agent. Consumer B, paid and granted but attaching no quote of its own,
// signs a GET with the same X-Date as consumer A's attested GET and
// splices in A's captured X-TEE-Quote. When the quote's nonce was the date
// string, which the requester chooses, that request was served.
func TestStolenQuoteOtherAgentRefused(t *testing.T) {
	d := newDeployment(t, Config{RequireAttestation: true})
	ctx := context.Background()
	owner, iri := ownerWithResource(d, "owner", 64, nil)
	alice := must(d.NewConsumer("alice", policy.PurposeAny))
	bob := must(d.NewConsumer("bob", policy.PurposeAny))
	for _, c := range []*Consumer{alice, bob} {
		must0(owner.Grant(ctx, c, "/data/r.bin", policy.PurposeAny))
	}
	attached := func(c *Consumer, more ...func(*http.Request)) *solid.Client {
		client := solid.NewClient(c.WebID, c.Key, d.Clock)
		decorate := must(podmanager.AttachCertificate(must(d.Market.PayFee(string(c.WebID), iri))))
		client.Decorate = podmanager.Decorators(append([]func(*http.Request){decorate}, more...)...)
		return client
	}

	var date, quote string
	victim := attached(alice, podmanager.AttachTEEQuote(alice.Device), func(r *http.Request) {
		date, quote = r.Header.Get(solid.HeaderDate), r.Header.Get(podmanager.HeaderTEEQuote)
	})
	if _, _, err := victim.Get(iri); err != nil || quote == "" {
		t.Fatalf("attested GET: %v (quote %q)", err, quote)
	}

	thief := attached(bob, func(r *http.Request) {
		if got := r.Header.Get(solid.HeaderDate); got != date {
			t.Fatalf("the thief's request is dated %s, want the victim's %s", got, date)
		}
		r.Header.Set(podmanager.HeaderTEEQuote, quote)
	})
	_, _, err := thief.Get(iri)
	if !forbidden(podmanager.ErrAttestation)(err) {
		t.Fatalf("GET with another agent's quote: %v, want 403 %v", err, podmanager.ErrAttestation)
	}
	// Bob is refused for the quote alone: with his own device's quote the
	// same GET is served.
	if _, _, err := attached(bob, podmanager.AttachTEEQuote(bob.Device)).Get(iri); err != nil {
		t.Fatalf("GET with bob's own quote: %v", err)
	}
}
