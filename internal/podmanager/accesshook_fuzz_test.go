package podmanager

import (
	"context"
	"encoding/base64"
	"net/http"
	"testing"
	"time"

	"repro/internal/market"
	"repro/internal/policy"
	"repro/internal/solid"
	"repro/internal/tee"
)

// FuzzAccessHook feeds arbitrary market-certificate, TEE-quote and
// request-signature headers, agent, path and mode to the pod manager's
// access hook (accessHook and checkAttestation), on a manager with one
// published resource and attestation required. It may not panic. A
// consumer's read of the published resource is accepted only with a
// certificate that market.Verifier.Check accepts for that agent's key
// and the resource's IRI, and a quote that verifies under the
// manufacturer CA with that request signature as its nonce; a consumer's
// write to it is never accepted. The corpus is seeded with one valid
// request and with variants that each break one header.
func FuzzAccessHook(f *testing.F) {
	e := newEnv(f)
	iri := e.publish(browsingPolicy())
	e.registerDevice()
	const path = "/web/browsing.csv"
	if err := e.mgr.GrantAccess(context.Background(), bobWebID, e.bobKey.Address(), e.devKey.Address(),
		path, policy.PurposeWebAnalytics); err != nil {
		f.Fatal(err)
	}
	if err := e.mkt.Register(string(bobWebID), "bob@example.org", e.bobKey.Address(), e.bobKey.PublicBytes()); err != nil {
		f.Fatal(err)
	}
	if err := e.mkt.Subscribe(string(bobWebID), market.PlanBasic); err != nil {
		f.Fatal(err)
	}
	cert, err := e.mkt.PayFee(string(bobWebID), iri)
	if err != nil {
		f.Fatal(err)
	}
	withCert, err := AttachCertificate(cert)
	if err != nil {
		f.Fatal(err)
	}
	mfr, err := tee.NewManufacturer()
	if err != nil {
		f.Fatal(err)
	}
	dev, err := mfr.Provision(tee.MeasurementOf("fuzz-app"), t0, t0.Add(365*24*time.Hour))
	if err != nil {
		f.Fatal(err)
	}
	caKey := mfr.CAPublicBytes()
	e.mgr.tee = &TEERequirement{CAKey: caKey}

	// Two served, attested GETs give two valid header sets.
	type headers struct{ cert, quote, sig string }
	signed := func() headers {
		var req *http.Request
		bob := solid.NewClient(bobWebID, e.bobKey, e.clk)
		bob.Decorate = Decorators(withCert, AttachTEEQuote(dev), func(r *http.Request) { req = r })
		if _, _, err := bob.Get(e.srv.URL + path); err != nil {
			f.Fatal(err)
		}
		return headers{req.Header.Get(HeaderMarketCertificate), req.Header.Get(HeaderTEEQuote), req.Header.Get(solid.HeaderSignature)}
	}
	a, b := signed(), signed()
	flip := func(s string) string { // one character changed, still base64
		r := []byte(s)
		if r[len(r)/2] == 'A' {
			r[len(r)/2] = 'B'
		} else {
			r[len(r)/2] = 'A'
		}
		return string(r)
	}
	bob, read := string(bobWebID), string(solid.ModeRead)
	for _, seed := range []struct{ cert, quote, sig, agent, path, mode string }{
		{a.cert, a.quote, a.sig, bob, path, read},
		{"", a.quote, a.sig, bob, path, read},
		{flip(a.cert), a.quote, a.sig, bob, path, read},
		{"%%%", a.quote, a.sig, bob, path, read},
		{a.cert, "", a.sig, bob, path, read},
		{a.cert, flip(a.quote), a.sig, bob, path, read},
		{a.cert, b.quote, a.sig, bob, path, read},
		{a.cert, a.quote, "", bob, path, read},
		{a.cert, a.quote, b.sig, bob, path, read},
		{a.cert, a.quote, a.sig, "https://mallory.example/profile#me", path, read},
		{a.cert, a.quote, a.sig, bob, path, string(solid.ModeWrite)},
		{a.cert, a.quote, a.sig, bob, "/web/other.csv", read},
		{"", "", "", string(aliceWebID), path, read},
	} {
		f.Add(seed.cert, seed.quote, seed.sig, seed.agent, seed.path, seed.mode)
	}

	request := func(certHeader, quoteHeader, sigHeader string) *http.Request {
		h := http.Header{}
		h.Set(HeaderMarketCertificate, certHeader)
		h.Set(HeaderTEEQuote, quoteHeader)
		h.Set(solid.HeaderSignature, sigHeader)
		return &http.Request{Header: h}
	}
	// The acceptance check below is not vacuous: the valid request passes.
	if err := e.mgr.accessHook(request(a.cert, a.quote, a.sig), bobWebID, path, solid.ModeRead); err != nil {
		f.Fatalf("the valid request is refused: %v", err)
	}

	verifier := market.VerifierFor(e.mkt)
	f.Fuzz(func(t *testing.T, certHeader, quoteHeader, sigHeader, agent, reqPath, mode string) {
		r := request(certHeader, quoteHeader, sigHeader)
		if err := e.mgr.accessHook(r, solid.WebID(agent), reqPath, solid.AccessMode(mode)); err != nil {
			return
		}
		if solid.WebID(agent) == aliceWebID || e.mgr.ResourceIRI(reqPath) != iri {
			return // the owner, or no published resource: WAC decides
		}
		if solid.AccessMode(mode) != solid.ModeRead {
			t.Fatalf("consumer %q accepted for %q on the published resource", agent, mode)
		}
		now := e.clk.Now()
		certRaw, err := base64.StdEncoding.DecodeString(certHeader)
		if err != nil {
			t.Fatalf("accepted a certificate header that is not base64: %v", err)
		}
		key, ok := e.dir.KeyFor(solid.WebID(agent))
		if !ok {
			t.Fatalf("accepted agent %q, whom the directory does not know", agent)
		}
		if err := verifier.Check(certRaw, key, iri, now); err != nil {
			t.Fatalf("accepted a certificate the market verifier refuses: %v", err)
		}
		quoteRaw, err := base64.StdEncoding.DecodeString(quoteHeader)
		if err != nil {
			t.Fatalf("accepted a quote header that is not base64: %v", err)
		}
		quote, err := tee.DecodeQuote(quoteRaw)
		if err != nil {
			t.Fatalf("accepted a quote that does not decode: %v", err)
		}
		if sigHeader == "" {
			t.Fatal("accepted a quote with no request signature to bind it to")
		}
		if _, err := tee.VerifyQuote(quote, caKey, []byte(sigHeader), nil, now); err != nil {
			t.Fatalf("accepted a quote not bound to the request signature: %v", err)
		}
	})
}
