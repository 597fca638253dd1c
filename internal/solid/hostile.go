package solid

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simclock"
)

// This file holds hostile-client helpers for adversarial testing: they
// let a test play an attacker who has captured a legitimately signed
// request off the wire (replaying it verbatim, or re-aiming it at a
// different resource) or who burns nonces in bulk trying to starve other
// agents' replay protection. They live in the package proper — not a
// _test file — so the scenario engine can drive them, but they hold no
// server-side power: everything here works purely through the public
// HTTP surface with materials a network eavesdropper would have.

// CapturedRequest is a fully signed request frozen at capture time: the
// headers (signature, date, nonce) are replayed verbatim on every Send,
// exactly as a wire eavesdropper would resend them. The server's replay
// guard must accept the first delivery and 401 every subsequent one.
type CapturedRequest struct {
	// Method and URL are the captured request line.
	Method string
	URL    string
	header http.Header
}

// Capture signs a request as agent and freezes it without sending. An
// explicit nonce keeps captures deterministic for seeded scenarios; an
// empty nonce mints a random one.
func Capture(agent WebID, key *cryptoutil.KeyPair, clock simclock.Clock, method, resourceURL, nonce string) (*CapturedRequest, error) {
	if nonce == "" {
		var err error
		if nonce, err = newNonce(); err != nil {
			return nil, err
		}
	}
	u, err := url.Parse(resourceURL)
	if err != nil {
		return nil, err
	}
	now := simclock.Clock(simclock.Real{})
	if clock != nil {
		now = clock
	}
	date := now.Now().UTC().Format(time.RFC3339Nano)
	sig, err := key.Sign(signingString(method, u.Path, date, nonce))
	if err != nil {
		return nil, err
	}
	h := make(http.Header)
	h.Set(HeaderAgent, string(agent))
	h.Set(HeaderDate, date)
	h.Set(HeaderNonce, nonce)
	h.Set(HeaderSignature, base64.StdEncoding.EncodeToString(sig))
	return &CapturedRequest{Method: method, URL: resourceURL, header: h}, nil
}

// Decorate adds a header to the frozen request (e.g. a stolen market
// certificate), mimicking an attacker splicing captured credentials
// together. The auth signature is NOT recomputed — that is the point.
func (cr *CapturedRequest) Decorate(fn func(*http.Request)) *CapturedRequest {
	req := &http.Request{Header: cr.header}
	fn(req)
	return cr
}

// Send replays the frozen request verbatim and returns the status code.
func (cr *CapturedRequest) Send(hc *http.Client) (int, error) {
	return cr.SendTo(hc, cr.URL)
}

// SendTo replays the frozen headers against a different URL — the
// cross-resource splice attack (a signature over one path presented for
// another). The server must refuse: the path is part of the signed
// string.
func (cr *CapturedRequest) SendTo(hc *http.Client, targetURL string) (int, error) {
	req, err := http.NewRequest(cr.Method, targetURL, nil)
	if err != nil {
		return 0, err
	}
	req.Header = cr.header.Clone()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// FloodNonces fires n freshly signed requests from agent at resourceURL,
// nonces "prefix-0" … "prefix-n-1", and returns how many authenticated
// (any status but 401). Per-agent nonce eviction means the flood may
// only ever weaken the flooding agent's own replay protection: every
// request here must authenticate, and other agents' captured nonces must
// still be remembered afterwards.
func FloodNonces(hc *http.Client, agent WebID, key *cryptoutil.KeyPair, clock simclock.Clock, resourceURL string, n int, prefix string) (authenticated int, err error) {
	for i := 0; i < n; i++ {
		cr, err := Capture(agent, key, clock, http.MethodGet, resourceURL, fmt.Sprintf("%s-%d", prefix, i))
		if err != nil {
			return authenticated, err
		}
		status, err := cr.Send(hc)
		if err != nil {
			return authenticated, err
		}
		if status != http.StatusUnauthorized {
			authenticated++
		}
	}
	return authenticated, nil
}
