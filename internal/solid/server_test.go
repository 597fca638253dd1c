package solid

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simclock"
)

// testEnv wires a pod server with Alice (owner) and Bob (consumer) agents.
type testEnv struct {
	srv      *httptest.Server
	pod      *Pod
	clk      *simclock.Sim
	alice    *Client
	bob      *Client
	bobKey   *cryptoutil.KeyPair
	aliceKey *cryptoutil.KeyPair
	dir      *MapDirectory
}

func newTestEnv(t *testing.T, hook AccessHook) *testEnv {
	t.Helper()
	clk := simclock.NewSim(podEpoch)
	pod := NewPod(aliceID, "https://alice.pod")
	dir := NewMapDirectory()
	aliceKey := cryptoutil.MustGenerateKey()
	bobKey := cryptoutil.MustGenerateKey()
	dir.Register(aliceID, aliceKey.PublicBytes())
	dir.Register(bobID, bobKey.PublicBytes())

	server := NewServer(pod, dir, clk, hook)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)

	alice := NewClient(aliceID, aliceKey, clk)
	bob := NewClient(bobID, bobKey, clk)
	return &testEnv{
		srv: srv, pod: pod, clk: clk,
		alice: alice, bob: bob,
		aliceKey: aliceKey, bobKey: bobKey, dir: dir,
	}
}

func (e *testEnv) url(p string) string { return e.srv.URL + p }

func TestServerOwnerPutGetDelete(t *testing.T) {
	e := newTestEnv(t, nil)
	if err := e.alice.Put(e.url("/web/browsing.csv"), "text/csv", []byte("a,b,c")); err != nil {
		t.Fatal(err)
	}
	data, ct, err := e.alice.Get(e.url("/web/browsing.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "a,b,c" || ct != "text/csv" {
		t.Fatalf("got %q (%s)", data, ct)
	}
	if err := e.alice.Delete(e.url("/web/browsing.csv")); err != nil {
		t.Fatal(err)
	}
	_, _, err = e.alice.Get(e.url("/web/browsing.csv"))
	var status *StatusError
	if !errors.As(err, &status) || status.Code != http.StatusNotFound {
		t.Fatalf("after delete: %v", err)
	}
}

func TestServerAuthorizationEnforced(t *testing.T) {
	e := newTestEnv(t, nil)
	if err := e.alice.Put(e.url("/secret.txt"), "text/plain", []byte("s")); err != nil {
		t.Fatal(err)
	}
	_, _, err := e.bob.Get(e.url("/secret.txt"))
	var status *StatusError
	if !errors.As(err, &status) || status.Code != http.StatusForbidden {
		t.Fatalf("bob read secret: %v", err)
	}

	// Grant Bob read via ACL, then he can fetch it.
	acl := NewACL(aliceID, "/secret.txt")
	acl.Grant("bob", []WebID{bobID}, "/secret.txt", false, ModeRead)
	if err := e.pod.SetACL(aliceID, "/secret.txt", acl); err != nil {
		t.Fatal(err)
	}
	data, _, err := e.bob.Get(e.url("/secret.txt"))
	if err != nil || string(data) != "s" {
		t.Fatalf("bob after grant: %q, %v", data, err)
	}
}

func TestServerAnonymousAccess(t *testing.T) {
	e := newTestEnv(t, nil)
	if err := e.alice.Put(e.url("/pub/data.txt"), "text/plain", []byte("open")); err != nil {
		t.Fatal(err)
	}
	acl := NewACL(aliceID, "/pub/")
	acl.GrantPublic("world", "/pub/", true, ModeRead)
	if err := e.pod.SetACL(aliceID, "/pub/", acl); err != nil {
		t.Fatal(err)
	}
	anon := &Client{Clock: e.clk}
	data, _, err := anon.Get(e.url("/pub/data.txt"))
	if err != nil || string(data) != "open" {
		t.Fatalf("anonymous public read: %q, %v", data, err)
	}
	if _, _, err := anon.Get(e.url("/else.txt")); err == nil {
		t.Fatal("anonymous read outside public area succeeded")
	}
}

func TestServerRejectsBadAuthentication(t *testing.T) {
	e := newTestEnv(t, nil)
	if err := e.alice.Put(e.url("/r.txt"), "text/plain", []byte("x")); err != nil {
		t.Fatal(err)
	}

	get := func(mutate func(*http.Request)) int {
		req, err := e.alice.newRequest(http.MethodGet, e.url("/r.txt"), nil)
		if err != nil {
			t.Fatal(err)
		}
		mutate(req)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	tests := []struct {
		name   string
		mutate func(*http.Request)
	}{
		{"tampered signature", func(r *http.Request) { r.Header.Set(HeaderSignature, "AAAA") }},
		{"missing date", func(r *http.Request) { r.Header.Del(HeaderDate) }},
		{"unknown agent", func(r *http.Request) { r.Header.Set(HeaderAgent, string(eveID)) }},
		{"stale date", func(r *http.Request) {
			old := podEpoch.Add(-time.Hour).Format(time.RFC3339Nano)
			r.Header.Set(HeaderDate, old)
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if code := get(tt.mutate); code != http.StatusUnauthorized {
				t.Fatalf("status = %d, want 401", code)
			}
		})
	}
}

func TestServerImpersonationFails(t *testing.T) {
	e := newTestEnv(t, nil)
	if err := e.alice.Put(e.url("/secret.txt"), "text/plain", []byte("s")); err != nil {
		t.Fatal(err)
	}
	// Eve signs with her own key but claims to be Alice.
	eveKey := cryptoutil.MustGenerateKey()
	eve := NewClient(aliceID, eveKey, e.clk)
	_, _, err := eve.Get(e.url("/secret.txt"))
	var status *StatusError
	if !errors.As(err, &status) || status.Code != http.StatusUnauthorized {
		t.Fatalf("impersonation: %v", err)
	}
}

func TestServerReplayedSignatureForOtherPathFails(t *testing.T) {
	e := newTestEnv(t, nil)
	if err := e.alice.Put(e.url("/a.txt"), "text/plain", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := e.alice.Put(e.url("/b.txt"), "text/plain", []byte("b")); err != nil {
		t.Fatal(err)
	}
	// Capture a valid signed request for /a.txt, replay its signature on
	// /b.txt: path is part of the signed string, so it must fail.
	reqA, err := e.bob.newRequest(http.MethodGet, e.url("/a.txt"), nil)
	if err != nil {
		t.Fatal(err)
	}
	reqB, err := http.NewRequest(http.MethodGet, e.url("/b.txt"), nil)
	if err != nil {
		t.Fatal(err)
	}
	reqB.Header = reqA.Header.Clone()
	resp, err := http.DefaultClient.Do(reqB)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("replayed signature status = %d, want 401", resp.StatusCode)
	}
}

func TestServerContainerListing(t *testing.T) {
	e := newTestEnv(t, nil)
	for _, p := range []string{"/dir/a.txt", "/dir/b.txt"} {
		if err := e.alice.Put(e.url(p), "text/plain", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	doc, ct, err := e.alice.Get(e.url("/dir/"))
	if err != nil {
		t.Fatal(err)
	}
	if ct != "text/turtle" {
		t.Fatalf("content type = %s", ct)
	}
	if !strings.Contains(string(doc), "a.txt") || !strings.Contains(string(doc), "ldp:contains") {
		t.Fatalf("listing:\n%s", doc)
	}
}

func TestServerAccessHook(t *testing.T) {
	denied := errors.New("certificate required")
	hook := func(r *http.Request, agent WebID, path string, mode AccessMode) error {
		if agent == bobID && r.Header.Get("X-Market-Certificate") == "" {
			return denied
		}
		return nil
	}
	e := newTestEnv(t, hook)
	if err := e.alice.Put(e.url("/market/data.csv"), "text/csv", []byte("x")); err != nil {
		t.Fatal(err)
	}
	acl := NewACL(aliceID, "/market/data.csv")
	acl.Grant("bob", []WebID{bobID}, "/market/data.csv", false, ModeRead)
	if err := e.pod.SetACL(aliceID, "/market/data.csv", acl); err != nil {
		t.Fatal(err)
	}

	// Without the certificate header: hook denies.
	_, _, err := e.bob.Get(e.url("/market/data.csv"))
	var status *StatusError
	if !errors.As(err, &status) || status.Code != http.StatusForbidden {
		t.Fatalf("hookless access: %v", err)
	}

	// With the header: allowed.
	e.bob.Decorate = func(r *http.Request) { r.Header.Set("X-Market-Certificate", "cert") }
	if _, _, err := e.bob.Get(e.url("/market/data.csv")); err != nil {
		t.Fatalf("decorated access: %v", err)
	}
}

func TestServerMethodNotAllowed(t *testing.T) {
	e := newTestEnv(t, nil)
	req, err := http.NewRequest(http.MethodPatch, e.url("/x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestServerHead(t *testing.T) {
	e := newTestEnv(t, nil)
	if err := e.alice.Put(e.url("/r.txt"), "text/plain", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	req, err := e.alice.newRequest(http.MethodHead, e.url("/r.txt"), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.ContentLength > 0 {
		body := make([]byte, 10)
		n, _ := resp.Body.Read(body)
		if n > 0 {
			t.Fatal("HEAD returned a body")
		}
	}
}

// --- regression tests for the protocol fixes ---

// TestServerPostAppends pins the POST fix: POST used to authorize as
// Write, fire the access hook, then 405 out of the dispatch switch.
func TestServerPostAppends(t *testing.T) {
	hookCalls := 0
	var hookMode AccessMode
	hook := func(r *http.Request, agent WebID, path string, mode AccessMode) error {
		hookCalls++
		hookMode = mode
		return nil
	}
	e := newTestEnv(t, hook)
	if err := e.alice.Put(e.url("/log.txt"), "text/plain", []byte("a")); err != nil {
		t.Fatal(err)
	}
	hookCalls = 0

	// POST to an existing resource appends to it.
	loc, err := e.alice.Post(e.url("/log.txt"), "text/plain", []byte("b"))
	if err != nil {
		t.Fatalf("POST after authorization must not 405: %v", err)
	}
	if loc != "" {
		t.Fatalf("append to resource returned Location %q", loc)
	}
	if hookCalls != 1 || hookMode != ModeAppend {
		t.Fatalf("hook saw %d calls, mode %s; want 1 call with Append", hookCalls, hookMode)
	}
	data, _, err := e.alice.Get(e.url("/log.txt"))
	if err != nil || string(data) != "ab" {
		t.Fatalf("after append: %q, %v", data, err)
	}

	// POST to a container mints a contained resource and returns it.
	loc, err = e.alice.Post(e.url("/inbox/"), "text/plain", []byte("msg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(loc, "https://alice.pod/inbox/") {
		t.Fatalf("Location = %q", loc)
	}
}

// TestServerPostNeedsOnlyAppend pins the mode mapping: an agent granted
// Append (but not Write) can POST, and Write implies Append.
func TestServerPostNeedsOnlyAppend(t *testing.T) {
	e := newTestEnv(t, nil)
	if err := e.alice.Put(e.url("/inbox/seed.txt"), "text/plain", []byte("x")); err != nil {
		t.Fatal(err)
	}
	acl := NewACL(aliceID, "/inbox/")
	acl.Grant("bob-append", []WebID{bobID}, "/inbox/", true, ModeAppend)
	if err := e.pod.SetACL(aliceID, "/inbox/", acl); err != nil {
		t.Fatal(err)
	}
	if _, err := e.bob.Post(e.url("/inbox/"), "text/plain", []byte("drop")); err != nil {
		t.Fatalf("append-only agent POST: %v", err)
	}
	// Append does not grant Write: bob cannot PUT or DELETE.
	if err := e.bob.Put(e.url("/inbox/seed.txt"), "text/plain", []byte("y")); err == nil {
		t.Fatal("append-only agent overwrote a resource")
	}
	if err := e.bob.Delete(e.url("/inbox/seed.txt")); err == nil {
		t.Fatal("append-only agent deleted a resource")
	}
}

// TestServerHeadContainerNoBody pins the HEAD fix: the container branch
// used to write the full Turtle listing even for HEAD.
func TestServerHeadContainerNoBody(t *testing.T) {
	e := newTestEnv(t, nil)
	if err := e.alice.Put(e.url("/dir/a.txt"), "text/plain", []byte("x")); err != nil {
		t.Fatal(err)
	}
	req, err := e.alice.newRequest(http.MethodHead, e.url("/dir/"), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	buf := make([]byte, 64)
	if n, _ := resp.Body.Read(buf); n > 0 {
		t.Fatalf("HEAD on container returned a body: %q", buf[:n])
	}
	if resp.Header.Get("ETag") == "" {
		t.Fatal("HEAD on container lacks ETag")
	}
}

// TestServerReplayRejected pins the replay fix: an identical captured
// request must not validate twice even though its timestamp is still
// within the clock-skew window.
func TestServerReplayRejected(t *testing.T) {
	e := newTestEnv(t, nil)
	if err := e.alice.Put(e.url("/r.txt"), "text/plain", []byte("x")); err != nil {
		t.Fatal(err)
	}
	req, err := e.alice.newRequest(http.MethodGet, e.url("/r.txt"), nil)
	if err != nil {
		t.Fatal(err)
	}
	first, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	first.Body.Close()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("original request status = %d", first.StatusCode)
	}
	// Replay byte-for-byte, well inside the ±5 min skew window.
	replayReq, err := http.NewRequest(http.MethodGet, e.url("/r.txt"), nil)
	if err != nil {
		t.Fatal(err)
	}
	replayReq.Header = req.Header.Clone()
	replay, err := http.DefaultClient.Do(replayReq)
	if err != nil {
		t.Fatal(err)
	}
	replay.Body.Close()
	if replay.StatusCode != http.StatusUnauthorized {
		t.Fatalf("replayed request status = %d, want 401", replay.StatusCode)
	}
}

// TestServerMissingNonceRejected: authenticated requests must carry the
// single-use nonce.
func TestServerMissingNonceRejected(t *testing.T) {
	e := newTestEnv(t, nil)
	if err := e.alice.Put(e.url("/r.txt"), "text/plain", []byte("x")); err != nil {
		t.Fatal(err)
	}
	req, err := e.alice.newRequest(http.MethodGet, e.url("/r.txt"), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Del(HeaderNonce)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("nonce-less request status = %d, want 401", resp.StatusCode)
	}
}

// TestServerConditionalGet covers ETag/If-None-Match and
// If-Modified-Since revalidation.
func TestServerConditionalGet(t *testing.T) {
	e := newTestEnv(t, nil)
	if err := e.alice.Put(e.url("/r.txt"), "text/plain", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	fetch := func(mutate func(*http.Request)) *http.Response {
		t.Helper()
		req, err := e.alice.newRequest(http.MethodGet, e.url("/r.txt"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(req)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	plain := fetch(nil)
	etag := plain.Header.Get("ETag")
	if plain.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("status=%d etag=%q", plain.StatusCode, etag)
	}

	cond := fetch(func(r *http.Request) { r.Header.Set("If-None-Match", etag) })
	if cond.StatusCode != http.StatusNotModified {
		t.Fatalf("matching If-None-Match status = %d, want 304", cond.StatusCode)
	}
	buf := make([]byte, 8)
	if n, _ := cond.Body.Read(buf); n > 0 {
		t.Fatal("304 carried a body")
	}

	ims := fetch(func(r *http.Request) {
		r.Header.Set("If-Modified-Since", e.clk.Now().UTC().Format(http.TimeFormat))
	})
	if ims.StatusCode != http.StatusNotModified {
		t.Fatalf("If-Modified-Since status = %d, want 304", ims.StatusCode)
	}

	// Changing the resource changes the validator: the old ETag re-fetches.
	if err := e.alice.Put(e.url("/r.txt"), "text/plain", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	after := fetch(func(r *http.Request) { r.Header.Set("If-None-Match", etag) })
	if after.StatusCode != http.StatusOK {
		t.Fatalf("stale If-None-Match status = %d, want 200", after.StatusCode)
	}
	if after.Header.Get("ETag") == etag {
		t.Fatal("ETag unchanged after overwrite")
	}
}

// TestServerPutStatusCreatedVsOverwrite pins the 201-vs-200 fix.
func TestServerPutStatusCreatedVsOverwrite(t *testing.T) {
	e := newTestEnv(t, nil)
	put := func() int {
		t.Helper()
		req, err := e.alice.newRequest(http.MethodPut, e.url("/r.txt"), []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put(); code != http.StatusCreated {
		t.Fatalf("first PUT = %d, want 201", code)
	}
	if code := put(); code != http.StatusOK {
		t.Fatalf("overwrite PUT = %d, want 200", code)
	}
}

// TestServerBodyTooLarge pins the 413 fix: oversized bodies used to be
// silently truncated at 64 MiB by io.LimitReader.
func TestServerBodyTooLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates >64 MiB")
	}
	e := newTestEnv(t, nil)
	big := make([]byte, MaxBodyBytes+1)
	req, err := e.alice.newRequest(http.MethodPut, e.url("/big.bin"), big)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT = %d, want 413", resp.StatusCode)
	}
	// Nothing was stored.
	if _, _, err := e.alice.Get(e.url("/big.bin")); err == nil {
		t.Fatal("truncated resource was stored")
	}
}

// TestReplayGuardPerAgentQuota pins the guard's capacity semantics: an
// agent flooding past its quota evicts only its own nonces — another
// agent's replay protection is untouched, and nobody gets locked out.
func TestReplayGuardPerAgentQuota(t *testing.T) {
	g := newReplayGuard()
	now := podEpoch
	if err := g.check(bobID, "victim-nonce", now, now); err != nil {
		t.Fatal(err)
	}
	// Eve floods far past the per-agent cap; every request is accepted
	// (no fail-closed lockout) and only her own entries are evicted.
	for i := range 3 * maxNoncesPerAgent {
		if err := g.check(eveID, fmt.Sprintf("n%d", i), now, now); err != nil {
			t.Fatalf("flood request %d refused: %v", i, err)
		}
	}
	// Bob's nonce is still remembered: the captured request stays dead.
	if err := g.check(bobID, "victim-nonce", now, now); err == nil {
		t.Fatal("flood evicted another agent's nonce; replay accepted")
	}
	// Eve's own early nonce was evicted by her own flood (self-harm only).
	if err := g.check(eveID, "n0", now, now); err != nil {
		t.Fatalf("eve's evicted nonce should re-check clean: %v", err)
	}
	// Aged-out entries prune: after the skew window the nonce may recur
	// (its replay would fail the staleness check anyway).
	later := now.Add(MaxClockSkew + time.Minute)
	if err := g.check(bobID, "victim-nonce", later, later); err != nil {
		t.Fatalf("aged-out nonce refused: %v", err)
	}
}
