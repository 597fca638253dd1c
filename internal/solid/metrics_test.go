package solid

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/obs"
	"repro/internal/simclock"
)

func TestHostMetricsRecorded(t *testing.T) {
	clk := simclock.NewSim(podEpoch)
	dir := NewMapDirectory()
	host := NewHost()
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	host.SetMetrics(m)

	key := cryptoutil.MustGenerateKey()
	owner := WebID("https://alice.example/profile#me")
	dir.Register(owner, key.PublicBytes())

	srv := httptest.NewServer(host)
	t.Cleanup(srv.Close)
	pod := NewPod(owner, srv.URL+PodRoutePrefix+"alice")
	if err := host.Mount("alice", NewServer(pod, dir, clk, nil)); err != nil {
		t.Fatal(err)
	}
	client := NewClient(owner, key, clk)

	// Resource write + read, container read.
	url := srv.URL + "/pods/alice/data/r.txt"
	if err := client.Put(url, "text/plain", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Get(url); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Get(srv.URL + "/pods/alice/data/"); err != nil {
		t.Fatal(err)
	}
	// Unknown pod: counted, not timed.
	resp, err := http.Get(srv.URL + "/pods/nosuch/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if m.ResourceWrite.Count() != 1 || m.ResourceRead.Count() != 1 || m.ContainerRead.Count() != 1 {
		t.Fatalf("request latency counts: write=%d read=%d container=%d",
			m.ResourceWrite.Count(), m.ResourceRead.Count(), m.ContainerRead.Count())
	}
	if m.UnroutedReqs.Value() != 1 {
		t.Fatalf("unrouted = %d, want 1", m.UnroutedReqs.Value())
	}
	// The owner short-circuits Authorize before the cache, so no cache
	// traffic yet; a non-owner agent drives hit/miss.
	bobKey := cryptoutil.MustGenerateKey()
	bob := WebID("https://bob.example/profile#me")
	dir.Register(bob, bobKey.PublicBytes())
	bobClient := NewClient(bob, bobKey, clk)
	for range 3 {
		// Forbidden, but each decision exercises the ACL cache.
		_, _, _ = bobClient.Get(url)
	}
	if m.AuthCacheMisses.Value() != 1 || m.AuthCacheHits.Value() != 2 {
		t.Fatalf("auth cache hit/miss = %d/%d, want 2/1",
			m.AuthCacheHits.Value(), m.AuthCacheMisses.Value())
	}
}

func TestServerReplayMetric(t *testing.T) {
	e := newTestEnv(t, nil)
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	// testEnv builds the server directly; re-wire its instruments.
	e.srv.Config.Handler.(*Server).SetMetrics(m)
	e.pod.setMetrics(m)

	if err := e.alice.Put(e.url("/r.txt"), "text/plain", []byte("x")); err != nil {
		t.Fatal(err)
	}

	// Capture a signed request and replay it verbatim.
	req, err := e.alice.newRequest(http.MethodGet, e.url("/r.txt"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, wantStatus := range []int{http.StatusOK, http.StatusUnauthorized} {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("attempt %d: status %d, want %d", i, resp.StatusCode, wantStatus)
		}
	}
	if m.NonceReplays.Value() != 1 {
		t.Fatalf("nonce replays = %d, want 1", m.NonceReplays.Value())
	}
	if m.AuthFailures.Value() != 0 {
		t.Fatalf("auth failures = %d, want 0 (replay is not a generic failure)", m.AuthFailures.Value())
	}

	// A garbage signature is a generic auth failure, not a replay.
	bad, err := e.alice.newRequest(http.MethodGet, e.url("/r.txt"), nil)
	if err != nil {
		t.Fatal(err)
	}
	bad.Header.Set(HeaderSignature, "bm90LWEtc2lnbmF0dXJl")
	resp, err := http.DefaultClient.Do(bad)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad signature: status %d", resp.StatusCode)
	}
	if m.AuthFailures.Value() != 1 {
		t.Fatalf("auth failures = %d, want 1", m.AuthFailures.Value())
	}
}

func TestSolidMetricsSeries(t *testing.T) {
	reg := obs.NewRegistry()
	NewMetrics(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`solid_request_latency_ns{class="resource",mode="read",quantile="0.99"}`,
		`solid_auth_cache_total{outcome="hit"}`,
		"solid_nonce_replays_total",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}
	if reg.Len() == 0 {
		t.Fatal("no series registered")
	}
}
