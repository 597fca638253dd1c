package main

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/solid"
	"repro/internal/store"
)

// TestRunFlagErrors covers the main path's flag handling: unknown flags
// must surface as errors instead of starting a server.
func TestRunFlagErrors(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-owners", " , ,"}); err == nil {
		t.Fatal("empty owner list accepted")
	}
}

// TestServerSignedRoundTrip provisions pods exactly as the binary does,
// serves them, and performs one public fetch plus one signed
// PUT-then-GET round trip with the key the server would print.
func TestServerSignedRoundTrip(t *testing.T) {
	clock := simclock.Real{}
	dir := solid.NewMapDirectory()
	host := solid.NewHost()
	srv := httptest.NewServer(host)
	defer srv.Close()

	pods, err := provisionPods(host, dir, srv.URL, []string{"alice", "bob", " "}, clock, "", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pods) != 2 || pods[0].name != "alice" || pods[1].name != "bob" {
		t.Fatalf("provisioned %d pods, want [alice bob]", len(pods))
	}
	keys := map[string]*cryptoutil.KeyPair{"alice": pods[0].key, "bob": pods[1].key}
	if host.Len() != 2 {
		t.Fatalf("host serves %d pods, want 2", host.Len())
	}

	// The seeded demo resource is publicly readable without credentials.
	resp, err := http.Get(srv.URL + solid.PodRoutePrefix + "alice/public/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("public GET = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), "hello from the Solid pod of alice") {
		t.Fatalf("unexpected demo body %q", body)
	}

	// Signed round trip as alice with the provisioned key.
	alice := solid.NewClient(ownerWebID(srv.URL, "alice"), keys["alice"], clock)
	target := srv.URL + solid.PodRoutePrefix + "alice/private/note.txt"
	if err := alice.Put(target, "text/plain", []byte("signed write")); err != nil {
		t.Fatalf("signed PUT: %v", err)
	}
	got, _, err := alice.Get(target)
	if err != nil {
		t.Fatalf("signed GET: %v", err)
	}
	if string(got) != "signed write" {
		t.Fatalf("round trip returned %q", got)
	}

	// Bob's key must not open alice's private resource.
	bob := solid.NewClient(ownerWebID(srv.URL, "bob"), keys["bob"], clock)
	if _, _, err := bob.Get(target); err == nil {
		t.Fatal("cross-pod read with the wrong owner key succeeded")
	}
}

// TestServerDurableRestart provisions durable pods, writes through the
// signed HTTP path, closes them, provisions again over the same data dir, and
// requires identical content, ETag, owner key, and no demo re-seeding.
func TestServerDurableRestart(t *testing.T) {
	dataDir := t.TempDir()
	clock := simclock.Real{}

	boot := func() (*solid.Host, *httptest.Server, []ownerPod, map[string]*cryptoutil.KeyPair) {
		dir := solid.NewMapDirectory()
		host := solid.NewHost()
		srv := httptest.NewServer(host)
		pods, err := provisionPods(host, dir, srv.URL, []string{"alice"}, clock, dataDir,
			store.Options{Sync: store.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		return host, srv, pods, map[string]*cryptoutil.KeyPair{"alice": pods[0].key}
	}

	host, srv, pods, keys := boot()
	alice := solid.NewClient(ownerWebID(srv.URL, "alice"), keys["alice"], clock)
	target := srv.URL + solid.PodRoutePrefix + "alice/private/note.txt"
	if err := alice.Put(target, "text/plain", []byte("durable write")); err != nil {
		t.Fatal(err)
	}
	pod, _ := host.Lookup("alice")
	res, err := pod.Get(ownerWebID(srv.URL, "alice"), "/private/note.txt")
	if err != nil {
		t.Fatal(err)
	}
	wantETag := res.ETag
	wantGen := pod.ACLGeneration()
	wantAddr := keys["alice"].Address()
	srv.Close()
	if err := closePods(pods); err != nil {
		t.Fatal(err)
	}

	host2, srv2, pods2, keys2 := boot()
	defer srv2.Close()
	defer closePods(pods2)
	if keys2["alice"].Address() != wantAddr {
		t.Fatal("owner key changed across restart")
	}
	// Same WebID still authenticates over HTTP against restored content.
	alice2 := solid.NewClient(ownerWebID(srv2.URL, "alice"), keys2["alice"], clock)
	body, _, err := alice2.Get(srv2.URL + solid.PodRoutePrefix + "alice/private/note.txt")
	if err != nil {
		t.Fatalf("restored private read: %v", err)
	}
	if string(body) != "durable write" {
		t.Fatalf("restored body %q", body)
	}
	pod2, _ := host2.Lookup("alice")
	res2, err := pod2.Get(ownerWebID(srv2.URL, "alice"), "/private/note.txt")
	if err != nil {
		t.Fatal(err)
	}
	if res2.ETag != wantETag {
		t.Fatalf("ETag %s != %s across restart", res2.ETag, wantETag)
	}
	if pod2.ACLGeneration() != wantGen {
		t.Fatalf("ACL generation %d != %d across restart (re-seeded?)", pod2.ACLGeneration(), wantGen)
	}
}

// TestRunRejectsBadFsyncPolicy: an unknown -fsync value errors.
func TestRunRejectsBadFsyncPolicy(t *testing.T) {
	if err := run([]string{"-fsync", "bogus"}); err == nil {
		t.Fatal("bad fsync policy accepted")
	}
}

// TestRunGracefulShutdown: SIGTERM drains the server and run returns
// nil, with the data dir left reopenable.
func TestRunGracefulShutdown(t *testing.T) {
	dataDir := t.TempDir()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-owners", "alice",
			"-data-dir", dataDir, "-fsync", "never"})
	}()
	time.Sleep(200 * time.Millisecond)
	deadline := time.After(5 * time.Second)
	for {
		_ = syscall.Kill(os.Getpid(), syscall.SIGTERM)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v on SIGTERM", err)
			}
			if _, err := os.Stat(filepath.Join(dataDir, "pods", "alice")); err != nil {
				t.Fatalf("pod store missing after shutdown: %v", err)
			}
			return
		case <-deadline:
			t.Fatal("run did not exit within 5s of SIGTERM")
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// TestDebugMetricsEndpoint provisions pods with live instruments the
// way -debug-addr does, drives a public fetch, and scrapes /metrics.
func TestDebugMetricsEndpoint(t *testing.T) {
	clock := simclock.Real{}
	dir := solid.NewMapDirectory()
	host := solid.NewHost()
	reg := obs.NewRegistry()
	host.SetMetrics(solid.NewMetrics(reg))
	srv := httptest.NewServer(host)
	defer srv.Close()
	if _, err := provisionPods(host, dir, srv.URL, []string{"alice"}, clock, "", store.Options{}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + solid.PodRoutePrefix + "alice/public/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("public GET = %d", resp.StatusCode)
	}

	debug := httptest.NewServer(obs.DebugMux(reg, nil))
	defer debug.Close()
	mresp, err := http.Get(debug.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`solid_request_latency_ns_count{class="resource",mode="read"} 1`,
		`solid_auth_cache_total{outcome="miss"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestProvisionRefusesBadNameBeforeWriting: a name that is not a single
// URL-safe segment is refused before a pod directory or key file is
// written for it, and the pods opened before it are closed.
func TestProvisionRefusesBadNameBeforeWriting(t *testing.T) {
	dataDir := t.TempDir()
	host := solid.NewHost()
	_, err := provisionPods(host, solid.NewMapDirectory(), "http://localhost", []string{"alice", "../evil"},
		simclock.Real{}, dataDir, store.Options{Sync: store.SyncNever})
	if !errors.Is(err, solid.ErrBadPodName) {
		t.Fatalf("provisionPods = %v, want ErrBadPodName", err)
	}
	// "../evil" would have put its key file and pod directory straight
	// under dataDir, beside keys/ and pods/.
	for sub, want := range map[string]string{".": "keys pods", "keys": "alice.der", "pods": "alice"} {
		entries, err := os.ReadDir(filepath.Join(dataDir, sub))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if got := strings.Join(names, " "); got != want {
			t.Fatalf("%s holds %q, want %q", sub, got, want)
		}
	}
	// alice's store was closed: a second open of the same directory works.
	pod, err := solid.OpenPod("https://alice.example/profile#me", "http://localhost/pods/alice",
		filepath.Join(dataDir, "pods", "alice"), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := pod.CloseStore(); err != nil {
		t.Fatal(err)
	}
}
