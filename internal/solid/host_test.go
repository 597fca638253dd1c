package solid

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/simclock"
)

// hostEnv is a running multi-pod host with registered agents.
type hostEnv struct {
	host *Host
	srv  *httptest.Server
	dir  *MapDirectory
	clk  *simclock.Sim
}

func newHostEnv(t *testing.T) *hostEnv {
	t.Helper()
	clk := simclock.NewSim(podEpoch)
	dir := NewMapDirectory()
	host := NewHost()
	srv := httptest.NewServer(host)
	t.Cleanup(srv.Close)
	return &hostEnv{host: host, srv: srv, dir: dir, clk: clk}
}

// addOwner provisions a pod plus an authenticated client for its owner.
func (e *hostEnv) addOwner(t *testing.T, name string) (*Pod, *Client, WebID) {
	t.Helper()
	key := cryptoutil.MustGenerateKey()
	owner := WebID("https://" + name + ".example/profile#me")
	e.dir.Register(owner, key.PublicBytes())
	pod := NewPod(owner, e.srv.URL+PodRoutePrefix+name)
	if err := e.host.Mount(name, NewServer(pod, e.dir, e.clk, nil)); err != nil {
		t.Fatal(err)
	}
	return pod, NewClient(owner, key, e.clk), owner
}

func TestHostServesManyPodsWithIsolation(t *testing.T) {
	e := newHostEnv(t)
	const pods = 120
	clients := make([]*Client, pods)
	for i := range pods {
		name := fmt.Sprintf("owner%03d", i)
		_, c, _ := e.addOwner(t, name)
		clients[i] = c
		url := fmt.Sprintf("%s/pods/%s/data/r.txt", e.srv.URL, name)
		if err := c.Put(url, "text/plain", []byte(name)); err != nil {
			t.Fatalf("put into pod %s: %v", name, err)
		}
	}
	if got := e.host.Len(); got != pods {
		t.Fatalf("host.Len() = %d, want %d", got, pods)
	}
	// Every owner reads their own bytes back through the shared handler.
	for i := range pods {
		name := fmt.Sprintf("owner%03d", i)
		url := fmt.Sprintf("%s/pods/%s/data/r.txt", e.srv.URL, name)
		data, _, err := clients[i].Get(url)
		if err != nil || string(data) != name {
			t.Fatalf("pod %s read back %q, %v", name, data, err)
		}
	}
	// Per-pod isolation: owner000 is authorized on pod owner000 but must
	// be denied on pod owner001 (and vice versa).
	cross := fmt.Sprintf("%s/pods/owner001/data/r.txt", e.srv.URL)
	_, _, err := clients[0].Get(cross)
	var status *StatusError
	if !errors.As(err, &status) || status.Code != http.StatusForbidden {
		t.Fatalf("cross-pod read should be 403, got %v", err)
	}
	if err := clients[0].Put(cross, "text/plain", []byte("own3d")); err == nil {
		t.Fatal("cross-pod write succeeded")
	}
}

func TestHostGrantOnOnePodDoesNotLeak(t *testing.T) {
	e := newHostEnv(t)
	podA, _, ownerA := e.addOwner(t, "alice")
	podB, _, ownerB := e.addOwner(t, "bob")

	guestKey := cryptoutil.MustGenerateKey()
	guest := WebID("https://guest.example/profile#me")
	e.dir.Register(guest, guestKey.PublicBytes())
	guestClient := NewClient(guest, guestKey, e.clk)

	for _, p := range []struct {
		pod   *Pod
		owner WebID
	}{{podA, ownerA}, {podB, ownerB}} {
		if err := p.pod.Put(p.owner, "/shared.txt", "text/plain", []byte("s"), podEpoch); err != nil {
			t.Fatal(err)
		}
	}
	acl := NewACL(ownerA, "/shared.txt")
	acl.Grant("guest", []WebID{guest}, "/shared.txt", false, ModeRead)
	if err := podA.SetACL(ownerA, "/shared.txt", acl); err != nil {
		t.Fatal(err)
	}

	if _, _, err := guestClient.Get(e.srv.URL + "/pods/alice/shared.txt"); err != nil {
		t.Fatalf("granted read on pod A: %v", err)
	}
	_, _, err := guestClient.Get(e.srv.URL + "/pods/bob/shared.txt")
	var status *StatusError
	if !errors.As(err, &status) || status.Code != http.StatusForbidden {
		t.Fatalf("grant leaked to pod B: %v", err)
	}
}

func TestHostSignatureBindsPodPrefix(t *testing.T) {
	e := newHostEnv(t)
	podA, clientA, ownerA := e.addOwner(t, "alice")
	podB, _, ownerB := e.addOwner(t, "bob")
	// Both pods hold a world-readable-looking resource at the same
	// pod-relative path, but only signed requests reach them.
	if err := podA.Put(ownerA, "/r.txt", "text/plain", []byte("a"), podEpoch); err != nil {
		t.Fatal(err)
	}
	if err := podB.Put(ownerB, "/r.txt", "text/plain", []byte("b"), podEpoch); err != nil {
		t.Fatal(err)
	}
	// Capture a valid request for pod A and replay its credentials
	// against pod B: the signature covers /pods/alice/r.txt, so pod B
	// must reject it even before authorization.
	reqA, err := clientA.newRequest(http.MethodGet, e.srv.URL+"/pods/alice/r.txt", nil)
	if err != nil {
		t.Fatal(err)
	}
	reqB, err := http.NewRequest(http.MethodGet, e.srv.URL+"/pods/bob/r.txt", nil)
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
		t.Fatalf("cross-pod credential replay status = %d, want 401", resp.StatusCode)
	}
}

func TestHostUnknownPodAndBadNames(t *testing.T) {
	e := newHostEnv(t)
	e.addOwner(t, "alice")
	for _, path := range []string{"/pods/ghost/r.txt", "/nopods/alice/r.txt", "/"} {
		resp, err := http.Get(e.srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	srv := NewServer(NewPod("https://x/profile#me", e.srv.URL), e.dir, e.clk, nil)
	if err := e.host.Mount("alice", srv); !errors.Is(err, ErrPodExists) {
		t.Fatalf("duplicate mount: %v", err)
	}
	for _, bad := range []string{"", "a/b", "a b", strings.Repeat("x", 200)} {
		if err := e.host.Mount(bad, srv); !errors.Is(err, ErrBadPodName) {
			t.Fatalf("Mount(%q) = %v, want ErrBadPodName", bad, err)
		}
	}
}

func TestHostLookupAndRemove(t *testing.T) {
	e := newHostEnv(t)
	pod, client, _ := e.addOwner(t, "alice")
	got, ok := e.host.Lookup("alice")
	if !ok || got != pod {
		t.Fatal("Lookup lost the mounted pod")
	}
	if len(e.host.Names()) != 1 || e.host.Names()[0] != "alice" {
		t.Fatalf("Names = %v", e.host.Names())
	}
	if !e.host.Remove("alice") {
		t.Fatal("Remove reported not-mounted")
	}
	if e.host.Remove("alice") {
		t.Fatal("second Remove reported mounted")
	}
	if _, _, err := client.Get(e.srv.URL + "/pods/alice/anything"); err == nil {
		t.Fatal("request to removed pod succeeded")
	}
}

func TestHostConcurrentTraffic(t *testing.T) {
	e := newHostEnv(t)
	const pods = 16
	clients := make([]*Client, pods)
	for i := range pods {
		name := fmt.Sprintf("p%02d", i)
		_, c, _ := e.addOwner(t, name)
		clients[i] = c
		if err := c.Put(fmt.Sprintf("%s/pods/%s/r.txt", e.srv.URL, name), "text/plain", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, pods*8)
	for i := range pods {
		for range 8 {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				url := fmt.Sprintf("%s/pods/p%02d/r.txt", e.srv.URL, i)
				if _, _, err := clients[i].Get(url); err != nil {
					errs <- err
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestHostMountRemoveWhileServing: pods mount and unmount on the one
// registry while requests are routed through it. A request to a pod that
// stays mounted is always served; one to a pod coming and going is
// served or answered 404, never anything else.
func TestHostMountRemoveWhileServing(t *testing.T) {
	e := newHostEnv(t)
	const owner = WebID("https://stable.example/profile#me")
	newServer := func(name string) *Server {
		pod := NewPod(owner, e.srv.URL+PodRoutePrefix+name)
		if err := pod.Put(owner, "/pub/r.txt", "text/plain", []byte(name), podEpoch); err != nil {
			t.Fatal(err)
		}
		acl := NewACL(owner, "/pub/")
		acl.GrantPublic("world", "/pub/", true, ModeRead)
		if err := pod.SetACL(owner, "/pub/", acl); err != nil {
			t.Fatal(err)
		}
		return NewServer(pod, e.dir, e.clk, nil)
	}
	if err := e.host.Mount("stable", newServer("stable")); err != nil {
		t.Fatal(err)
	}
	churn := make([]*Server, 50)
	for i := range churn {
		churn[i] = newServer("churn")
	}

	get := func(name string) int {
		rec := httptest.NewRecorder()
		e.host.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, PodRoutePrefix+name+"/pub/r.txt", nil))
		return rec.Code
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if code := get("stable"); code != http.StatusOK {
					errs <- fmt.Errorf("stable pod answered %d", code)
					return
				}
				if code := get("churn"); code != http.StatusOK && code != http.StatusNotFound {
					errs <- fmt.Errorf("churning pod answered %d", code)
					return
				}
				e.host.Lookup("churn")
				e.host.Names()
			}
		}()
	}
	for _, srv := range churn {
		if err := e.host.Mount("churn", srv); err != nil {
			t.Fatal(err)
		}
		if !e.host.Remove("churn") {
			t.Fatal("Remove lost a mounted pod")
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := e.host.Len(); got != 1 {
		t.Fatalf("host.Len() = %d after churn, want 1", got)
	}
}
