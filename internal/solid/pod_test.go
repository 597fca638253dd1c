package solid

import (
	"errors"
	"strings"
	"testing"
	"time"
)

var podEpoch = time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC)

func newTestPod() *Pod {
	return NewPod(aliceID, "https://alice.pod")
}

func TestPodOwnerCRUD(t *testing.T) {
	pod := newTestPod()
	if err := pod.Put(aliceID, "/web/browsing.csv", "text/csv", []byte("a,b"), podEpoch); err != nil {
		t.Fatal(err)
	}
	res, err := pod.Get(aliceID, "/web/browsing.csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Data) != "a,b" || res.ContentType != "text/csv" {
		t.Fatalf("resource = %+v", res)
	}
	if err := pod.Delete(aliceID, "/web/browsing.csv"); err != nil {
		t.Fatal(err)
	}
	if _, err := pod.Get(aliceID, "/web/browsing.csv"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
	if err := pod.Delete(aliceID, "/web/browsing.csv"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestPodStrangerDenied(t *testing.T) {
	pod := newTestPod()
	if err := pod.Put(aliceID, "/secret.txt", "text/plain", []byte("s"), podEpoch); err != nil {
		t.Fatal(err)
	}
	if _, err := pod.Get(bobID, "/secret.txt"); !errors.Is(err, ErrForbidden) {
		t.Fatalf("stranger read: %v", err)
	}
	if err := pod.Put(bobID, "/attack.txt", "text/plain", []byte("x"), podEpoch); !errors.Is(err, ErrForbidden) {
		t.Fatalf("stranger write: %v", err)
	}
	if _, err := pod.Get("", "/secret.txt"); !errors.Is(err, ErrForbidden) {
		t.Fatalf("anonymous read: %v", err)
	}
}

func TestPodGrantThroughACL(t *testing.T) {
	pod := newTestPod()
	if err := pod.Put(aliceID, "/data/r.csv", "text/csv", []byte("1"), podEpoch); err != nil {
		t.Fatal(err)
	}
	acl := NewACL(aliceID, "/data/r.csv")
	acl.Grant("bob", []WebID{bobID}, "/data/r.csv", false, ModeRead)
	if err := pod.SetACL(aliceID, "/data/r.csv", acl); err != nil {
		t.Fatal(err)
	}
	if _, err := pod.Get(bobID, "/data/r.csv"); err != nil {
		t.Fatalf("granted read: %v", err)
	}
	if err := pod.Put(bobID, "/data/r.csv", "text/csv", []byte("2"), podEpoch); !errors.Is(err, ErrForbidden) {
		t.Fatalf("bob write should be denied: %v", err)
	}
	if _, err := pod.Get(eveID, "/data/r.csv"); !errors.Is(err, ErrForbidden) {
		t.Fatalf("eve read: %v", err)
	}
}

func TestPodACLInheritance(t *testing.T) {
	pod := newTestPod()
	if err := pod.Put(aliceID, "/pub/a/b.txt", "text/plain", []byte("x"), podEpoch); err != nil {
		t.Fatal(err)
	}
	container := NewACL(aliceID, "/pub/")
	container.GrantPublic("world", "/pub/", true, ModeRead)
	if err := pod.SetACL(aliceID, "/pub/", container); err != nil {
		t.Fatal(err)
	}
	// Inherited through two levels.
	if _, err := pod.Get(bobID, "/pub/a/b.txt"); err != nil {
		t.Fatalf("inherited public read: %v", err)
	}
	// A resource-level ACL overrides the inherited one entirely.
	own := NewACL(aliceID, "/pub/a/b.txt")
	if err := pod.SetACL(aliceID, "/pub/a/b.txt", own); err != nil {
		t.Fatal(err)
	}
	if _, err := pod.Get(bobID, "/pub/a/b.txt"); !errors.Is(err, ErrForbidden) {
		t.Fatalf("resource ACL should override inherited grant: %v", err)
	}
}

func TestPodSetACLRequiresControl(t *testing.T) {
	pod := newTestPod()
	open := NewACL(aliceID, "/")
	open.Grant("bob-rw", []WebID{bobID}, "/doc.txt", false, ModeRead, ModeWrite)
	if err := pod.SetACL(aliceID, "/doc.txt", open); err != nil {
		t.Fatal(err)
	}
	// Bob has Read+Write but not Control: he cannot replace the ACL.
	hijack := NewACL(bobID, "/doc.txt")
	if err := pod.SetACL(bobID, "/doc.txt", hijack); !errors.Is(err, ErrForbidden) {
		t.Fatalf("ACL hijack: %v", err)
	}
	if _, err := pod.GetACL(bobID, "/doc.txt"); !errors.Is(err, ErrForbidden) {
		t.Fatalf("GetACL without control: %v", err)
	}
	if _, err := pod.GetACL(aliceID, "/doc.txt"); err != nil {
		t.Fatalf("owner GetACL: %v", err)
	}
	if _, err := pod.GetACL(aliceID, "/nowhere.txt"); !errors.Is(err, ErrNoACL) {
		t.Fatalf("missing ACL: %v", err)
	}
}

// TestPodSetACLRefusesNil: a nil ACL document is refused before it is
// logged or installed. Installed, it made every later non-owner decision
// under its path dereference it, and op-log replay dropped it, so a
// restarted pod decided that path differently.
func TestPodSetACLRefusesNil(t *testing.T) {
	pod := newTestPod()
	gen := pod.ACLGeneration()
	if err := pod.SetACL(aliceID, "/doc/", nil); !errors.Is(err, ErrNoACL) {
		t.Fatalf("SetACL(nil) = %v, want ErrNoACL", err)
	}
	if g := pod.ACLGeneration(); g != gen {
		t.Fatalf("ACL generation %d after a refused SetACL, want %d", g, gen)
	}
	if _, err := pod.GetACL(aliceID, "/doc/"); !errors.Is(err, ErrNoACL) {
		t.Fatalf("GetACL after a refused SetACL: %v", err)
	}
	if err := pod.Authorize(bobID, "/doc/x.txt", ModeRead); !errors.Is(err, ErrForbidden) {
		t.Fatalf("stranger under the refused path: %v", err)
	}
}

func TestPodList(t *testing.T) {
	pod := newTestPod()
	files := []string{"/a.txt", "/dir/b.txt", "/dir/c.txt", "/dir/sub/d.txt"}
	for _, f := range files {
		if err := pod.Put(aliceID, f, "text/plain", []byte("x"), podEpoch); err != nil {
			t.Fatal(err)
		}
	}
	root, err := pod.List(aliceID, "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(root) != 2 || root[0] != "/a.txt" || root[1] != "/dir/" {
		t.Fatalf("root listing = %v", root)
	}
	dir, err := pod.List(aliceID, "/dir/")
	if err != nil {
		t.Fatal(err)
	}
	if len(dir) != 3 {
		t.Fatalf("dir listing = %v", dir)
	}
	if _, err := pod.List(bobID, "/dir/"); !errors.Is(err, ErrForbidden) {
		t.Fatalf("stranger listing: %v", err)
	}
}

// TestPodContainerListingTurtle pins the LDP document a GET on a container
// answers with.
func TestPodContainerListingTurtle(t *testing.T) {
	pod := newTestPod()
	for _, path := range []string{"/dir/x.txt", "/dir/sub/y.txt", "/dir/a b.txt"} {
		if err := pod.Put(aliceID, path, "text/plain", []byte("x"), podEpoch); err != nil {
			t.Fatal(err)
		}
	}
	doc, err := pod.ContainerListing(aliceID, "/dir/")
	if err != nil {
		t.Fatal(err)
	}
	want := `@prefix ldp: <http://www.w3.org/ns/ldp#> .

<https://alice.pod/dir/> a ldp:Container ;
    ldp:contains <https://alice.pod/dir/a b.txt>, <https://alice.pod/dir/sub/>, <https://alice.pod/dir/x.txt> .
`
	if doc != want {
		t.Fatalf("listing:\n%s\nwant:\n%s", doc, want)
	}
}

func TestPodPathValidation(t *testing.T) {
	pod := newTestPod()
	bad := []string{"", "relative.txt", "/../escape", "/a/../../etc"}
	for _, p := range bad {
		if err := pod.Put(aliceID, p, "text/plain", []byte("x"), podEpoch); !errors.Is(err, ErrBadPath) {
			t.Errorf("Put(%q) = %v, want ErrBadPath", p, err)
		}
	}
	// Path cleaning: "/a//b.txt" normalizes to "/a/b.txt".
	if err := pod.Put(aliceID, "/a//b.txt", "text/plain", []byte("x"), podEpoch); err != nil {
		t.Fatal(err)
	}
	if _, err := pod.Get(aliceID, "/a/b.txt"); err != nil {
		t.Fatalf("normalized path not found: %v", err)
	}
}

func TestPodGetCopiesData(t *testing.T) {
	pod := newTestPod()
	if err := pod.Put(aliceID, "/r", "text/plain", []byte("abc"), podEpoch); err != nil {
		t.Fatal(err)
	}
	res, err := pod.Get(aliceID, "/r")
	if err != nil {
		t.Fatal(err)
	}
	res.Data[0] = 'X'
	again, _ := pod.Get(aliceID, "/r")
	if string(again.Data) != "abc" {
		t.Fatal("Get returned a shared slice")
	}
}

func TestPodStats(t *testing.T) {
	pod := newTestPod()
	_ = pod.Put(aliceID, "/a", "t", []byte("12345"), podEpoch)
	_ = pod.Put(aliceID, "/b", "t", []byte("123"), podEpoch)
	n, bytes := pod.Stats()
	if n != 2 || bytes != 8 {
		t.Fatalf("Stats = (%d, %d), want (2, 8)", n, bytes)
	}
}

func TestAncestorsOf(t *testing.T) {
	got := ancestorsOf("/a/b/c.txt")
	want := []string{"/a/b/", "/a/", "/"}
	if len(got) != len(want) {
		t.Fatalf("ancestors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ancestors = %v, want %v", got, want)
		}
	}
	if got := ancestorsOf("/top.txt"); len(got) != 1 || got[0] != "/" {
		t.Fatalf("ancestors of top-level = %v", got)
	}
}

// --- ACL decision cache ---

// TestAuthCacheHitAndInvalidation: decisions are served from the cache
// and every mutation invalidates it immediately.
func TestAuthCacheHitAndInvalidation(t *testing.T) {
	pod := newTestPod()
	if err := pod.Put(aliceID, "/data/r.csv", "text/csv", []byte("1"), podEpoch); err != nil {
		t.Fatal(err)
	}
	if err := pod.Authorize(bobID, "/data/r.csv", ModeRead); !errors.Is(err, ErrForbidden) {
		t.Fatalf("pre-grant: %v", err)
	}
	// Grant via SetACL: the cached denial must not survive.
	acl := NewACL(aliceID, "/data/r.csv")
	acl.Grant("bob", []WebID{bobID}, "/data/r.csv", false, ModeRead)
	if err := pod.SetACL(aliceID, "/data/r.csv", acl); err != nil {
		t.Fatal(err)
	}
	if err := pod.Authorize(bobID, "/data/r.csv", ModeRead); err != nil {
		t.Fatalf("post-grant (stale cached denial?): %v", err)
	}
	// Revoke: the cached allow must not survive either.
	if err := pod.SetACL(aliceID, "/data/r.csv", NewACL(aliceID, "/data/r.csv")); err != nil {
		t.Fatal(err)
	}
	if err := pod.Authorize(bobID, "/data/r.csv", ModeRead); !errors.Is(err, ErrForbidden) {
		t.Fatalf("post-revoke (stale cached allow?): %v", err)
	}
}

// TestAuthCacheConcurrentMutation races Authorize against SetACL under
// -race, and checks the final state is the uncached truth.
func TestAuthCacheConcurrentMutation(t *testing.T) {
	pod := newTestPod()
	if err := pod.Put(aliceID, "/a/b/c.txt", "t", []byte("x"), podEpoch); err != nil {
		t.Fatal(err)
	}
	grant := NewACL(aliceID, "/a/")
	grant.Grant("bob", []WebID{bobID}, "/a/", true, ModeRead)
	deny := NewACL(aliceID, "/a/")

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range 200 {
			acl := grant
			if i%2 == 1 {
				acl = deny
			}
			if err := pod.SetACL(aliceID, "/a/", acl); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for range 200 {
		// Outcome depends on interleaving; it only must not race or panic.
		_ = pod.Authorize(bobID, "/a/b/c.txt", ModeRead)
	}
	<-done

	// Settled state: the last SetACL installed the deny document.
	if err := pod.Authorize(bobID, "/a/b/c.txt", ModeRead); !errors.Is(err, ErrForbidden) {
		t.Fatalf("settled decision: %v", err)
	}
}

// TestPodAppend covers the Append primitive directly.
func TestPodAppend(t *testing.T) {
	pod := newTestPod()
	p, created, err := pod.Append(aliceID, "/log.txt", "text/plain", []byte("a"), podEpoch)
	if err != nil || !created || p != "/log.txt" {
		t.Fatalf("create-by-append: %q %t %v", p, created, err)
	}
	p, created, err = pod.Append(aliceID, "/log.txt", "", []byte("b"), podEpoch)
	if err != nil || created || p != "/log.txt" {
		t.Fatalf("append: %q %t %v", p, created, err)
	}
	res, err := pod.Get(aliceID, "/log.txt")
	if err != nil || string(res.Data) != "ab" || res.ContentType != "text/plain" {
		t.Fatalf("after append: %+v, %v", res, err)
	}

	// Container POSTs mint distinct children.
	p1, _, err := pod.Append(aliceID, "/inbox/", "text/plain", []byte("1"), podEpoch)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := pod.Append(aliceID, "/inbox/", "text/plain", []byte("2"), podEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 || !strings.HasPrefix(p1, "/inbox/") {
		t.Fatalf("minted paths %q, %q", p1, p2)
	}
	// Append-only agents cannot Write.
	if _, _, err := pod.Append(bobID, "/inbox/", "t", []byte("x"), podEpoch); !errors.Is(err, ErrForbidden) {
		t.Fatalf("stranger append: %v", err)
	}
}

// TestPodETagTracksContent: the stored validator changes with the body.
func TestPodETagTracksContent(t *testing.T) {
	pod := newTestPod()
	if err := pod.Put(aliceID, "/r", "t", []byte("v1"), podEpoch); err != nil {
		t.Fatal(err)
	}
	r1, _ := pod.Get(aliceID, "/r")
	if err := pod.Put(aliceID, "/r", "t", []byte("v2"), podEpoch); err != nil {
		t.Fatal(err)
	}
	r2, _ := pod.Get(aliceID, "/r")
	if r1.ETag == "" || r1.ETag == r2.ETag {
		t.Fatalf("etags %q, %q", r1.ETag, r2.ETag)
	}
	if r1.ETag != ETagFor([]byte("v1")) {
		t.Fatalf("etag mismatch: %q", r1.ETag)
	}
}
