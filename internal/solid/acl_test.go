package solid

import (
	"errors"
	"testing"
)

const (
	aliceID = WebID("https://alice.pod/profile#me")
	bobID   = WebID("https://bob.pod/profile#me")
	eveID   = WebID("https://eve.pod/profile#me")
	podBase = "https://alice.pod"
)

func TestNewACLOwnerControl(t *testing.T) {
	acl := NewACL(aliceID, "/")
	for _, mode := range []AccessMode{ModeRead, ModeWrite, ModeControl} {
		if !acl.Allows(aliceID, "/", mode, false) {
			t.Errorf("owner lacks %s on /", mode)
		}
		if !acl.Allows(aliceID, "/deep/child.txt", mode, true) {
			t.Errorf("owner lacks inherited %s", mode)
		}
	}
	if acl.Allows(bobID, "/", ModeRead, false) {
		t.Error("stranger allowed by owner ACL")
	}
}

func TestACLGrantSpecificAgent(t *testing.T) {
	acl := NewACL(aliceID, "/data/r.csv")
	acl.Grant("bob-read", []WebID{bobID}, "/data/r.csv", false, ModeRead)

	if !acl.Allows(bobID, "/data/r.csv", ModeRead, false) {
		t.Error("granted agent denied")
	}
	if acl.Allows(bobID, "/data/r.csv", ModeWrite, false) {
		t.Error("agent got an ungranted mode")
	}
	if acl.Allows(bobID, "/data/other.csv", ModeRead, false) {
		t.Error("grant leaked to another resource")
	}
	if acl.Allows(eveID, "/data/r.csv", ModeRead, false) {
		t.Error("ungranted agent allowed")
	}
	// Non-default grants do not apply when inherited.
	if acl.Allows(bobID, "/data/r.csv/sub", ModeRead, true) {
		t.Error("non-default authorization applied as inherited")
	}
}

func TestACLPublicGrant(t *testing.T) {
	acl := NewACL(aliceID, "/pub/")
	acl.GrantPublic("world", "/pub/", true, ModeRead)

	if !acl.Allows(bobID, "/pub/x", ModeRead, true) {
		t.Error("public inherited read denied")
	}
	if !acl.Allows(eveID, "/pub/", ModeRead, false) {
		t.Error("public direct read denied")
	}
	if acl.Allows(bobID, "/pub/x", ModeWrite, true) {
		t.Error("public write allowed but never granted")
	}
	// Anonymous agents (empty WebID) get public access too... but only via
	// Public, never via agent lists.
	if !acl.Allows("", "/pub/x", ModeRead, true) {
		t.Error("anonymous denied on public resource")
	}
}

func TestACLAnonymousNeverMatchesAgentList(t *testing.T) {
	acl := &ACL{Authorizations: []Authorization{{
		ID: "weird", Agents: []WebID{""}, AccessTo: "/r", Modes: []AccessMode{ModeRead},
	}}}
	if acl.Allows("", "/r", ModeRead, false) {
		t.Error("empty WebID matched an agent list entry")
	}
}

// TestACLDefaultScopedToTarget pins the WAC inheritance fix: an
// acl:default authorization grants only on resources contained in its
// stated target, not on every descendant of wherever the document was
// found.
func TestACLDefaultScopedToTarget(t *testing.T) {
	acl := NewACL(aliceID, "/")
	// A default grant whose target is /b/: it must not reach /a/x even
	// when the document is consulted for /a/x via the ancestor walk.
	acl.Grant("bob-b", []WebID{bobID}, "/b/", true, ModeRead)

	if !acl.Allows(bobID, "/b/x", ModeRead, true) {
		t.Error("default grant denied inside its own target")
	}
	if !acl.Allows(bobID, "/b/deep/nested.txt", ModeRead, true) {
		t.Error("default grant denied on deep descendant of its target")
	}
	if acl.Allows(bobID, "/a/x", ModeRead, true) {
		t.Error("default grant on /b/ leaked to /a/x")
	}
	if acl.Allows(bobID, "/bx", ModeRead, true) {
		t.Error("default grant on /b/ leaked to sibling /bx (prefix confusion)")
	}
}

// TestACLDefaultScopedToTargetThroughPod exercises the same fix end to
// end through Pod.Authorize.
func TestACLDefaultScopedToTargetThroughPod(t *testing.T) {
	pod := NewPod(aliceID, "https://alice.pod")
	root := NewACL(aliceID, "/")
	root.Grant("bob-b", []WebID{bobID}, "/b/", true, ModeRead)
	if err := pod.SetACL(aliceID, "/", root); err != nil {
		t.Fatal(err)
	}
	if err := pod.Put(aliceID, "/a/secret.txt", "text/plain", []byte("s"), podEpoch); err != nil {
		t.Fatal(err)
	}
	if err := pod.Put(aliceID, "/b/open.txt", "text/plain", []byte("o"), podEpoch); err != nil {
		t.Fatal(err)
	}
	if _, err := pod.Get(bobID, "/b/open.txt"); err != nil {
		t.Fatalf("read inside default target: %v", err)
	}
	if _, err := pod.Get(bobID, "/a/secret.txt"); !errors.Is(err, ErrForbidden) {
		t.Fatalf("default grant on /b/ must not open /a/: %v", err)
	}
}

// TestACLWriteImpliesAppend pins the mode subsumption added with POST
// support.
func TestACLWriteImpliesAppend(t *testing.T) {
	acl := NewACL(aliceID, "/r")
	acl.Grant("bob-write", []WebID{bobID}, "/r", false, ModeWrite)
	acl.Grant("eve-append", []WebID{eveID}, "/r", false, ModeAppend)

	if !acl.Allows(bobID, "/r", ModeAppend, false) {
		t.Error("Write grant does not satisfy Append")
	}
	if acl.Allows(eveID, "/r", ModeWrite, false) {
		t.Error("Append grant satisfied Write")
	}
}
