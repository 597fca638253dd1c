package solid

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/store"
)

// podScriptPaths are the paths a pod script writes. The res-00000N names
// are the ones a POST to /inbox/ mints, so a PUT there makes a later mint
// skip an existing resource.
var podScriptPaths = []string{
	"/a.txt", "/docs/b.txt", "/docs/c.bin", "/inbox/res-000002", "/inbox/res-000003", "/docs/deep/d.txt",
}

// runPodScript drives p through steps seeded mutations: PutResource,
// Append (to a container, to a missing resource and to an existing one),
// Delete and SetACL, by the owner and now and then by a reader the pod
// may refuse. About one step in six is made with an op log that refuses
// every append (a closed WAL swapped in for that step only), so the
// mutation fails. It returns the pod it ends on: every reopenEvery
// steps (0: never) the pod is closed and reopened from dir, compared
// with the pod it was, and the script goes on with the reopened one.
func runPodScript(t *testing.T, p *Pod, dir string, seed int64, steps, reopenEvery int) *Pod {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dead, _, err := store.OpenWAL(filepath.Join(t.TempDir(), "dead.wal"), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := dead.Close(); err != nil {
		t.Fatal(err)
	}
	contentTypes := []string{"", "text/plain", "application/octet-stream"}
	now := persistEpoch
	for i := range steps {
		now = now.Add(time.Duration(1+rng.Intn(5000)) * time.Millisecond)
		agent := persistOwner
		if rng.Intn(5) == 0 {
			agent = persistReader
		}
		fail := rng.Intn(6) == 0
		live := p.persist.wal
		if fail {
			p.persist.wal = dead
		}
		path := podScriptPaths[rng.Intn(len(podScriptPaths))]
		data := bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, rng.Intn(40))
		ct := contentTypes[rng.Intn(len(contentTypes))]
		var err error
		switch rng.Intn(6) {
		case 0:
			_, _, err = p.PutResource(agent, path, ct, data, now)
		case 1:
			container := []string{"/inbox/", "/docs/"}[rng.Intn(2)]
			_, _, err = p.Append(agent, container, ct, data, now)
		case 2:
			_, _, err = p.Append(agent, path, ct, data, now)
		case 3:
			err = p.Delete(agent, path)
		case 4:
			target := []string{"/", "/docs/", "/inbox/", path}[rng.Intn(4)]
			acl := NewACL(persistOwner, target)
			modes := []AccessMode{ModeRead, ModeAppend, ModeWrite}[:1+rng.Intn(3)]
			acl.Grant(fmt.Sprintf("g%d", i), []WebID{persistReader}, target, rng.Intn(2) == 0, modes...)
			if rng.Intn(3) == 0 {
				acl.GrantPublic("public", target, true, ModeRead)
			}
			err = p.SetACL(agent, target, acl)
		default:
			// A second write to the same path in one step: an Append
			// that extends what the PUT before it stored.
			if _, _, err = p.PutResource(agent, path, ct, data, now); err == nil {
				_, _, err = p.Append(agent, path, "text/plain", data[:len(data)/2], now)
			}
		}
		p.persist.wal = live
		if fail && err == nil {
			t.Fatalf("seed %d step %d: a mutation with a refusing op log succeeded", seed, i)
		}
		if reopenEvery > 0 && (i+1)%reopenEvery == 0 {
			floor := p.persist.floor
			restored := restartPod(t, p, dir, store.Options{Sync: store.SyncNever})
			requireSamePodState(t, restored, p)
			restored.persist.floor = floor
			p = restored
		}
	}
	return p
}

// requireSamePodState asserts restored holds exactly what live holds:
// every resource (bytes, ETag, content type, modified time), every ACL
// document, the POST counter and the ACL generation.
func requireSamePodState(t *testing.T, restored, live *Pod) {
	t.Helper()
	if g, w := restored.ACLGeneration(), live.ACLGeneration(); g != w {
		t.Fatalf("ACL generation = %d, want %d", g, w)
	}
	if restored.postSeq != live.postSeq {
		t.Fatalf("POST counter = %d, want %d", restored.postSeq, live.postSeq)
	}
	if g, w := slices.Sorted(maps.Keys(restored.resources)), slices.Sorted(maps.Keys(live.resources)); !slices.Equal(g, w) {
		t.Fatalf("resources = %v, want %v", g, w)
	}
	for path, want := range live.resources {
		got := restored.resources[path]
		if !bytes.Equal(got.Data, want.Data) || got.ETag != want.ETag ||
			got.ContentType != want.ContentType || !got.Modified.Equal(want.Modified) || got.Path != want.Path {
			t.Fatalf("%s = %+v, want %+v", path, got, want)
		}
	}
	if g, w := slices.Sorted(maps.Keys(restored.acls)), slices.Sorted(maps.Keys(live.acls)); !slices.Equal(g, w) {
		t.Fatalf("ACL paths = %v, want %v", g, w)
	}
	for path, want := range live.acls {
		if !bytes.Equal(appendACL(nil, restored.acls[path]), appendACL(nil, want)) {
			t.Fatalf("ACL at %s = %+v, want %+v", path, restored.acls[path], want)
		}
	}
}

// TestLivePodEqualsRestored: after any seeded mix of mutations, some of
// them refused by the op log, a pod reopened from its directory equals
// the live pod it was — from the whole log, and from snapshot plus tail.
func TestLivePodEqualsRestored(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, floor := range []int64{store.SnapshotFloor, 256} {
			t.Run(fmt.Sprintf("seed%d/floor%d", seed, floor), func(t *testing.T) {
				dir := t.TempDir()
				p := openPodWithFloor(t, dir, floor)
				p = runPodScript(t, p, dir, seed, 150, 37)
				restored := restartPod(t, p, dir, store.Options{Sync: store.SyncNever})
				requireSamePodState(t, restored, p)
			})
		}
	}
}

// TestFrozenPodOpLog pins the op log one fixed script writes, byte for
// byte: the records, their order and which mutations reach the log.
func TestFrozenPodOpLog(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPod(persistOwner, "https://alice.pod", dir, store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	p = runPodScript(t, p, dir, 41, 200, 0)
	if err := p.CloseStore(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, podLogName))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	const want = "1f0ea097001a6a1e6450e9e060cbbecc001bce8e9fd27cb2cf43dc423b5d1136"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("op log (%d bytes) SHA-256 = %s, want %s", len(raw), got, want)
	}
}
