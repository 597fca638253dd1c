package solid

import (
	"bytes"
	"fmt"
	"math/bits"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/store"
)

var persistEpoch = time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC)

const (
	persistOwner  = WebID("https://alice.example/profile#me")
	persistReader = WebID("https://reader.example/profile#me")
)

// restartPod closes a durable pod and reopens it from the same dir.
func restartPod(t *testing.T, p *Pod, dir string, opts store.Options) *Pod {
	t.Helper()
	if err := p.CloseStore(); err != nil {
		t.Fatal(err)
	}
	p2, err := OpenPod(p.owner, p.BaseURL(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p2.CloseStore() })
	return p2
}

// requireSamePod asserts the restarted pod serves identical content:
// resource bytes, ETags, modification times, ACL generation, and the
// reader's authorization outcomes.
func requireSamePod(t *testing.T, restored, original *Pod, paths ...string) {
	t.Helper()
	if g, w := restored.ACLGeneration(), original.ACLGeneration(); g != w {
		t.Fatalf("ACL generation = %d, want %d", g, w)
	}
	for _, path := range paths {
		want, wantErr := original.Get(original.owner, path)
		got, gotErr := restored.Get(restored.owner, path)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: err %v vs %v", path, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("%s: bytes differ after restart", path)
		}
		if got.ETag != want.ETag {
			t.Fatalf("%s: ETag %s != %s", path, got.ETag, want.ETag)
		}
		if !got.Modified.Equal(want.Modified) {
			t.Fatalf("%s: Modified %v != %v", path, got.Modified, want.Modified)
		}
		if got.ContentType != want.ContentType {
			t.Fatalf("%s: content type %q != %q", path, got.ContentType, want.ContentType)
		}
		wantAuth := original.Authorize(persistReader, path, ModeRead)
		gotAuth := restored.Authorize(persistReader, path, ModeRead)
		if (wantAuth == nil) != (gotAuth == nil) {
			t.Fatalf("%s: reader auth %v vs %v", path, gotAuth, wantAuth)
		}
	}
	wc, wb := original.Stats()
	gc, gb := restored.Stats()
	if wc != gc || wb != gb {
		t.Fatalf("stats (%d,%d) != (%d,%d)", gc, gb, wc, wb)
	}
}

// TestPodRestartRoundTrip: puts, appends, an ACL grant, and a delete all
// survive a restart with identical ETags and ACL generation.
func TestPodRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	clk := simclock.NewSim(persistEpoch)
	opts := store.Options{Sync: store.SyncNever}
	p, err := OpenPod(persistOwner, "https://alice.pod", dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	put := func(path, body string) {
		t.Helper()
		clk.Advance(time.Second)
		if err := p.Put(persistOwner, path, "text/plain", []byte(body), clk.Now()); err != nil {
			t.Fatal(err)
		}
	}
	put("/notes/a.txt", "alpha")
	put("/notes/b.txt", "beta")
	put("/notes/a.txt", "alpha v2") // overwrite
	if _, _, err := p.Append(persistOwner, "/notes/a.txt", "", []byte(" + more"), clk.Now()); err != nil {
		t.Fatal(err)
	}
	acl := NewACL(persistOwner, "/notes/")
	acl.Grant("reader", []WebID{persistReader}, "/notes/", true, ModeRead)
	if err := p.SetACL(persistOwner, "/notes/", acl); err != nil {
		t.Fatal(err)
	}
	put("/tmp/doomed.txt", "gone soon")
	if err := p.Delete(persistOwner, "/tmp/doomed.txt"); err != nil {
		t.Fatal(err)
	}

	p2 := restartPod(t, p, dir, opts)
	requireSamePod(t, p2, p, "/notes/a.txt", "/notes/b.txt", "/tmp/doomed.txt")
	if err := p2.Authorize(persistReader, "/notes/a.txt", ModeRead); err != nil {
		t.Fatalf("granted reader denied after restart: %v", err)
	}
	if err := p2.Authorize(persistReader, "/notes/a.txt", ModeWrite); err == nil {
		t.Fatal("reader gained write access across restart")
	}
	// The restored pod keeps journaling: mutate, restart again, verify.
	put2 := func(pd *Pod, path, body string) {
		t.Helper()
		clk.Advance(time.Second)
		if err := pd.Put(persistOwner, path, "text/plain", []byte(body), clk.Now()); err != nil {
			t.Fatal(err)
		}
	}
	put2(p2, "/notes/c.txt", "gamma")
	p3 := restartPod(t, p2, dir, opts)
	requireSamePod(t, p3, p2, "/notes/a.txt", "/notes/b.txt", "/notes/c.txt")
}

// TestPodRestartPostMinting: server-assigned POST child names never
// collide across a restart (the postSeq counter is restored).
func TestPodRestartPostMinting(t *testing.T) {
	dir := t.TempDir()
	opts := store.Options{Sync: store.SyncNever}
	p, err := OpenPod(persistOwner, "https://alice.pod", dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := p.Append(persistOwner, "/inbox/", "text/plain", []byte("one"), persistEpoch)
	if err != nil {
		t.Fatal(err)
	}
	p2 := restartPod(t, p, dir, opts)
	second, _, err := p2.Append(persistOwner, "/inbox/", "text/plain", []byte("two"), persistEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if first == second {
		t.Fatalf("restart re-minted %s", first)
	}
	if got, err := p2.Get(persistOwner, first); err != nil || string(got.Data) != "one" {
		t.Fatalf("first minted child lost: %q, %v", got, err)
	}
}

// openPodWithFloor opens a durable pod and lowers its snapshot floor:
// the in-package seam for tests that need snapshots on a pod far smaller
// than store.SnapshotFloor. With floor 1 the rule alone decides.
func openPodWithFloor(t *testing.T, dir string, floor int64) *Pod {
	t.Helper()
	p, err := OpenPod(persistOwner, "https://alice.pod", dir, store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.persist.floor = floor
	p.mu.Unlock()
	return p
}

// TestPodRestartWithSnapshots: a pod that outgrows its snapshots
// produces snapshot files, prunes them, and restores identically from
// snapshot+tail — the tail counters included, so a pod that restarts
// often still reaches its next snapshot.
func TestPodRestartWithSnapshots(t *testing.T) {
	dir := t.TempDir()
	p := openPodWithFloor(t, dir, 1)
	var paths []string
	for i := range 11 {
		path := filepath.Join("/data", string(rune('a'+i))+".txt")
		paths = append(paths, path)
		if err := p.Put(persistOwner, path, "text/plain", []byte{byte(i)}, persistEpoch); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := store.ListSnapshots(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no pod snapshots written: %v, %v", seqs, err)
	}
	if seqs[0] == 0 || seqs[0] >= 11 {
		t.Fatalf("newest snapshot at op %d, want snapshot+tail", seqs[0])
	}
	if len(seqs) > podSnapshotsKept {
		t.Fatalf("%d snapshots kept, want <= %d", len(seqs), podSnapshotsKept)
	}
	p2 := restartPod(t, p, dir, store.Options{Sync: store.SyncNever})
	requireSamePod(t, p2, p, paths...)
	if g, w := *p2.persist, *p.persist; g.ops != w.ops || g.tailBytes != w.tailBytes || g.snapBytes != w.snapBytes {
		t.Fatalf("restarted with ops/tail/snapshot %d/%d/%d, want %d/%d/%d",
			g.ops, g.tailBytes, g.snapBytes, w.ops, w.tailBytes, w.snapBytes)
	}
}

// TestLocalZonePodRecovers: solid-server stamps a PUT's Modified from
// the wall clock, whose times carry the Local zone rather than UTC. Op log
// and snapshot alike must restore them: a codec that refused those times
// would find a CRC-valid record it cannot decode and truncate from it. CI
// runs this under a non-UTC TZ too.
func TestLocalZonePodRecovers(t *testing.T) {
	dir := t.TempDir()
	p := openPodWithFloor(t, dir, 1)
	at := persistEpoch.In(time.Local)
	var paths []string
	for i := range 5 {
		path := fmt.Sprintf("/data/%d.txt", i)
		paths = append(paths, path)
		if err := p.Put(persistOwner, path, "text/plain", []byte{byte(i)}, at.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if seqs, err := store.ListSnapshots(dir); err != nil || len(seqs) == 0 || seqs[0] >= 5 {
		t.Fatalf("want a snapshot and an op-log tail, have snapshots %v (%v)", seqs, err)
	}
	p2 := restartPod(t, p, dir, store.Options{Sync: store.SyncNever})
	requireSamePod(t, p2, p, paths...)
}

// TestJSONACLPodIsRefused: testdata/json-acl-pod is a pod dir written in
// the previous record format, under TZ=Asia/Kathmandu: its Modified times
// carry the Local zone's offset and its ACL is a JSON blob. Opening it
// fails with an error that says to start from an empty directory, and the
// dir is left as it was rather than truncated.
func TestJSONACLPodIsRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "json-acl-pod"))); err != nil {
		t.Fatal(err)
	}
	files := []string{podLogName, "snap-0000000000000002.snap"}
	before := make([][]byte, len(files))
	for i, file := range files {
		raw, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		before[i] = raw
	}
	if !bytes.Contains(before[0], []byte(`"Authorizations":[`)) {
		t.Fatal("the op log holds no JSON ACL")
	}
	p, err := OpenPod(persistOwner, "https://alice.pod", dir, store.Options{Sync: store.SyncNever})
	if err == nil {
		p.CloseStore()
		t.Fatal("a pod dir of the previous format opened")
	}
	if !strings.Contains(err.Error(), "start from an empty directory") {
		t.Errorf("err = %v, want one telling to start from an empty directory", err)
	}
	for i, file := range files {
		if after, err := os.ReadFile(filepath.Join(dir, file)); err != nil || !bytes.Equal(after, before[i]) {
			t.Errorf("the refused %s changed (%d bytes, was %d; %v)", file, len(after), len(before[i]), err)
		}
	}
}

// TestPodSnapshotRule: the pod layer snapshots by the same rule as the
// chain (store.SnapshotDue against the last snapshot's size). A pod that
// grows by equal-size PUTs writes O(log N) snapshots; a pod rewritten in
// place 10 000 times under the real floor writes at most one per floor's
// worth of op log.
func TestPodSnapshotRule(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 100)
	for _, tc := range []struct {
		name  string
		floor int64
		ops   int
		path  func(i int) string
		limit func(logBytes int64) int
	}{
		{"growing", 2048, 2000, func(i int) string { return fmt.Sprintf("/data/%04d.txt", i) },
			func(b int64) int { return bits.Len64(uint64(b/2048)) + 1 }},
		{"rewritten-in-place", store.SnapshotFloor, 10_000, func(int) string { return "/data/hot.txt" },
			func(b int64) int { return int(b / store.SnapshotFloor) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			p := openPodWithFloor(t, dir, tc.floor)
			snapshots := 0
			for i := range tc.ops {
				if err := p.Put(persistOwner, tc.path(i), "text/plain", body, persistEpoch); err != nil {
					t.Fatal(err)
				}
				if p.persist.tailBytes == 0 {
					snapshots++
				}
			}
			logBytes := p.persist.wal.Size()
			if limit := tc.limit(logBytes); snapshots == 0 || snapshots > limit {
				t.Fatalf("%d snapshots over %d ops (%d log bytes), want 1..%d", snapshots, tc.ops, logBytes, limit)
			}
			p2 := restartPod(t, p, dir, store.Options{Sync: store.SyncNever})
			requireSamePod(t, p2, p, tc.path(0), tc.path(tc.ops-1))
		})
	}
}

// TestPodRestartTornOpLog: a torn tail in the pod op log recovers to the
// last complete op.
func TestPodRestartTornOpLog(t *testing.T) {
	dir := t.TempDir()
	opts := store.Options{Sync: store.SyncNever}
	p, err := OpenPod(persistOwner, "https://alice.pod", dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Put(persistOwner, "/a.txt", "text/plain", []byte("kept"), persistEpoch); err != nil {
		t.Fatal(err)
	}
	if err := p.Put(persistOwner, "/b.txt", "text/plain", []byte("torn away"), persistEpoch); err != nil {
		t.Fatal(err)
	}
	if err := p.CloseStore(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, podLogName)
	info, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	p2, err := OpenPod(persistOwner, "https://alice.pod", dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.CloseStore()
	if _, err := p2.Get(persistOwner, "/a.txt"); err != nil {
		t.Fatalf("intact op lost: %v", err)
	}
	if _, err := p2.Get(persistOwner, "/b.txt"); err == nil {
		t.Fatal("torn op resurrected")
	}
	if got := p2.ACLGeneration(); got != 1 {
		t.Fatalf("ACL generation = %d, want 1 (one surviving op)", got)
	}
}

// TestHostPersistenceRestart: a durable pod mounted on a host, closed and
// reopened over the same directory on a new host, serves identical
// content through HTTP-visible state (ETag and ACL generation), without
// re-seeding.
func TestHostPersistenceRestart(t *testing.T) {
	dataDir := t.TempDir()
	clk := simclock.NewSim(persistEpoch)
	dir := NewMapDirectory()
	opts := store.Options{Sync: store.SyncNever}

	boot := func() (*Pod, *httptest.Server) {
		h := NewHost()
		srv := httptest.NewServer(h)
		pod, err := OpenPod(persistOwner, srv.URL+PodRoutePrefix+"alice", dataDir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Mount("alice", NewServer(pod, dir, clk, nil)); err != nil {
			t.Fatal(err)
		}
		return pod, srv
	}
	pod, srv := boot()
	if err := pod.Put(persistOwner, "/pub/hello.txt", "text/plain", []byte("hello"), clk.Now()); err != nil {
		t.Fatal(err)
	}
	res, err := pod.Get(persistOwner, "/pub/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	wantETag, wantGen := res.ETag, pod.ACLGeneration()
	srv.Close()
	if err := pod.CloseStore(); err != nil {
		t.Fatal(err)
	}

	pod2, srv2 := boot()
	defer srv2.Close()
	defer pod2.CloseStore()
	res2, err := pod2.Get(persistOwner, "/pub/hello.txt")
	if err != nil {
		t.Fatalf("restored pod lost its resource: %v", err)
	}
	if res2.ETag != wantETag {
		t.Fatalf("ETag %s != %s after host restart", res2.ETag, wantETag)
	}
	if pod2.ACLGeneration() != wantGen {
		t.Fatalf("ACL generation %d != %d after host restart", pod2.ACLGeneration(), wantGen)
	}
}

// TestPodCorruptSnapshotFallsBack: a byte-flipped pod snapshot is
// ignored in favour of a full op-log replay.
func TestPodCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	opts := store.Options{Sync: store.SyncNever}
	p := openPodWithFloor(t, dir, 1)
	for i := range 4 {
		if err := p.Put(persistOwner, "/f.txt", "text/plain", []byte{byte(i)}, persistEpoch); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.CloseStore(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := store.ListSnapshots(dir)
	if len(seqs) == 0 {
		t.Fatal("no snapshot to corrupt")
	}
	for _, seq := range seqs {
		path := filepath.Join(dir, "snap-"+"0000000000000000"[:16-len(hex16(seq))]+hex16(seq)+".snap")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p2, err := OpenPod(persistOwner, "https://alice.pod", dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.CloseStore()
	requireSamePod(t, p2, p, "/f.txt")
}

// hex16 renders seq in lowercase hex without leading zeros (test helper
// for snapshot filenames).
func hex16(seq uint64) string {
	const digits = "0123456789abcdef"
	if seq == 0 {
		return "0"
	}
	var buf []byte
	for seq > 0 {
		buf = append([]byte{digits[seq%16]}, buf...)
		seq /= 16
	}
	return string(buf)
}

// TestPodMutationInvisibleOnLogFailure: a durable pod whose op log
// refuses an append reports the error AND leaves the pod untouched —
// the failed write is never served, and the ACL generation does not
// advance past what the log holds.
func TestPodMutationInvisibleOnLogFailure(t *testing.T) {
	dir := t.TempDir()
	opts := store.Options{Sync: store.SyncNever}
	p, err := OpenPod(persistOwner, "https://alice.pod", dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Put(persistOwner, "/ok.txt", "text/plain", []byte("logged"), persistEpoch); err != nil {
		t.Fatal(err)
	}
	genBefore := p.ACLGeneration()

	// Sabotage the store: close the log out from under the pod.
	if err := p.persist.wal.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Put(persistOwner, "/lost.txt", "text/plain", []byte("x"), persistEpoch); err == nil {
		t.Fatal("Put succeeded with a dead op log")
	}
	if _, err := p.Get(persistOwner, "/lost.txt"); err == nil {
		t.Fatal("unjournaled write is being served")
	}
	if err := p.Delete(persistOwner, "/ok.txt"); err == nil {
		t.Fatal("Delete succeeded with a dead op log")
	}
	if _, err := p.Get(persistOwner, "/ok.txt"); err != nil {
		t.Fatalf("journaled resource vanished after a failed delete: %v", err)
	}
	if acl := NewACL(persistOwner, "/"); p.SetACL(persistOwner, "/", acl) == nil {
		t.Fatal("SetACL succeeded with a dead op log")
	}
	if _, _, err := p.Append(persistOwner, "/inbox/", "text/plain", []byte("x"), persistEpoch); err == nil {
		t.Fatal("container POST succeeded with a dead op log")
	}
	if got := p.ACLGeneration(); got != genBefore {
		t.Fatalf("ACL generation advanced to %d despite log failures (was %d)", got, genBefore)
	}

	// A reopened pod matches exactly what the log holds.
	p2, err := OpenPod(persistOwner, "https://alice.pod", dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.CloseStore()
	if _, err := p2.Get(persistOwner, "/ok.txt"); err != nil {
		t.Fatalf("journaled resource lost: %v", err)
	}
	if p2.ACLGeneration() != genBefore {
		t.Fatalf("restored generation %d != %d", p2.ACLGeneration(), genBefore)
	}
}

// TestPodRefusesOversizedPut: a PUT at MaxBodyBytes makes an op record
// above store.MaxRecordSize, which recovery would read as corruption and
// truncate from. The op log refuses it, so the PUT fails, the pod serves
// what it served before, and a later PUT survives a reopen.
func TestPodRefusesOversizedPut(t *testing.T) {
	dir := t.TempDir()
	opts := store.Options{Sync: store.SyncAlways}
	p, err := OpenPod(persistOwner, "https://alice.pod", dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Put(persistOwner, "/small.txt", "text/plain", []byte("ok"), persistEpoch); err != nil {
		t.Fatal(err)
	}
	if err := p.Put(persistOwner, "/big.bin", "application/octet-stream", make([]byte, MaxBodyBytes), persistEpoch); err == nil {
		t.Fatal("a PUT whose op record exceeds store.MaxRecordSize was acknowledged")
	}
	if _, err := p.Get(persistOwner, "/big.bin"); err == nil {
		t.Fatal("the refused PUT is being served")
	}
	if err := p.Put(persistOwner, "/after.txt", "text/plain", []byte("later"), persistEpoch); err != nil {
		t.Fatal(err)
	}
	p2 := restartPod(t, p, dir, opts)
	requireSamePod(t, p2, p, "/small.txt", "/big.bin", "/after.txt")
	if _, err := p2.Get(persistOwner, "/after.txt"); err != nil {
		t.Fatalf("a PUT after the refused one lost across a reopen: %v", err)
	}
}

// TestPodOpCodecRoundTrip: binary pod op and snapshot records decode
// back to equivalent structures, and a payload that opens with '{' (what
// PR 4 wrote with json.Marshal) is rejected like any other unknown tag.
func TestPodOpCodecRoundTrip(t *testing.T) {
	acl := NewACL(persistOwner, "/notes/")
	acl.Grant("reader", []WebID{persistReader}, "/notes/", true, ModeRead)
	ops := []podOp{
		{Kind: podOpPut, Path: "/a.bin", ContentType: "application/octet-stream",
			Data: []byte{0, 1, 2, 0xfe, 0xff}, Modified: persistEpoch, PostSeq: 3},
		{Kind: podOpDel, Path: "/a.bin", PostSeq: 4},
		{Kind: podOpACL, Path: "/notes/", ACL: acl, PostSeq: 4},
	}
	for i, want := range ops {
		got, err := decodePodOp(encodePodOp(&want))
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		requireSamePodOp(t, got, want)
	}
	if _, err := decodePodOp([]byte(`{"kind":"del","path":"/a.bin"}`)); err == nil {
		t.Fatal("JSON pod op decoded")
	}
	if _, err := decodePodSnapshot([]byte(`{"ops":9,"resources":[]}`)); err == nil {
		t.Fatal("JSON pod snapshot decoded")
	}
	if _, err := decodePodOp([]byte{tagPodOp, 99}); err == nil {
		t.Fatal("unknown kind byte decoded")
	}

	snap := &podSnapshot{
		Ops: 9, PostSeq: 2, ACLGen: 7,
		Resources: []*Resource{
			{Path: "/z.bin", ContentType: "application/octet-stream",
				Data: bytes.Repeat([]byte{0xAB}, 1000), Modified: persistEpoch, ETag: ETagFor(bytes.Repeat([]byte{0xAB}, 1000))},
			{Path: "/a.txt", ContentType: "text/plain", Data: []byte("hi"),
				Modified: persistEpoch.Add(time.Hour), ETag: ETagFor([]byte("hi"))},
		},
		ACLs: map[string]*ACL{"/notes/": acl},
	}
	payload := encodePodSnapshot(snap)
	if again := encodePodSnapshot(snap); !bytes.Equal(payload, again) {
		t.Fatal("pod snapshot encoding is not deterministic")
	}
	got, err := decodePodSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ops != 9 || got.PostSeq != 2 || got.ACLGen != 7 {
		t.Fatalf("snapshot counters = %+v", got)
	}
	if len(got.Resources) != 2 || len(got.ACLs) != 1 {
		t.Fatalf("snapshot shape = %+v", got)
	}
	for _, want := range snap.Resources {
		var found *Resource
		for _, r := range got.Resources {
			if r.Path == want.Path {
				found = r
			}
		}
		if found == nil || !bytes.Equal(found.Data, want.Data) || found.ETag != want.ETag ||
			found.ContentType != want.ContentType || !found.Modified.Equal(want.Modified) {
			t.Fatalf("resource %s = %+v, want %+v", want.Path, found, want)
		}
	}
}

func requireSamePodOp(t *testing.T, got, want podOp) {
	t.Helper()
	if got.Kind != want.Kind || got.Path != want.Path || got.ContentType != want.ContentType ||
		!bytes.Equal(got.Data, want.Data) || !got.Modified.Equal(want.Modified) || got.PostSeq != want.PostSeq {
		t.Fatalf("op = %+v, want %+v", got, want)
	}
	if (got.ACL == nil) != (want.ACL == nil) {
		t.Fatalf("op ACL presence differs: %+v vs %+v", got.ACL, want.ACL)
	}
	if got.ACL != nil && !reflect.DeepEqual(got.ACL, want.ACL) {
		t.Fatalf("op ACL = %+v, want %+v", got.ACL, want.ACL)
	}
}
