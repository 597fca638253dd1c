package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
	"repro/internal/obs"
	"repro/internal/podmanager"
	"repro/internal/policy"
	"repro/internal/solid"
)

// Regression tests for cross-layer bugs shaken out by the scenario
// engine (internal/scenario) during its development.

// TestGrantDoesNotRevokeEarlierConsumers: GrantAccess used to install a
// fresh ACL containing only the newest consumer, so granting consumer B
// silently revoked consumer A's read access — A's later (paid) fetch got
// 403. The scenario engine's acl-isolation invariant caught it; grants
// must merge into the resource's ACL.
func TestGrantDoesNotRevokeEarlierConsumers(t *testing.T) {
	d, err := NewDeployment(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()

	owner, iri := ownerWithResource(d, "owner", 512, nil)
	a, err := d.NewConsumer("aaa", policy.PurposeAny)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.NewConsumer("bbb", policy.PurposeAny)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.Grant(ctx, a, "/data/r.bin", policy.PurposeAny); err != nil {
		t.Fatal(err)
	}
	if err := owner.Grant(ctx, b, "/data/r.bin", policy.PurposeAny); err != nil {
		t.Fatal(err)
	}

	// Both consumers must hold effective read access after both grants.
	if err := a.Access(ctx, iri); err != nil {
		t.Fatalf("first-granted consumer lost access after a later grant: %v", err)
	}
	if err := b.Access(ctx, iri); err != nil {
		t.Fatalf("second-granted consumer has no access: %v", err)
	}
	// A repeated grant of the same consumer must stay idempotent at the
	// ACL layer (no duplicate authorizations piling up).
	pod := owner.Manager.Pod()
	acl, err := pod.GetACL(owner.WebID, "/data/r.bin")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, auth := range acl.Authorizations {
		seen[auth.ID]++
		if seen[auth.ID] > 1 {
			t.Fatalf("duplicate authorization %q in merged ACL", auth.ID)
		}
	}
}

// TestBackendSurvivesNodeZeroFailure: the deployment backend used to pin
// node 0 for receipt waits, queries, and nonce reads. With node 0 failed
// the cluster still seals (clique fallback), but every client call hung
// forever on node 0's frozen ledger — a deadlock the scenario engine's
// node-restart faults exposed. The backend must follow a live node.
func TestBackendSurvivesNodeZeroFailure(t *testing.T) {
	d, err := NewDeployment(Config{Validators: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	owner, err := d.NewOwner("owner")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.FailValidator(0); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := owner.InitializePod(ctx, nil); err != nil {
		t.Fatalf("on-chain call with node 0 down: %v", err)
	}

	// Node 0 recovers and syncs the blocks it missed.
	synced, err := d.RecoverValidator(0)
	if err != nil {
		t.Fatal(err)
	}
	if synced == 0 {
		t.Fatal("recovered node 0 synced no blocks")
	}
	if d.Nodes[0].Head().Hash() != d.Nodes[1].Head().Hash() {
		t.Fatal("node 0 disagrees with the cluster after recovery")
	}
}

// TestTakeSnapshotTracksLiveness: snapshots report only live heads and
// reflect chain/market progress.
func TestTakeSnapshotTracksLiveness(t *testing.T) {
	d, err := NewDeployment(Config{Validators: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	before := d.TakeSnapshot()
	if len(before.LiveHeads) != 2 {
		t.Fatalf("live heads = %d, want 2", len(before.LiveHeads))
	}

	owner, err := d.NewOwner("owner")
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.InitializePod(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if err := d.FailValidator(1); err != nil {
		t.Fatal(err)
	}

	after := d.TakeSnapshot()
	if after.Height <= before.Height {
		t.Fatalf("height did not advance: %d -> %d", before.Height, after.Height)
	}
	if after.TotalGas <= before.TotalGas {
		t.Fatalf("gas did not advance: %d -> %d", before.TotalGas, after.TotalGas)
	}
	if len(after.LiveHeads) != 1 {
		t.Fatalf("live heads after failure = %d, want 1", len(after.LiveHeads))
	}
	if _, ok := after.LiveHeads[1]; ok {
		t.Fatal("failed validator 1 still listed among live heads")
	}
}

// TestFailValidatorRefusesLastLiveNode: taking down the last live
// validator can only deadlock clients, so the hook must refuse.
func TestFailValidatorRefusesLastLiveNode(t *testing.T) {
	d, err := NewDeployment(Config{Validators: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.FailValidator(1); err != nil {
		t.Fatal(err)
	}
	if err := d.FailValidator(0); err == nil {
		t.Fatal("failing the last live validator was allowed")
	}
	if d.ValidatorDown(0) {
		t.Fatal("refused failure still marked the validator down")
	}
}

// TestConcurrentSealOnSubmit: every Owner has its own submission backend
// (its own mutex), so two goroutines under SealOnSubmit call
// Network.SealNext at once. Unserialized, both read the same height and
// pick the same in-turn proposer, and the loser's Seal finds the height
// taken: "not this node's turn to propose". SealNext is serialized by a
// network-level mutex; run with -race.
func TestConcurrentSealOnSubmit(t *testing.T) {
	d, err := NewDeployment(Config{Validators: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()

	const iterations = 200
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range iterations {
				owner, err := d.NewOwner(fmt.Sprintf("g%do%d", g, i))
				if err != nil {
					t.Errorf("goroutine %d, iteration %d: NewOwner: %v", g, i, err)
					return
				}
				if err := owner.InitializePod(ctx, nil); err != nil {
					t.Errorf("goroutine %d, iteration %d: InitializePod: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	head := d.Nodes[0].Head().Hash()
	for _, n := range d.Nodes[1:] {
		if n.Head().Hash() != head {
			t.Fatalf("validator %s diverged", n.Address().Short())
		}
	}
}

// TestMountedPodReportsAuthCache: owner pods are built by the pod
// manager and mounted with Host.Mount, which used to skip the pod's
// metrics wiring — solid_auth_cache_total read 0 in every deployment. A
// granted GET through such a pod must move the counter.
func TestMountedPodReportsAuthCache(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := NewDeployment(Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()

	owner, iri := ownerWithResource(d, "owner", 512, nil)
	consumer, err := d.NewConsumer("ccc", policy.PurposeAny)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.Grant(ctx, consumer, "/data/r.bin", policy.PurposeAny); err != nil {
		t.Fatal(err)
	}
	outcomes := func() uint64 {
		const name, help = "solid_auth_cache_total", "ACL decision cache outcomes"
		return reg.Counter(name, help, obs.L("outcome", "hit")).Value() +
			reg.Counter(name, help, obs.L("outcome", "miss")).Value()
	}
	before := outcomes()
	if err := consumer.Access(ctx, iri); err != nil {
		t.Fatal(err)
	}
	if after := outcomes(); after <= before {
		t.Fatalf("solid_auth_cache_total stayed at %d across a granted GET", after)
	}
}

// TestMountedPodCountsReplays: Host.Mount used to wire the host's
// instruments into an owner's pod but not into the pod's server, so
// solid_nonce_replays_total read 0 in every deployment. A signed GET
// replayed verbatim to an owner's pod must count once.
func TestMountedPodCountsReplays(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := NewDeployment(Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	owner, err := d.NewOwner("owner")
	if err != nil {
		t.Fatal(err)
	}

	var signed http.Header
	client := solid.NewClient(owner.WebID, owner.Key, d.Clock)
	client.Decorate = func(r *http.Request) { signed = r.Header.Clone() }
	url := owner.URL() + "/profile"
	if _, _, err := client.Get(url); err != nil {
		t.Fatal(err)
	}
	replay, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	replay.Header = signed
	resp, err := http.DefaultClient.Do(replay)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("replayed GET answered %d, want 401", resp.StatusCode)
	}
	replays := reg.Counter("solid_nonce_replays_total", "verified requests rejected for a reused nonce")
	if got := replays.Value(); got != 1 {
		t.Fatalf("solid_nonce_replays_total = %d after one replay, want 1", got)
	}
}

// TestRefusedGrantLeavesNoUnmonitoredCopy: a copy a consumer's TEE holds
// must be one the DE App monitors. GrantAccess used to write the ACL read
// grant before the DE App judged the grant, so when recordGrant refused
// it (a purpose the policy forbids) the consumer could still fetch the
// resource; the TEE stored it, confirmRetrieval was refused ("no grant"),
// the app kept the copy, and every monitoring round had no target for it.
// Now the ACL grant follows the on-chain one, and a copy whose retrieval
// the DE App refuses to confirm is erased.
func TestRefusedGrantLeavesNoUnmonitoredCopy(t *testing.T) {
	const path = "/data/r.bin"
	ctx := context.Background()
	boot := func(t *testing.T) (*Owner, string, *Consumer) {
		d := newDeployment(t, Config{})
		owner, iri := ownerWithResource(d, "owner", 512, func(p *policy.Policy) {
			p.AllowedPurposes = []policy.Purpose{policy.PurposeMedicalResearch}
		})
		return owner, iri, must(d.NewConsumer("marketer", policy.PurposeMarketing))
	}
	held := func(t *testing.T, owner *Owner, iri string, c *Consumer) {
		t.Helper()
		if c.App.Holds(iri) {
			t.Error("the TEE holds a copy the DE App does not know of")
		}
		round, err := owner.Manager.StartMonitoring(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		if len(round.Targets) != 0 {
			t.Errorf("round targets %v, want none", round.Targets)
		}
	}

	t.Run("refused grant opens no pod access", func(t *testing.T) {
		owner, iri, c := boot(t)
		err := owner.Grant(ctx, c, path, policy.PurposeMarketing)
		var revert *distexchange.RevertError
		if !errors.As(err, &revert) || !strings.Contains(revert.Reason, "not permitted") {
			t.Fatalf("grant for marketing: %v, want the recordGrant refusal", err)
		}
		if err := owner.Manager.Pod().Authorize(c.WebID, path, solid.ModeRead); err == nil {
			t.Error("the refused grant left the consumer read access to the pod resource")
		}
		if err := c.Access(ctx, iri); err == nil {
			t.Error("access after a refused grant succeeded")
		}
		held(t, owner, iri, c)
	})

	t.Run("refused confirmation erases the copy", func(t *testing.T) {
		// Read access with no on-chain grant: the owner edits the ACL
		// directly, as any Solid client of the pod may.
		owner, iri, c := boot(t)
		acl := solid.NewACL(owner.WebID, path)
		acl.Grant("direct", []solid.WebID{c.WebID}, path, false, solid.ModeRead)
		if err := owner.Manager.Pod().SetACL(owner.WebID, path, acl); err != nil {
			t.Fatal(err)
		}
		err := c.Access(ctx, iri)
		var revert *distexchange.RevertError
		if !errors.As(err, &revert) || !strings.Contains(revert.Reason, "no grant") {
			t.Fatalf("access without an on-chain grant: %v, want the confirmRetrieval refusal", err)
		}
		held(t, owner, iri, c)
	})
}

// TestRefusedPolicyUpdateLeavesPodUnchanged: ModifyPolicy used to Put the
// new policy document into the pod before the DE App judged the update,
// so a v2 that updatePolicy refused (an action outside the vocabulary)
// still replaced the pod's v1 document while the ledger stayed at v1. The
// ledger is written first now.
func TestRefusedPolicyUpdateLeavesPodUnchanged(t *testing.T) {
	const path = "/data/r.bin"
	ctx := context.Background()
	d := newDeployment(t, Config{})
	owner, iri := ownerWithResource(d, "owner", 64, nil)
	v1, err := owner.Manager.Pod().Get(owner.WebID, podmanager.PolicyPath(path))
	if err != nil {
		t.Fatal(err)
	}
	v1Doc := append([]byte(nil), v1.Data...)

	v2 := owner.NewPolicy(path)
	v2.Version = 2
	v2.AllowedActions = []policy.Action{"exfiltrate"}
	err = owner.ModifyPolicy(ctx, path, v2)
	var revert *distexchange.RevertError
	if !errors.As(err, &revert) || !strings.Contains(revert.Reason, "unknown action") {
		t.Fatalf("modify to an unknown action: %v, want the updatePolicy refusal", err)
	}
	doc, err := owner.Manager.Pod().Get(owner.WebID, podmanager.PolicyPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc.Data, v1Doc) {
		t.Errorf("the refused v2 changed the pod's policy document:\n%s", doc.Data)
	}
	rec, err := owner.Manager.DE().GetResource(iri)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Policy.Version != 1 {
		t.Errorf("ledger policy v%d, want v1", rec.Policy.Version)
	}
}

// TestRefusedPublishLeavesPodUnchanged: Publish used to store the policy
// document before registerResource was judged, so a registration the DE
// App refused left a policy document for a resource that is not on the
// market. Now the pod gains neither the document nor a listing: a
// consumer the owner let read the resource through its ACL reads it
// without a payment certificate, under plain WAC.
func TestRefusedPublishLeavesPodUnchanged(t *testing.T) {
	const path = "/data/fresh.bin"
	ctx := context.Background()
	d := newDeployment(t, Config{})
	owner := must(d.NewOwner("owner"))
	must0(owner.InitializePod(ctx, nil))
	must0(owner.AddResource(path, "application/octet-stream", []byte("fresh")))
	c := must(d.NewConsumer("reader", policy.PurposeAny))
	acl := solid.NewACL(owner.WebID, path)
	acl.Grant("direct", []solid.WebID{c.WebID}, path, false, solid.ModeRead)
	must0(owner.Manager.Pod().SetACL(owner.WebID, path, acl))

	pol := owner.NewPolicy(path)
	pol.AllowedActions = []policy.Action{"exfiltrate"}
	_, err := owner.Publish(ctx, path, "refused resource", pol)
	var revert *distexchange.RevertError
	if !errors.As(err, &revert) || !strings.Contains(revert.Reason, "invalid policy") {
		t.Fatalf("publish with an unknown action: %v, want the registerResource refusal", err)
	}
	if _, err := owner.Manager.Pod().Get(owner.WebID, podmanager.PolicyPath(path)); !errors.Is(err, solid.ErrNotFound) {
		t.Errorf("policy document after the refused registration: %v, want not found", err)
	}
	data, _, err := solid.NewClient(c.WebID, c.Key, d.Clock).Get(owner.Manager.ResourceIRI(path))
	if err != nil {
		t.Fatalf("plain WAC read of an unlisted resource: %v", err)
	}
	if string(data) != "fresh" {
		t.Fatalf("read %q", data)
	}
}

// TestHookLedgerReadAllocations pins what a pod manager's access hook pays
// to ask the ledger on every consumer request, on a real deployment: the
// query's arguments and the node's copy of the stored record. The query
// reads its argument in place, and the reply's policy is walked, not
// decoded.
func TestHookLedgerReadAllocations(t *testing.T) {
	d := newDeployment(t, Config{})
	owner, iri := ownerWithResource(d, "owner", 64, nil)
	de := owner.Manager.DE()
	var (
		who    cryptoutil.Address
		listed bool
		err    error
	)
	allocs := testing.AllocsPerRun(100, func() { who, listed, err = de.ResourceListing(iri) })
	if err != nil || !listed || who != owner.Key.Address() {
		t.Fatalf("listing: owner %s, listed %v, %v; want the owner's live record", who, listed, err)
	}
	if allocs > 2 {
		t.Errorf("hook ledger read: %.1f allocations, want ≤ 2", allocs)
	}
}
