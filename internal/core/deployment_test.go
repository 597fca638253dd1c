package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/distexchange"
	"repro/internal/policy"
	"repro/internal/solid"
	"repro/internal/tee"
)

func newDeployment(t *testing.T, cfg Config) *Deployment {
	t.Helper()
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func must[T any](v T, err error) T {
	must0(err)
	return v
}

func must0(err error) {
	if err != nil {
		panic(err)
	}
}

// ownerWithResource boots an owner with one published resource of the
// given size and policy mutator.
func ownerWithResource(d *Deployment, name string, size int, mutate func(*policy.Policy)) (*Owner, string) {
	ctx := context.Background()
	o := must(d.NewOwner(name))
	must0(o.InitializePod(ctx, nil))
	data := bytes.Repeat([]byte("x"), size)
	must0(o.AddResource("/data/r.bin", "application/octet-stream", data))
	pol := o.NewPolicy("/data/r.bin")
	if mutate != nil {
		mutate(pol)
	}
	iri := must(o.Publish(ctx, "/data/r.bin", "exp resource", pol))
	return o, iri
}

// aliceAndBob provisions the motivating scenario's principals: Alice owns
// a browsing dataset (30-day retention), Bob owns a medical dataset
// (medical purposes only); each is also a consumer of the other's data.
type scenario struct {
	d *Deployment

	alice      *Owner
	bob        *Owner
	aliceAsCon *Consumer // Alice the researcher (medical-research purpose)
	bobAsCon   *Consumer // Bob the web analyst (web-analytics purpose)

	browsingIRI string
	medicalIRI  string
}

func newScenario(t *testing.T, cfg Config) *scenario {
	t.Helper()
	d := newDeployment(t, cfg)
	ctx := context.Background()

	alice, err := d.NewOwner("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := d.NewOwner("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.InitializePod(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if err := bob.InitializePod(ctx, nil); err != nil {
		t.Fatal(err)
	}

	// Alice's internet-browsing dataset: delete one month after storage.
	if err := alice.AddResource("/web/browsing.csv", "text/csv", []byte("url,ts\nexample.org,1")); err != nil {
		t.Fatal(err)
	}
	browsingPol := alice.NewPolicy("/web/browsing.csv")
	browsingPol.MaxRetention = 30 * 24 * time.Hour
	browsingIRI, err := alice.Publish(ctx, "/web/browsing.csv", "internet browsing dataset", browsingPol)
	if err != nil {
		t.Fatal(err)
	}

	// Bob's medical dataset: medical purposes only.
	if err := bob.AddResource("/medical/ds1.ttl", "text/turtle", []byte("@prefix ex: <http://e/> .\nex:p ex:hasCondition ex:c .")); err != nil {
		t.Fatal(err)
	}
	medicalPol := bob.NewPolicy("/medical/ds1.ttl")
	medicalPol.AllowedPurposes = []policy.Purpose{policy.PurposeMedicalResearch}
	medicalIRI, err := bob.Publish(ctx, "/medical/ds1.ttl", "medical dataset", medicalPol)
	if err != nil {
		t.Fatal(err)
	}

	aliceAsCon, err := d.NewConsumer("alice-researcher", policy.PurposeMedicalResearch)
	if err != nil {
		t.Fatal(err)
	}
	bobAsCon, err := d.NewConsumer("bob-analyst", policy.PurposeWebAnalytics)
	if err != nil {
		t.Fatal(err)
	}

	return &scenario{
		d: d, alice: alice, bob: bob,
		aliceAsCon: aliceAsCon, bobAsCon: bobAsCon,
		browsingIRI: browsingIRI, medicalIRI: medicalIRI,
	}
}

func TestProcess1PodInitiation(t *testing.T) {
	d := newDeployment(t, Config{})
	ctx := context.Background()
	alice, err := d.NewOwner("alice")
	if err != nil {
		t.Fatal(err)
	}
	def := policy.New(alice.URL()+"/", string(alice.WebID), d.Clock.Now())
	if err := alice.InitializePod(ctx, def); err != nil {
		t.Fatal(err)
	}
	rec, err := alice.Manager.DE().GetPod(string(alice.WebID))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Location != alice.URL()+"/" || rec.DefaultPolicy == nil {
		t.Fatalf("pod record = %+v", rec)
	}
}

func TestProcess2And3ResourceInitiationAndIndexing(t *testing.T) {
	s := newScenario(t, Config{})

	// Alice (as researcher) indexes Bob's medical resource via pull-out.
	rec, err := s.aliceAsCon.Index(s.medicalIRI)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Location != s.medicalIRI {
		t.Fatalf("location = %s", rec.Location)
	}
	if rec.Policy == nil || !rec.Policy.PermitsPurpose(policy.PurposeMedicalResearch) {
		t.Fatalf("policy = %+v", rec.Policy)
	}
	// The catalog lists both resources.
	catalog, err := s.aliceAsCon.DE.ListResources()
	if err != nil {
		t.Fatal(err)
	}
	if len(catalog) != 2 {
		t.Fatalf("catalog = %d entries", len(catalog))
	}
}

func TestProcess4ResourceAccess(t *testing.T) {
	s := newScenario(t, Config{})
	ctx := context.Background()

	// Without a grant, access fails at the pod (no ACL).
	if err := s.aliceAsCon.Access(ctx, s.medicalIRI); err == nil {
		t.Fatal("access without grant succeeded")
	}

	// Bob grants Alice's researcher identity.
	if err := s.bob.Grant(ctx, s.aliceAsCon, "/medical/ds1.ttl", policy.PurposeMedicalResearch); err != nil {
		t.Fatal(err)
	}
	if err := s.aliceAsCon.Access(ctx, s.medicalIRI); err != nil {
		t.Fatal(err)
	}

	// The copy lives in the TEE and is usable under the policy.
	data, err := s.aliceAsCon.Use(s.medicalIRI, policy.ActionUse)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty resource data")
	}

	// Retrieval is confirmed on-chain.
	grants, err := s.bob.Manager.DE().GetGrants(s.medicalIRI)
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) != 1 || grants[0].RetrievedAt.IsZero() {
		t.Fatalf("grants = %+v", grants)
	}

	// The market collected two fees: the fee is paid before the pod is
	// contacted (the paper's order: get a certificate proving payment,
	// then present it), so the denied first attempt also paid.
	if s.d.Market.Payments() != 2 {
		t.Fatalf("payments = %d", s.d.Market.Payments())
	}
}

func TestProcess5PolicyModificationAliceScenario(t *testing.T) {
	s := newScenario(t, Config{})
	ctx := context.Background()

	// Bob the analyst retrieves Alice's browsing data.
	if err := s.alice.Grant(ctx, s.bobAsCon, "/web/browsing.csv", policy.PurposeWebAnalytics); err != nil {
		t.Fatal(err)
	}
	if err := s.bobAsCon.Access(ctx, s.browsingIRI); err != nil {
		t.Fatal(err)
	}
	if !s.bobAsCon.App.Holds(s.browsingIRI) {
		t.Fatal("copy not in TEE")
	}

	// Two days later Alice shortens retention to one week.
	s.d.Clock.Advance(2 * 24 * time.Hour)
	v2 := s.alice.NewPolicy("/web/browsing.csv")
	v2.Version = 2
	v2.MaxRetention = 7 * 24 * time.Hour
	if err := s.alice.ModifyPolicy(ctx, "/web/browsing.csv", v2); err != nil {
		t.Fatal(err)
	}
	// The push-out oracle delivers the update to Bob's device.
	if err := s.bobAsCon.WaitPolicyVersion(s.browsingIRI, 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Five more days (day 7 after retrieval): the copy is erased.
	s.d.Clock.Advance(5*24*time.Hour + time.Minute)
	if s.bobAsCon.App.Holds(s.browsingIRI) {
		t.Fatal("copy survived the shortened retention")
	}
	if _, err := s.bobAsCon.Use(s.browsingIRI, policy.ActionUse); !errors.Is(err, tee.ErrDeleted) {
		t.Fatalf("use after erasure: %v", err)
	}
}

// TestPolicyModificationAfterUnpublish: withdrawing a resource from the
// market leaves its holders' copies governed by its policy, so the owner
// may still change that policy. Alice unpublishes her browsing data, then
// shortens retention to a week; Bob's TEE reaches the new version and
// erases his copy at the new deadline.
func TestPolicyModificationAfterUnpublish(t *testing.T) {
	s := newScenario(t, Config{})
	ctx := context.Background()
	if err := s.alice.Grant(ctx, s.bobAsCon, "/web/browsing.csv", policy.PurposeWebAnalytics); err != nil {
		t.Fatal(err)
	}
	if err := s.bobAsCon.Access(ctx, s.browsingIRI); err != nil {
		t.Fatal(err)
	}
	if err := s.alice.Unpublish(ctx, "/web/browsing.csv"); err != nil {
		t.Fatal(err)
	}

	s.d.Clock.Advance(2 * 24 * time.Hour)
	v2 := s.alice.NewPolicy("/web/browsing.csv")
	v2.Version = 2
	v2.MaxRetention = 7 * 24 * time.Hour
	if err := s.alice.ModifyPolicy(ctx, "/web/browsing.csv", v2); err != nil {
		t.Fatalf("modify after unpublish: %v", err)
	}
	if err := s.bobAsCon.WaitPolicyVersion(s.browsingIRI, 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	s.d.Clock.Advance(5*24*time.Hour - time.Minute)
	if !s.bobAsCon.App.Holds(s.browsingIRI) {
		t.Fatal("copy erased before the new deadline")
	}
	s.d.Clock.Advance(2 * time.Minute)
	if s.bobAsCon.App.Holds(s.browsingIRI) {
		t.Fatal("copy survived the new deadline")
	}
	if _, err := s.bobAsCon.Use(s.browsingIRI, policy.ActionUse); !errors.Is(err, tee.ErrDeleted) {
		t.Fatalf("use after erasure: %v", err)
	}
}

func TestProcess5PolicyModificationBobScenario(t *testing.T) {
	s := newScenario(t, Config{})
	ctx := context.Background()

	// Alice the researcher (medical-research AND academic context in the
	// paper; here her declared purpose is medical-research) retrieves
	// Bob's data.
	if err := s.bob.Grant(ctx, s.aliceAsCon, "/medical/ds1.ttl", policy.PurposeMedicalResearch); err != nil {
		t.Fatal(err)
	}
	if err := s.aliceAsCon.Access(ctx, s.medicalIRI); err != nil {
		t.Fatal(err)
	}

	// Bob changes the allowed purpose to academic only.
	v2 := s.bob.NewPolicy("/medical/ds1.ttl")
	v2.Version = 2
	v2.AllowedPurposes = []policy.Purpose{policy.PurposeAcademic}
	if err := s.bob.ModifyPolicy(ctx, "/medical/ds1.ttl", v2); err != nil {
		t.Fatal(err)
	}
	if err := s.aliceAsCon.WaitPolicyVersion(s.medicalIRI, 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Alice's researcher app (medical-research) has its use revoked...
	if _, err := s.aliceAsCon.Use(s.medicalIRI, policy.ActionUse); !errors.Is(err, tee.ErrUseRevoked) {
		t.Fatalf("use after purpose narrowing: %v", err)
	}
	// ...but the copy itself remains (no retention obligation).
	if !s.aliceAsCon.App.Holds(s.medicalIRI) {
		t.Fatal("copy deleted on purpose change")
	}
}

// TestPushOutAppliesPolicyUpdateBeforeModifyReturns: with sealing on
// submission, the push-out oracle hands a PolicyUpdated event to the
// holder's TEE while the update's block commits on the oracle's
// validator, so the copy follows the new policy by the time ModifyPolicy
// returns — on a three-validator cluster, whoever proposes.
func TestPushOutAppliesPolicyUpdateBeforeModifyReturns(t *testing.T) {
	s := newScenario(t, Config{Validators: 3})
	ctx := context.Background()
	if err := s.bob.Grant(ctx, s.aliceAsCon, "/medical/ds1.ttl", policy.PurposeMedicalResearch); err != nil {
		t.Fatal(err)
	}
	if err := s.aliceAsCon.Access(ctx, s.medicalIRI); err != nil {
		t.Fatal(err)
	}
	for version := uint64(2); version <= 4; version++ {
		next := s.bob.NewPolicy("/medical/ds1.ttl")
		next.Version = version
		if err := s.bob.ModifyPolicy(ctx, "/medical/ds1.ttl", next); err != nil {
			t.Fatal(err)
		}
		if got := s.aliceAsCon.App.PolicyVersion(s.medicalIRI); got != version {
			t.Fatalf("TEE holds policy v%d when ModifyPolicy to v%d returned", got, version)
		}
	}
}

func TestProcess5PolicyUpdateUnaffectedHolder(t *testing.T) {
	// The paper: "As Alice is using an application in the medical research
	// domain for a university hospital, changes do not affect her access
	// grants." Model: an academic-purpose consumer keeps using Bob's data
	// after he narrows the policy to academic.
	d := newDeployment(t, Config{})
	ctx := context.Background()
	bob, err := d.NewOwner("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := bob.InitializePod(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if err := bob.AddResource("/medical/ds1.ttl", "text/turtle", []byte("x")); err != nil {
		t.Fatal(err)
	}
	pol := bob.NewPolicy("/medical/ds1.ttl")
	pol.AllowedPurposes = []policy.Purpose{policy.PurposeMedicalResearch, policy.PurposeAcademic}
	iri, err := bob.Publish(ctx, "/medical/ds1.ttl", "", pol)
	if err != nil {
		t.Fatal(err)
	}
	academic, err := d.NewConsumer("uni-hospital", policy.PurposeAcademic)
	if err != nil {
		t.Fatal(err)
	}
	if err := bob.Grant(ctx, academic, "/medical/ds1.ttl", policy.PurposeAcademic); err != nil {
		t.Fatal(err)
	}
	if err := academic.Access(ctx, iri); err != nil {
		t.Fatal(err)
	}
	v2 := bob.NewPolicy("/medical/ds1.ttl")
	v2.Version = 2
	v2.AllowedPurposes = []policy.Purpose{policy.PurposeAcademic}
	if err := bob.ModifyPolicy(ctx, "/medical/ds1.ttl", v2); err != nil {
		t.Fatal(err)
	}
	if err := academic.WaitPolicyVersion(iri, 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := academic.Use(iri, policy.ActionUse); err != nil {
		t.Fatalf("unaffected holder blocked: %v", err)
	}
}

func TestProcess6PolicyMonitoringCompliant(t *testing.T) {
	s := newScenario(t, Config{})
	ctx := context.Background()

	if err := s.alice.Grant(ctx, s.bobAsCon, "/web/browsing.csv", policy.PurposeWebAnalytics); err != nil {
		t.Fatal(err)
	}
	if err := s.bobAsCon.Access(ctx, s.browsingIRI); err != nil {
		t.Fatal(err)
	}
	if _, err := s.bobAsCon.Use(s.browsingIRI, policy.ActionUse); err != nil {
		t.Fatal(err)
	}

	evidence, violations, err := s.alice.Monitor(ctx, "/web/browsing.csv")
	if err != nil {
		t.Fatal(err)
	}
	if len(evidence) != 1 {
		t.Fatalf("evidence = %+v", evidence)
	}
	ev := evidence[0].Evidence
	if !ev.StillStored || ev.UseCount != 1 || ev.Device != s.bobAsCon.Device.Address() {
		t.Fatalf("evidence content = %+v", ev)
	}
	if len(violations) != 0 {
		t.Fatalf("violations = %+v", violations)
	}
}

func TestProcess6MonitoringDetectsRogueDevice(t *testing.T) {
	s := newScenario(t, Config{})
	ctx := context.Background()

	if err := s.alice.Grant(ctx, s.bobAsCon, "/web/browsing.csv", policy.PurposeWebAnalytics); err != nil {
		t.Fatal(err)
	}
	if err := s.bobAsCon.Access(ctx, s.browsingIRI); err != nil {
		t.Fatal(err)
	}
	// Bob's device stops enforcing deletion; 31 days pass (past the
	// 30-day retention).
	s.bobAsCon.App.SetRogue(true)
	s.d.Clock.Advance(31 * 24 * time.Hour)
	if !s.bobAsCon.App.Holds(s.browsingIRI) {
		t.Fatal("rogue device deleted anyway")
	}

	_, violations, err := s.alice.Monitor(ctx, "/web/browsing.csv")
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 || violations[0].Kind != distexchange.ViolationRetention {
		t.Fatalf("violations = %+v", violations)
	}
	if violations[0].Device != s.bobAsCon.Device.Address() {
		t.Fatalf("violation device = %s", violations[0].Device)
	}
}

func TestProcess6MonitoringDetectsUnresponsiveDevice(t *testing.T) {
	s := newScenario(t, Config{})
	ctx := context.Background()

	if err := s.alice.Grant(ctx, s.bobAsCon, "/web/browsing.csv", policy.PurposeWebAnalytics); err != nil {
		t.Fatal(err)
	}
	if err := s.bobAsCon.Access(ctx, s.browsingIRI); err != nil {
		t.Fatal(err)
	}
	// The device goes offline: the pull-in oracle can no longer reach it.
	s.d.PullIn().UnregisterSource(s.bobAsCon.Device.Address())
	s.d.grace = 100 * time.Millisecond // don't wait long for the silent device

	_, violations, err := s.alice.Monitor(ctx, "/web/browsing.csv")
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 || violations[0].Kind != distexchange.ViolationUnresponsive {
		t.Fatalf("violations = %+v", violations)
	}
}

// TestFullMotivatingScenario walks Section II end to end with both
// principals on a 3-validator network.
func TestFullMotivatingScenario(t *testing.T) {
	s := newScenario(t, Config{Validators: 3})
	ctx := context.Background()

	// Cross-grants: Alice gets Bob's medical data, Bob gets Alice's
	// browsing data.
	if err := s.bob.Grant(ctx, s.aliceAsCon, "/medical/ds1.ttl", policy.PurposeMedicalResearch); err != nil {
		t.Fatal(err)
	}
	if err := s.alice.Grant(ctx, s.bobAsCon, "/web/browsing.csv", policy.PurposeWebAnalytics); err != nil {
		t.Fatal(err)
	}
	if err := s.aliceAsCon.Access(ctx, s.medicalIRI); err != nil {
		t.Fatal(err)
	}
	if err := s.bobAsCon.Access(ctx, s.browsingIRI); err != nil {
		t.Fatal(err)
	}

	// Both use their copies locally.
	if _, err := s.aliceAsCon.Use(s.medicalIRI, policy.ActionUse); err != nil {
		t.Fatal(err)
	}
	if _, err := s.bobAsCon.Use(s.browsingIRI, policy.ActionUse); err != nil {
		t.Fatal(err)
	}

	// Alice checks compliance of her dataset; Bob's device provides
	// evidence.
	evidence, violations, err := s.alice.Monitor(ctx, "/web/browsing.csv")
	if err != nil {
		t.Fatal(err)
	}
	if len(evidence) != 1 || len(violations) != 0 {
		t.Fatalf("monitor: evidence=%d violations=%d", len(evidence), len(violations))
	}

	// After two days, Alice shortens retention to a week; Bob modifies
	// his policy to academic.
	s.d.Clock.Advance(48 * time.Hour)
	aliceV2 := s.alice.NewPolicy("/web/browsing.csv")
	aliceV2.Version = 2
	aliceV2.MaxRetention = 7 * 24 * time.Hour
	if err := s.alice.ModifyPolicy(ctx, "/web/browsing.csv", aliceV2); err != nil {
		t.Fatal(err)
	}
	bobV2 := s.bob.NewPolicy("/medical/ds1.ttl")
	bobV2.Version = 2
	bobV2.AllowedPurposes = []policy.Purpose{policy.PurposeAcademic}
	if err := s.bob.ModifyPolicy(ctx, "/medical/ds1.ttl", bobV2); err != nil {
		t.Fatal(err)
	}
	if err := s.bobAsCon.WaitPolicyVersion(s.browsingIRI, 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.aliceAsCon.WaitPolicyVersion(s.medicalIRI, 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Alice's data is erased from Bob's device after the new expiry.
	s.d.Clock.Advance(5*24*time.Hour + time.Minute)
	if s.bobAsCon.App.Holds(s.browsingIRI) {
		t.Fatal("Alice's data survived on Bob's device")
	}
	// Alice's use of Bob's data is revoked (her purpose is now
	// disallowed).
	if _, err := s.aliceAsCon.Use(s.medicalIRI, policy.ActionUse); !errors.Is(err, tee.ErrUseRevoked) {
		t.Fatalf("Alice's use after Bob's change: %v", err)
	}

	// All three validators agree on the ledger.
	h0 := s.d.Nodes[0].Head().Hash()
	for i, n := range s.d.Nodes[1:] {
		if n.Head().Hash() != h0 {
			t.Fatalf("validator %d diverged", i+1)
		}
	}
}

func TestManualSealingMode(t *testing.T) {
	d := newDeployment(t, Config{Sealing: SealManually})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()

	alice, err := d.NewOwner("alice")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- alice.InitializePod(ctx, nil) }()

	// The registration tx sits in mempools until a block is sealed.
	deadline := time.Now().Add(2 * time.Second)
	for d.Nodes[0].PendingTxs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tx never reached the mempool")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := d.SealBlock(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateAgentKeepsDirectoryKey: provisioning an owner or consumer
// under a name that is already taken is refused, and the refusal leaves
// the existing agent's directory key in place, so its signed requests
// still authenticate.
func TestDuplicateAgentKeepsDirectoryKey(t *testing.T) {
	d := newDeployment(t, Config{})
	owner := must(d.NewOwner("alice"))
	profile := owner.URL() + "/profile"

	t.Run("owner", func(t *testing.T) {
		if _, err := d.NewOwner("alice"); err == nil {
			t.Fatal("second owner alice was provisioned")
		}
		if key, _ := d.Directory.KeyFor(owner.WebID); !bytes.Equal(key, owner.Key.PublicBytes()) {
			t.Fatal("refused duplicate owner replaced the directory key")
		}
		if _, _, err := solid.NewClient(owner.WebID, owner.Key, d.Clock).Get(profile); err != nil {
			t.Fatalf("first owner's signed request: %v", err)
		}
	})
	t.Run("consumer", func(t *testing.T) {
		bob := must(d.NewConsumer("bob", policy.PurposeAny))
		if _, err := d.NewConsumer("bob", policy.PurposeAny); err == nil {
			t.Fatal("second consumer bob was provisioned")
		}
		if key, _ := d.Directory.KeyFor(bob.WebID); !bytes.Equal(key, bob.Key.PublicBytes()) {
			t.Fatal("refused duplicate consumer replaced the directory key")
		}
		if _, _, err := bob.http.Get(profile); err != nil {
			t.Fatalf("first consumer's signed request: %v", err)
		}
	})
}
