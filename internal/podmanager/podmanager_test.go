package podmanager

import (
	"context"
	"encoding/hex"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
	"repro/internal/market"
	"repro/internal/oracle"
	"repro/internal/policy"
	"repro/internal/simclock"
	"repro/internal/solid"
	"repro/internal/tee"
)

var t0 = time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC)

// env is a full pod-manager test environment: chain + DE App + market +
// HTTP server + a consumer with keys and a registered device identity.
type env struct {
	t       testing.TB
	clk     *simclock.Sim
	node    *chain.Node
	deAddr  cryptoutil.Address
	mkt     *market.Service
	dir     *solid.MapDirectory
	mgr     *Manager
	srv     *httptest.Server
	devKey  *cryptoutil.KeyPair // consumer device blockchain identity
	devCert []byte
	bobKey  *cryptoutil.KeyPair // consumer WebID key
	mgrKey  *cryptoutil.KeyPair // the owner's key: her WebID and the manager's chain identity
	queries *queryLog           // every DE App query the manager issued
}

// queryLog records read-only DE App queries.
type queryLog struct {
	mu    sync.Mutex
	calls []queryCall
}

type queryCall struct {
	method string
	args   string
}

const (
	aliceWebID = solid.WebID("https://alice.pod/profile#me")
	bobWebID   = solid.WebID("https://bob.example/profile#me")
)

// autoSeal wraps the node to seal after every submission; queries are
// noted in log when it is set.
type autoSeal struct {
	node *chain.Node
	log  *queryLog
}

func (b autoSeal) Submit(txs []*chain.Tx) []chain.TxVerdict {
	out := b.node.Submit(txs)
	if _, err := b.node.Seal(); err != nil {
		panic(err)
	}
	return out
}
func (b autoSeal) WaitForReceipt(ctx context.Context, h cryptoutil.Hash) (*chain.Receipt, error) {
	return b.node.WaitForReceipt(ctx, h)
}
func (b autoSeal) Query(c cryptoutil.Address, method string, args []byte) ([]byte, error) {
	if b.log != nil {
		b.log.mu.Lock()
		b.log.calls = append(b.log.calls, queryCall{method: method, args: string(args)})
		b.log.mu.Unlock()
	}
	return b.node.Query(c, method, args)
}
func (b autoSeal) NonceFor(a cryptoutil.Address) uint64 { return b.node.NonceFor(a) }

func newEnv(t testing.TB) *env {
	t.Helper()
	clk := simclock.NewSim(t0)

	ca, err := cryptoutil.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	rt := contract.NewRuntime()
	deAddr := rt.Deploy(distexchange.ContractName, distexchange.New(distexchange.Config{ManufacturerCAKey: ca.PublicBytes()}))
	authority := cryptoutil.MustGenerateKey()
	node, err := chain.NewNode(chain.Config{
		Key:         authority,
		Authorities: []cryptoutil.Address{authority.Address()},
		Executor:    rt,
		Clock:       clk,
		GenesisTime: t0,
	})
	if err != nil {
		t.Fatal(err)
	}

	mkt, err := market.NewService(clk)
	if err != nil {
		t.Fatal(err)
	}

	dir := solid.NewMapDirectory()
	aliceKey := cryptoutil.MustGenerateKey()
	bobKey := cryptoutil.MustGenerateKey()
	dir.Register(aliceWebID, aliceKey.PublicBytes())
	dir.Register(bobWebID, bobKey.PublicBytes())

	queries := &queryLog{}
	pushIn := oracle.NewPushIn(autoSeal{node: node, log: queries}, nil)
	mgr, err := New(Config{
		OwnerWebID: aliceWebID,
		BaseURL:    "https://alice.pod",
		Key:        aliceKey,
		Backend:    pushIn,
		DEAddr:     deAddr,
		Market:     market.VerifierFor(mkt),
		Directory:  dir,
		Clock:      clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mgr.Server())
	t.Cleanup(srv.Close)

	// Provision a consumer device certificate.
	devKey := cryptoutil.MustGenerateKey()
	var m cryptoutil.Hash
	copy(m[:], []byte("app-measurement-0123456789abcdef"))
	cert, err := ca.Issue(devKey, map[string]string{"measurement": hex.EncodeToString(m[:])}, t0, t0.Add(365*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	certRaw := cert.Encode()

	return &env{
		t: t, clk: clk, node: node, deAddr: deAddr, mkt: mkt, dir: dir,
		mgr: mgr, srv: srv, devKey: devKey, devCert: certRaw, bobKey: bobKey, mgrKey: aliceKey,
		queries: queries,
	}
}

// publish registers the pod and a resource with the given policy.
func (e *env) publish(pol *policy.Policy) string {
	e.t.Helper()
	ctx := context.Background()
	if err := e.mgr.RegisterPod(ctx, nil); err != nil {
		e.t.Fatal(err)
	}
	if err := e.mgr.Upload("/web/browsing.csv", "text/csv", []byte("r1,r2,r3")); err != nil {
		e.t.Fatal(err)
	}
	if err := e.mgr.Publish(ctx, aliceWebID, "/web/browsing.csv", "internet browsing dataset", pol); err != nil {
		e.t.Fatal(err)
	}
	return e.mgr.ResourceIRI("/web/browsing.csv")
}

// registerDevice registers the consumer device on-chain.
func (e *env) registerDevice() {
	e.t.Helper()
	devClient := distexchange.NewClient(autoSeal{node: e.node}, e.devKey, e.deAddr)
	if _, err := devClient.RegisterDevice(context.Background(), e.devCert); err != nil {
		e.t.Fatal(err)
	}
}

func browsingPolicy() *policy.Policy {
	p := policy.New("https://alice.pod/web/browsing.csv", string(aliceWebID), t0)
	p.MaxRetention = 30 * 24 * time.Hour
	return p
}

func TestRegisterPodAndPublish(t *testing.T) {
	e := newEnv(t)
	iri := e.publish(browsingPolicy())

	// On-chain record exists with the policy.
	rec, err := e.mgr.DE().GetResource(iri)
	if err != nil {
		t.Fatal(err)
	}
	if rec.PodWebID != string(aliceWebID) || rec.Policy.MaxRetention != 30*24*time.Hour {
		t.Fatalf("record = %+v", rec)
	}
	// Policy document stored in the pod as Turtle.
	res, err := e.mgr.Pod().Get(aliceWebID, PolicyPath("/web/browsing.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if res.ContentType != "text/turtle" {
		t.Fatalf("policy doc content type = %s", res.ContentType)
	}
}

// refusedUnregistered reports whether err is the DE App's refusal of a
// resource it has not registered.
func refusedUnregistered(err error) bool {
	var revert *distexchange.RevertError
	return errors.As(err, &revert) && strings.Contains(revert.Reason, "not registered")
}

func TestPublishRequiresResourceAndOwner(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	if err := e.mgr.RegisterPod(ctx, nil); err != nil {
		t.Fatal(err)
	}
	// Missing resource.
	if err := e.mgr.Publish(ctx, aliceWebID, "/nope.csv", "", nil); !errors.Is(err, ErrMissingInPod) {
		t.Fatalf("missing resource: %v", err)
	}
	// Non-owner without Control.
	if err := e.mgr.Upload("/web/browsing.csv", "text/csv", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := e.mgr.Publish(ctx, bobWebID, "/web/browsing.csv", "", nil); !errors.Is(err, ErrOwnerOnly) {
		t.Fatalf("non-owner publish: %v", err)
	}
}

// TestPublishWithoutPolicyIsUnconstrained: a resource published with no
// policy gets an unconstrained one bound to it.
func TestPublishWithoutPolicyIsUnconstrained(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	if err := e.mgr.RegisterPod(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.mgr.Upload("/public/readme.txt", "text/plain", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := e.mgr.Publish(ctx, aliceWebID, "/public/readme.txt", "", nil); err != nil {
		t.Fatal(err)
	}
	rec, err := e.mgr.DE().GetResource(e.mgr.ResourceIRI("/public/readme.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Policy.ResourceIRI != rec.ResourceIRI || rec.Policy.MaxRetention != 0 || len(rec.Policy.AllowedPurposes) != 0 {
		t.Fatalf("unexpected policy: %+v", rec.Policy)
	}
}

func TestResourceAccessWithCertificate(t *testing.T) {
	e := newEnv(t)
	iri := e.publish(browsingPolicy())
	e.registerDevice()
	ctx := context.Background()

	// Grant Bob access (ACL + on-chain grant).
	if err := e.mgr.GrantAccess(ctx, bobWebID, e.bobKey.Address(), e.devKey.Address(),
		"/web/browsing.csv", policy.PurposeWebAnalytics); err != nil {
		t.Fatal(err)
	}

	bob := solid.NewClient(bobWebID, e.bobKey, e.clk)

	// Without a certificate: denied by the market hook.
	if _, _, err := bob.Get(e.srv.URL + "/web/browsing.csv"); err == nil {
		t.Fatal("access without certificate succeeded")
	}

	// Bob registers with the market, subscribes, pays the fee.
	if err := e.mkt.Register(string(bobWebID), "bob@example.org", e.bobKey.Address(), e.bobKey.PublicBytes()); err != nil {
		t.Fatal(err)
	}
	if err := e.mkt.Subscribe(string(bobWebID), market.PlanBasic); err != nil {
		t.Fatal(err)
	}
	cert, err := e.mkt.PayFee(string(bobWebID), iri)
	if err != nil {
		t.Fatal(err)
	}
	decorate, err := AttachCertificate(cert)
	if err != nil {
		t.Fatal(err)
	}
	bob.Decorate = decorate

	data, _, err := bob.Get(e.srv.URL + "/web/browsing.csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "r1,r2,r3" {
		t.Fatalf("data = %q", data)
	}

	// A certificate for another resource is rejected.
	otherCert, err := e.mkt.PayFee(string(bobWebID), "https://elsewhere/r")
	if err != nil {
		t.Fatal(err)
	}
	bob.Decorate, err = AttachCertificate(otherCert)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bob.Get(e.srv.URL + "/web/browsing.csv"); err == nil {
		t.Fatal("certificate for another resource accepted")
	}

	// An expired certificate is rejected.
	bob.Decorate, _ = AttachCertificate(cert)
	e.clk.Advance(market.CertificateTTL + time.Hour)
	if _, _, err := bob.Get(e.srv.URL + "/web/browsing.csv"); err == nil {
		t.Fatal("expired certificate accepted")
	}
}

func TestOwnerAccessNeedsNoCertificate(t *testing.T) {
	e := newEnv(t)
	e.publish(browsingPolicy())
	alice := solid.NewClient(aliceWebID, e.mgrKey, e.clk)
	if _, _, err := alice.Get(e.srv.URL + "/web/browsing.csv"); err != nil {
		t.Fatalf("owner access: %v", err)
	}
}

func TestUnpublishedResourceSkipsCertificateCheck(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	if err := e.mgr.RegisterPod(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.mgr.Upload("/notes.txt", "text/plain", []byte("private-ish")); err != nil {
		t.Fatal(err)
	}
	acl := solid.NewACL(aliceWebID, "/notes.txt")
	acl.Grant("bob", []solid.WebID{bobWebID}, "/notes.txt", false, solid.ModeRead)
	if err := e.mgr.Pod().SetACL(aliceWebID, "/notes.txt", acl); err != nil {
		t.Fatal(err)
	}
	bob := solid.NewClient(bobWebID, e.bobKey, e.clk)
	if _, _, err := bob.Get(e.srv.URL + "/notes.txt"); err != nil {
		t.Fatalf("plain WAC access to unpublished resource: %v", err)
	}
}

func TestModifyPolicy(t *testing.T) {
	e := newEnv(t)
	iri := e.publish(browsingPolicy())
	ctx := context.Background()

	var updates atomic.Int32
	defer e.node.SubscribeEvents(chain.EventFilter{Topic: distexchange.TopicPolicyUpdated, Key: iri}, func(chain.Event) {
		updates.Add(1)
	})()
	v2 := browsingPolicy().NextVersion(e.clk.Now())
	v2.MaxRetention = 7 * 24 * time.Hour
	if err := e.mgr.ModifyPolicy(ctx, aliceWebID, "/web/browsing.csv", v2); err != nil {
		t.Fatal(err)
	}
	rec, err := e.mgr.DE().GetResource(iri)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Policy.Version != 2 || rec.Policy.MaxRetention != 7*24*time.Hour {
		t.Fatalf("on-chain policy = %+v", rec.Policy)
	}
	// PolicyUpdated event handed to push-out handlers by the time the
	// update's block committed.
	if n := updates.Load(); n != 1 {
		t.Fatalf("%d PolicyUpdated events delivered, want 1", n)
	}

	// Version regressions and non-owners are rejected.
	if err := e.mgr.ModifyPolicy(ctx, aliceWebID, "/web/browsing.csv", browsingPolicy()); err == nil {
		t.Fatal("stale version accepted")
	}
	v3 := v2.NextVersion(e.clk.Now())
	if err := e.mgr.ModifyPolicy(ctx, bobWebID, "/web/browsing.csv", v3); !errors.Is(err, ErrOwnerOnly) {
		t.Fatalf("non-owner modify: %v", err)
	}
	// Unpublished path.
	if err := e.mgr.ModifyPolicy(ctx, aliceWebID, "/other.csv", v3); !refusedUnregistered(err) {
		t.Fatalf("unpublished modify: %v", err)
	}
}

func TestMonitoringViaManager(t *testing.T) {
	e := newEnv(t)
	iri := e.publish(browsingPolicy())
	e.registerDevice()
	ctx := context.Background()

	if err := e.mgr.GrantAccess(ctx, bobWebID, e.bobKey.Address(), e.devKey.Address(),
		"/web/browsing.csv", policy.PurposeWebAnalytics); err != nil {
		t.Fatal(err)
	}
	// Device confirms retrieval so it becomes a monitoring target.
	devClient := distexchange.NewClient(autoSeal{node: e.node}, e.devKey, e.deAddr)
	if _, err := devClient.ConfirmRetrieval(ctx, iri); err != nil {
		t.Fatal(err)
	}

	round, err := e.mgr.StartMonitoring(ctx, "/web/browsing.csv")
	if err != nil {
		t.Fatal(err)
	}
	if len(round.Targets) != 1 {
		t.Fatalf("targets = %v", round.Targets)
	}

	// Nobody responds; collection closes the round and flags the device.
	evidence, violations, err := e.mgr.CollectMonitoring(ctx, "/web/browsing.csv", round.Round)
	if err != nil {
		t.Fatal(err)
	}
	if len(evidence) != 0 {
		t.Fatalf("evidence = %+v", evidence)
	}
	if len(violations) != 1 || violations[0].Kind != distexchange.ViolationUnresponsive {
		t.Fatalf("violations = %+v", violations)
	}
	// Collection reads the round's slice of the ledger, never the whole
	// history of the resource.
	listings := 0
	// getEvidence and getViolations take their arguments in one encoding.
	scoped := string(distexchange.GetEvidenceArgs{ResourceIRI: iri, Round: &round.Round}.AppendArgs(nil))
	for _, q := range e.queries.calls {
		if q.method != "getEvidence" && q.method != "getViolations" {
			continue
		}
		listings++
		if q.args != scoped {
			t.Errorf("%s query with arguments %x, want the round-scoped %x", q.method, q.args, scoped)
		}
	}
	if listings != 2 {
		t.Errorf("%d ledger listings, want one of evidence and one of violations", listings)
	}
	// The DE App refuses to monitor an unpublished resource.
	if _, err := e.mgr.StartMonitoring(ctx, "/other"); !refusedUnregistered(err) {
		t.Fatalf("unpublished monitoring: %v", err)
	}
}

// answerBeforeReport holds back a target's answer and delivers it just
// before the first reportUnresponsive it submits: the answer commits
// between CollectMonitoring's read of the round and its report.
type answerBeforeReport struct {
	autoSeal
	held *chain.Tx
}

func (b *answerBeforeReport) Submit(txs []*chain.Tx) []chain.TxVerdict {
	if b.held != nil && txs[0].Method == "reportUnresponsive" {
		if v := b.autoSeal.Submit([]*chain.Tx{b.held})[0]; v.Err != nil {
			panic(v.Err)
		}
		b.held = nil
	}
	return b.autoSeal.Submit(txs)
}

// TestCollectMonitoringAfterTheLastAnswerCloses: the round is open when
// CollectMonitoring reads it, and its last target's evidence commits
// before the report, which then reverts on a closed round. Collection
// still returns the round's evidence: the round closed normally.
func TestCollectMonitoringAfterTheLastAnswerCloses(t *testing.T) {
	e := newEnv(t)
	iri := e.publish(browsingPolicy())
	e.registerDevice()
	ctx := context.Background()
	if err := e.mgr.GrantAccess(ctx, bobWebID, e.bobKey.Address(), e.devKey.Address(),
		"/web/browsing.csv", policy.PurposeWebAnalytics); err != nil {
		t.Fatal(err)
	}
	devClient := distexchange.NewClient(autoSeal{node: e.node}, e.devKey, e.deAddr)
	if _, err := devClient.ConfirmRetrieval(ctx, iri); err != nil {
		t.Fatal(err)
	}
	round, err := e.mgr.StartMonitoring(ctx, "/web/browsing.csv")
	if err != nil {
		t.Fatal(err)
	}

	now := e.clk.Now()
	ev := distexchange.Evidence{ResourceIRI: iri, Device: e.devKey.Address(), Round: round.Round,
		PolicyVersion: 1, StillStored: true, RetrievedAt: now, GeneratedAt: now}
	sig, err := e.devKey.Sign(ev.SigningBytes())
	if err != nil {
		t.Fatal(err)
	}
	answer, err := chain.NewTx(e.devKey, e.node.NonceFor(e.devKey.Address()), e.deAddr, "submitEvidence",
		distexchange.SubmitEvidenceArgs{Signed: []distexchange.SignedEvidence{{Evidence: ev, Signature: sig}}},
		distexchange.DefaultGasLimit)
	if err != nil {
		t.Fatal(err)
	}
	backend := &answerBeforeReport{autoSeal: autoSeal{node: e.node}, held: answer}
	evidence, violations, err := e.managerOn(backend).CollectMonitoring(ctx, "/web/browsing.csv", round.Round)
	if backend.held != nil {
		t.Fatal("no report was submitted: the round read as closed")
	}
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if len(evidence) != 1 || evidence[0].Evidence.Device != e.devKey.Address() || len(violations) != 0 {
		t.Fatalf("evidence %+v, violations %+v; want the target's evidence and no violation", evidence, violations)
	}
}

func TestGrantAccessRequiresPublication(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	if err := e.mgr.RegisterPod(ctx, nil); err != nil {
		t.Fatal(err)
	}
	err := e.mgr.GrantAccess(ctx, bobWebID, e.bobKey.Address(), e.devKey.Address(), "/x", policy.PurposeAny)
	if !refusedUnregistered(err) {
		t.Fatalf("err = %v, want the recordGrant refusal", err)
	}
}

// freshManager builds a second manager with the owner's key over e's
// ledger, with a pod of its own.
func (e *env) freshManager() *Manager {
	e.t.Helper()
	return e.managerOn(autoSeal{node: e.node})
}

// managerOn builds, like freshManager, a second manager of the owner's
// pod over the same ledger, reaching the chain through backend.
func (e *env) managerOn(backend distexchange.Backend) *Manager {
	e.t.Helper()
	m, err := New(Config{
		OwnerWebID: aliceWebID,
		BaseURL:    "https://alice.pod",
		Key:        e.mgrKey,
		Backend:    oracle.NewPushIn(backend, nil),
		DEAddr:     e.deAddr,
		Market:     market.VerifierFor(e.mkt),
		Directory:  e.dir,
		Clock:      e.clk,
	})
	if err != nil {
		e.t.Fatal(err)
	}
	return m
}

// TestFreshManagerActsOnExistingLedger: what is published is the DE App's
// record, not the memory of the manager that published it. A second
// manager built with the owner's key over the same ledger modifies,
// unpublishes and monitors a resource the first one published.
func TestFreshManagerActsOnExistingLedger(t *testing.T) {
	e := newEnv(t)
	iri := e.publish(browsingPolicy())
	ctx := context.Background()
	fresh := e.freshManager()

	v2 := browsingPolicy().NextVersion(e.clk.Now())
	v2.MaxRetention = 7 * 24 * time.Hour
	if err := fresh.ModifyPolicy(ctx, aliceWebID, "/web/browsing.csv", v2); err != nil {
		t.Fatalf("modify: %v", err)
	}
	if err := fresh.Unpublish(ctx, aliceWebID, "/web/browsing.csv"); err != nil {
		t.Fatalf("unpublish: %v", err)
	}
	if _, err := fresh.StartMonitoring(ctx, "/web/browsing.csv"); err != nil {
		t.Fatalf("monitor: %v", err)
	}
	rec, err := fresh.DE().GetResource(iri)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Policy.Version != 2 || !rec.Withdrawn {
		t.Fatalf("ledger record: policy v%d, withdrawn=%v; want v2, withdrawn", rec.Policy.Version, rec.Withdrawn)
	}
	doc, err := fresh.Pod().Get(aliceWebID, PolicyPath("/web/browsing.csv"))
	if err != nil || !strings.Contains(string(doc.Data), `uc:version "2"`) {
		t.Fatalf("the accepted v2 did not reach the fresh manager's pod: %v", err)
	}
}

// letBobRead opens the resource at path of m's pod to Bob through its ACL
// alone: under plain WAC, Bob reads it with no certificate.
func (e *env) letBobRead(m *Manager, path string, data []byte) {
	e.t.Helper()
	if err := m.Upload(path, "text/plain", data); err != nil {
		e.t.Fatal(err)
	}
	acl := solid.NewACL(aliceWebID, path)
	acl.Grant("bob", []solid.WebID{bobWebID}, path, false, solid.ModeRead)
	if err := m.Pod().SetACL(aliceWebID, path, acl); err != nil {
		e.t.Fatal(err)
	}
}

// paidClient is Bob's client presenting a payment certificate for iri.
func (e *env) paidClient(iri string) *solid.Client {
	e.t.Helper()
	if err := e.mkt.Register(string(bobWebID), "bob@example.org", e.bobKey.Address(), e.bobKey.PublicBytes()); err != nil {
		e.t.Fatal(err)
	}
	if err := e.mkt.Subscribe(string(bobWebID), market.PlanBasic); err != nil {
		e.t.Fatal(err)
	}
	cert, err := e.mkt.PayFee(string(bobWebID), iri)
	if err != nil {
		e.t.Fatal(err)
	}
	bob := solid.NewClient(bobWebID, e.bobKey, e.clk)
	if bob.Decorate, err = AttachCertificate(cert); err != nil {
		e.t.Fatal(err)
	}
	return bob
}

// TestFreshManagerGuardsResourcesPublishedBeforeIt: a manager started over
// an existing ledger guards the resources published before it, because
// what is published is read from the DE App. It grants access to them,
// and the consumer reads with a payment certificate only.
func TestFreshManagerGuardsResourcesPublishedBeforeIt(t *testing.T) {
	e := newEnv(t)
	iri := e.publish(browsingPolicy())
	e.registerDevice()
	fresh := e.freshManager()
	if err := fresh.Upload("/web/browsing.csv", "text/csv", []byte("r1,r2,r3")); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(fresh.Server())
	defer srv.Close()

	if err := fresh.GrantAccess(context.Background(), bobWebID, e.bobKey.Address(), e.devKey.Address(),
		"/web/browsing.csv", policy.PurposeWebAnalytics); err != nil {
		t.Fatalf("grant on a resource published before the manager started: %v", err)
	}
	bob := solid.NewClient(bobWebID, e.bobKey, e.clk)
	if data, _, err := bob.Get(srv.URL + "/web/browsing.csv"); err == nil {
		t.Fatalf("consumer read %q without a certificate", data)
	}
	data, _, err := e.paidClient(iri).Get(srv.URL + "/web/browsing.csv")
	if err != nil || string(data) != "r1,r2,r3" {
		t.Fatalf("paid read: %q, %v", data, err)
	}
}

// TestWithdrawalElsewhereUnguardsAtOnce: a withdrawal that another manager
// of the pod makes unguards the resource for this one from the block it
// commits in: the consumer its ACL lets read reads under plain WAC. Hook
// checks run on other goroutines while the withdrawal commits; each finds
// the resource guarded or not, and nothing else.
func TestWithdrawalElsewhereUnguardsAtOnce(t *testing.T) {
	e := newEnv(t)
	e.publish(browsingPolicy())
	e.registerDevice()
	ctx := context.Background()
	const path = "/web/browsing.csv"
	if err := e.mgr.GrantAccess(ctx, bobWebID, e.bobKey.Address(), e.devKey.Address(), path, policy.PurposeWebAnalytics); err != nil {
		t.Fatal(err)
	}
	bob := solid.NewClient(bobWebID, e.bobKey, e.clk)
	if data, _, err := bob.Get(e.srv.URL + path); err == nil {
		t.Fatalf("consumer read %q of a published resource without a certificate", data)
	}

	req := httptest.NewRequest(http.MethodGet, e.srv.URL+path, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := e.mgr.accessHook(req, bobWebID, path, solid.ModeRead); err != nil && !errors.Is(err, ErrCertificate) {
					t.Errorf("hook during the withdrawal: %v", err)
					return
				}
			}
		}()
	}
	err := e.freshManager().Unpublish(ctx, aliceWebID, path)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := bob.Get(e.srv.URL + path)
	if err != nil || string(data) != "r1,r2,r3" {
		t.Fatalf("plain WAC read after the withdrawal: %q, %v", data, err)
	}
}

// TestForeignRegistrationIsNotGuarded: only the owner's registrations
// change the pod's access rules. A record another key registered at an
// IRI under the pod's URL leaves the resource under plain WAC, and the
// DE App refuses the owner's grant on it.
func TestForeignRegistrationIsNotGuarded(t *testing.T) {
	e := newEnv(t)
	e.publish(browsingPolicy())
	e.registerDevice()
	ctx := context.Background()
	const path = "/notes.txt"
	e.letBobRead(e.mgr, path, []byte("private-ish"))

	iri := e.mgr.ResourceIRI(path)
	mallory := cryptoutil.MustGenerateKey()
	malloryDE := distexchange.NewClient(autoSeal{node: e.node}, mallory, e.deAddr)
	const malloryWebID = "https://mallory.example/profile#me"
	if _, err := malloryDE.RegisterPod(ctx, distexchange.RegisterPodArgs{OwnerWebID: malloryWebID, Location: "https://mallory.example/"}); err != nil {
		t.Fatal(err)
	}
	if _, err := malloryDE.RegisterResource(ctx, distexchange.RegisterResourceArgs{
		ResourceIRI: iri, PodWebID: malloryWebID, Location: iri, Policy: policy.New(iri, malloryWebID, t0),
	}); err != nil {
		t.Fatal(err)
	}
	if owner, listed, err := e.mgr.DE().ResourceListing(iri); err != nil || !listed || owner != mallory.Address() {
		t.Fatalf("listing: owner %s, listed %v, %v; want Mallory's live record", owner, listed, err)
	}

	data, _, err := solid.NewClient(bobWebID, e.bobKey, e.clk).Get(e.srv.URL + path)
	if err != nil || string(data) != "private-ish" {
		t.Fatalf("plain WAC read of a resource another key registered: %q, %v", data, err)
	}
	var revert *distexchange.RevertError
	err = e.mgr.GrantAccess(ctx, bobWebID, e.bobKey.Address(), e.devKey.Address(), path, policy.PurposeAny)
	if !errors.As(err, &revert) || !strings.Contains(revert.Reason, "does not own") {
		t.Fatalf("grant on a resource another key registered: %v, want the recordGrant refusal", err)
	}
}

// failingQueries reaches the chain for transactions, but every query fails.
type failingQueries struct{ autoSeal }

func (failingQueries) Query(cryptoutil.Address, string, []byte) ([]byte, error) {
	return nil, errors.New("ledger unreachable")
}

// TestLedgerReadFailureRefusesConsumer: a hook that cannot read the ledger
// does not know whether the resource is published, so it refuses the
// consumer (403) and serves none of the bytes. The owner still reads.
func TestLedgerReadFailureRefusesConsumer(t *testing.T) {
	e := newEnv(t)
	m := e.managerOn(failingQueries{autoSeal{node: e.node}})
	const path = "/notes.txt"
	e.letBobRead(m, path, []byte("private-ish"))
	srv := httptest.NewServer(m.Server())
	defer srv.Close()

	data, _, err := solid.NewClient(bobWebID, e.bobKey, e.clk).Get(srv.URL + path)
	var status *solid.StatusError
	if !errors.As(err, &status) || status.Code != http.StatusForbidden || strings.Contains(status.Body, "private-ish") || data != nil {
		t.Fatalf("consumer read with the ledger unreachable: %q, %v; want 403 and no resource bytes", data, err)
	}
	if data, _, err := solid.NewClient(aliceWebID, e.mgrKey, e.clk).Get(srv.URL + path); err != nil || string(data) != "private-ish" {
		t.Fatalf("owner read with the ledger unreachable: %q, %v", data, err)
	}
}

// TestWaitForRoundClosureWokenByEvidence: the wait reads the round when it
// starts, when the push-out oracle delivers evidence for the resource, and
// at its deadline — never on a poll interval.
func TestWaitForRoundClosureWokenByEvidence(t *testing.T) {
	e := newEnv(t)
	iri := e.publish(browsingPolicy())
	e.registerDevice()
	ctx := context.Background()
	pushOut := oracle.NewPushOut(e.node, nil)
	defer pushOut.Close()
	e.mgr.pushOut = pushOut

	if err := e.mgr.GrantAccess(ctx, bobWebID, e.bobKey.Address(), e.devKey.Address(),
		"/web/browsing.csv", policy.PurposeWebAnalytics); err != nil {
		t.Fatal(err)
	}
	devClient := distexchange.NewClient(autoSeal{node: e.node}, e.devKey, e.deAddr)
	if _, err := devClient.ConfirmRetrieval(ctx, iri); err != nil {
		t.Fatal(err)
	}
	round, err := e.mgr.StartMonitoring(ctx, "/web/browsing.csv")
	if err != nil {
		t.Fatal(err)
	}
	roundReads := func() (n int) {
		e.queries.mu.Lock()
		defer e.queries.mu.Unlock()
		for _, c := range e.queries.calls {
			if c.method == "getMonitoringRound" {
				n++
			}
		}
		return n
	}

	// Nobody answers: two reads, one at each end of the grace period.
	before := roundReads()
	state, err := e.mgr.WaitForRoundClosure("/web/browsing.csv", round.Round, 20*time.Millisecond)
	if err != nil || state.Closed {
		t.Fatalf("silent round: closed=%v err=%v, want open and nil", state.Closed, err)
	}
	if n := roundReads() - before; n != 2 {
		t.Errorf("silent round read %d times, want 2", n)
	}

	// The device answers while the owner waits with an hour to spare.
	before = roundReads()
	waited := make(chan distexchange.MonitoringRound, 1)
	go func() {
		state, err := e.mgr.WaitForRoundClosure("/web/browsing.csv", round.Round, time.Hour)
		if err != nil {
			t.Error(err)
		}
		waited <- state
	}()
	ev := distexchange.Evidence{
		ResourceIRI: iri, Device: e.devKey.Address(), Round: round.Round,
		PolicyVersion: 1, StillStored: true,
		RetrievedAt: e.clk.Now(), GeneratedAt: e.clk.Now(),
	}
	sig, err := e.devKey.Sign(ev.SigningBytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := devClient.SubmitEvidence(ctx, distexchange.SignedEvidence{Evidence: ev, Signature: sig}); err != nil {
		t.Fatal(err)
	}
	select {
	case state := <-waited:
		if !state.Closed {
			t.Fatalf("woken with the round open: %+v", state)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("evidence recorded, waiter not woken")
	}
	// One read if the evidence beat the subscription, else two.
	if n := roundReads() - before; n < 1 || n > 2 {
		t.Errorf("answered round read %d times, want 1 or 2", n)
	}
}

// BenchmarkAccessHook times the pod manager's check of a consumer's paid
// GET on a published resource (Fig. 2(4)) without the HTTP round trip:
// the payment certificate alone, and the certificate with a TEE quote.
// The same request repeats, so the certificate's signature is a
// verified-signature table hit after the first iteration; the quote's
// signature is checked every time.
func BenchmarkAccessHook(b *testing.B) {
	e := newEnv(b)
	iri := e.publish(browsingPolicy())
	e.registerDevice()
	const path = "/web/browsing.csv"
	if err := e.mgr.GrantAccess(context.Background(), bobWebID, e.bobKey.Address(), e.devKey.Address(),
		path, policy.PurposeWebAnalytics); err != nil {
		b.Fatal(err)
	}
	if err := e.mkt.Register(string(bobWebID), "bob@example.org", e.bobKey.Address(), e.bobKey.PublicBytes()); err != nil {
		b.Fatal(err)
	}
	if err := e.mkt.Subscribe(string(bobWebID), market.PlanBasic); err != nil {
		b.Fatal(err)
	}
	cert, err := e.mkt.PayFee(string(bobWebID), iri)
	if err != nil {
		b.Fatal(err)
	}
	withCert, err := AttachCertificate(cert)
	if err != nil {
		b.Fatal(err)
	}
	mfr, err := tee.NewManufacturer()
	if err != nil {
		b.Fatal(err)
	}
	dev, err := mfr.Provision(tee.MeasurementOf("bench-app"), t0, t0.Add(365*24*time.Hour))
	if err != nil {
		b.Fatal(err)
	}

	for _, c := range []struct {
		name     string
		tee      *TEERequirement
		decorate func(*http.Request)
	}{
		{"certificate", nil, withCert},
		{"certificate+quote", &TEERequirement{CAKey: mfr.CAPublicBytes()}, Decorators(withCert, AttachTEEQuote(dev))},
	} {
		b.Run(c.name, func(b *testing.B) {
			e.mgr.tee = c.tee
			// One served GET signs the request; the loop re-checks it.
			var req *http.Request
			bob := solid.NewClient(bobWebID, e.bobKey, e.clk)
			bob.Decorate = Decorators(c.decorate, func(r *http.Request) { req = r })
			if _, _, err := bob.Get(e.srv.URL + path); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if err := e.mgr.accessHook(req, bobWebID, path, solid.ModeRead); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
