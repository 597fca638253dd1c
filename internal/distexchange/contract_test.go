package distexchange

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/cryptoutil"
	"repro/internal/policy"
	"repro/internal/simclock"
	"repro/internal/store"
)

var t0 = time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC)

// fixture wires a single-node chain with the DE App deployed, a simulated
// clock, a TEE manufacturer CA, and auto-sealing on submission.
type fixture struct {
	t      *testing.T
	node   *chain.Node
	clk    *simclock.Sim
	ca     *cryptoutil.Authority
	deAddr cryptoutil.Address

	alice  *Client // pod owner (also the authority that seals)
	bob    *Client // second pod owner
	device *Client // consumer TEE device identity
	devKey *cryptoutil.KeyPair

	mu   sync.Mutex
	seen []chain.Event // every event the node has committed; guarded by mu
}

// emitted returns the committed events matching the filter. Sealing is
// synchronous here, and the node hands a block's events to its handlers
// before the commit returns, so a call's events are in seen once it
// returns.
func (f *fixture) emitted(filter chain.EventFilter) []chain.Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []chain.Event
	for i := range f.seen {
		if filter.Matches(&f.seen[i]) {
			out = append(out, f.seen[i])
		}
	}
	return out
}

// sealingBackend wraps a node so every submission is sealed immediately,
// keeping tests synchronous.
type sealingBackend struct{ node *chain.Node }

func (b sealingBackend) Submit(txs []*chain.Tx) []chain.TxVerdict {
	out := b.node.Submit(txs)
	if _, err := b.node.Seal(); err != nil {
		panic(err)
	}
	return out
}

func (b sealingBackend) WaitForReceipt(ctx context.Context, h cryptoutil.Hash) (*chain.Receipt, error) {
	return b.node.WaitForReceipt(ctx, h)
}

func (b sealingBackend) Query(c cryptoutil.Address, method string, args []byte) ([]byte, error) {
	return b.node.Query(c, method, args)
}

func (b sealingBackend) NonceFor(a cryptoutil.Address) uint64 { return b.node.NonceFor(a) }

// plantMethod is the one method the fixture's executor answers itself,
// outside any contract: it writes its arguments' key and value into the
// state as they are. A test plants a record the DE App could never have
// written with it, through a block like every other write.
const plantMethod = "test.plant"

// plantingRuntime is the fixture's executor: the contract runtime, plus
// plantMethod.
type plantingRuntime struct{ *contract.Runtime }

func (p plantingRuntime) ExecuteTx(st chain.StateRW, tx *chain.Tx, bctx chain.BlockContext) *chain.Receipt {
	if tx.Method != plantMethod {
		return p.Runtime.ExecuteTx(st, tx, bctx)
	}
	d := store.NewDec(tx.Args)
	key, value := d.String(), d.Bytes()
	if err := d.Finish(); err != nil {
		return &chain.Receipt{Status: chain.StatusReverted, Err: err.Error()}
	}
	st.Set(key, value)
	return &chain.Receipt{Status: chain.StatusOK}
}

// plant commits a block that writes value under the state key key.
func (f *fixture) plant(key string, value []byte) {
	f.t.Helper()
	args := store.AppendBytes(store.AppendString(nil, key), value)
	tx, err := chain.NewTx(cryptoutil.MustGenerateKey(), 0, f.deAddr, plantMethod, args, DefaultGasLimit)
	if err != nil {
		f.t.Fatal(err)
	}
	if v := (sealingBackend{node: f.node}).Submit([]*chain.Tx{tx}); !v[0].Admitted() {
		f.t.Fatal(v[0].Err)
	}
	if r := f.node.Receipt(tx.Hash()); r == nil || !r.Succeeded() {
		f.t.Fatalf("plant %s: %+v", key, r)
	}
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	ca, err := cryptoutil.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	rt := contract.NewRuntime()
	deAddr := rt.Deploy(ContractName, New(Config{ManufacturerCAKey: ca.PublicBytes()}))
	authority := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(t0)
	node, err := chain.NewNode(chain.Config{
		Key:         authority,
		Authorities: []cryptoutil.Address{authority.Address()},
		Executor:    plantingRuntime{rt},
		Clock:       clk,
		GenesisTime: t0,
	})
	if err != nil {
		t.Fatal(err)
	}
	backend := sealingBackend{node: node}
	devKey := cryptoutil.MustGenerateKey()
	f := &fixture{
		t:      t,
		node:   node,
		clk:    clk,
		ca:     ca,
		deAddr: deAddr,
		alice:  NewClient(backend, cryptoutil.MustGenerateKey(), deAddr),
		bob:    NewClient(backend, cryptoutil.MustGenerateKey(), deAddr),
		device: NewClient(backend, devKey, deAddr),
		devKey: devKey,
	}
	t.Cleanup(node.SubscribeEvents(chain.EventFilter{}, func(ev chain.Event) {
		f.mu.Lock()
		f.seen = append(f.seen, ev)
		f.mu.Unlock()
	}))
	return f
}

// deviceCert issues a manufacturer certificate for the fixture device.
func (f *fixture) deviceCert(measurement cryptoutil.Hash) []byte {
	f.t.Helper()
	cert, err := f.ca.Issue(f.devKey,
		map[string]string{"measurement": hex.EncodeToString(measurement[:])},
		t0, t0.Add(365*24*time.Hour))
	if err != nil {
		f.t.Fatal(err)
	}
	return cert.Encode()
}

// registerAlicePodAndResource walks Fig. 2(1) + 2(2) for Alice.
func (f *fixture) registerAlicePodAndResource(pol *policy.Policy) string {
	f.t.Helper()
	ctx := context.Background()
	if _, err := f.alice.RegisterPod(ctx, RegisterPodArgs{
		OwnerWebID: "https://alice.pod/profile#me",
		Location:   "https://alice.pod/",
	}); err != nil {
		f.t.Fatal(err)
	}
	iri := pol.ResourceIRI
	if _, err := f.alice.RegisterResource(ctx, RegisterResourceArgs{
		ResourceIRI: iri,
		PodWebID:    "https://alice.pod/profile#me",
		Location:    "https://alice.pod/web/browsing.csv",
		Policy:      pol,
	}); err != nil {
		f.t.Fatal(err)
	}
	return iri
}

// registerDevice attests and registers the fixture device.
func (f *fixture) registerDevice() {
	f.t.Helper()
	var m cryptoutil.Hash
	copy(m[:], []byte("trusted-app-measurement-00000000"))
	if _, err := f.device.RegisterDevice(context.Background(), f.deviceCert(m)); err != nil {
		f.t.Fatal(err)
	}
}

// grantAndRetrieve records a grant for the device and confirms retrieval.
func (f *fixture) grantAndRetrieve(iri string, purpose policy.Purpose) {
	f.t.Helper()
	ctx := context.Background()
	if _, err := f.alice.RecordGrant(ctx, RecordGrantArgs{
		ResourceIRI: iri,
		Consumer:    f.device.Address(),
		Device:      f.device.Address(),
		Purpose:     purpose,
	}); err != nil {
		f.t.Fatal(err)
	}
	if _, err := f.device.ConfirmRetrieval(ctx, iri); err != nil {
		f.t.Fatal(err)
	}
}

// signedEvidence builds device-signed evidence.
func (f *fixture) signedEvidence(ev Evidence) SignedEvidence {
	f.t.Helper()
	sig, err := f.devKey.Sign(ev.SigningBytes())
	if err != nil {
		f.t.Fatal(err)
	}
	return SignedEvidence{Evidence: ev, Signature: sig}
}

// submitEvidence has the fixture's device submit ev and returns the record
// stored for it, read back under the seq the contract returned.
func (f *fixture) submitEvidence(ev Evidence) (EvidenceRecord, error) {
	seq, err := f.device.SubmitEvidence(context.Background(), f.signedEvidence(ev))
	if err != nil {
		return EvidenceRecord{}, err
	}
	recs, err := f.alice.GetRoundEvidence(ev.ResourceIRI, ev.Round)
	if err != nil {
		return EvidenceRecord{}, err
	}
	for _, rec := range recs {
		if rec.Seq == seq {
			return rec, nil
		}
	}
	return EvidenceRecord{}, fmt.Errorf("no record with seq %d in round %d", seq, ev.Round)
}

func alicePolicy() *policy.Policy {
	p := policy.New("https://alice.pod/web/browsing.csv", "https://alice.pod/profile#me", t0)
	p.MaxRetention = 30 * 24 * time.Hour
	return p
}

func TestPodInitiation(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	def := policy.New("https://alice.pod/", "https://alice.pod/profile#me", t0)
	if _, err := f.alice.RegisterPod(ctx, RegisterPodArgs{
		OwnerWebID:    "https://alice.pod/profile#me",
		Location:      "https://alice.pod/",
		DefaultPolicy: def,
	}); err != nil {
		t.Fatal(err)
	}
	rec, err := f.alice.GetPod("https://alice.pod/profile#me")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Location != "https://alice.pod/" || rec.Owner != f.alice.Address() {
		t.Fatalf("pod record = %+v", rec)
	}
	if rec.DefaultPolicy == nil || rec.DefaultPolicy.Version != 1 {
		t.Fatalf("default policy = %+v", rec.DefaultPolicy)
	}
	events := f.emitted(chain.EventFilter{Topic: TopicPodRegistered})
	if len(events) != 1 || events[0].Key != "https://alice.pod/profile#me" {
		t.Fatalf("events = %+v", events)
	}

	// Duplicate registration reverts.
	_, err = f.alice.RegisterPod(ctx, RegisterPodArgs{
		OwnerWebID: "https://alice.pod/profile#me", Location: "https://alice.pod/",
	})
	var revert *RevertError
	if !errors.As(err, &revert) || !strings.Contains(revert.Reason, "already registered") {
		t.Fatalf("duplicate: %v", err)
	}

	// Missing fields revert.
	if _, err := f.bob.RegisterPod(ctx, RegisterPodArgs{OwnerWebID: "x"}); err == nil {
		t.Fatal("missing location accepted")
	}
}

func TestResourceInitiation(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	iri := f.registerAlicePodAndResource(alicePolicy())

	rec, err := f.alice.GetResource(iri)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Policy == nil || rec.Policy.MaxRetention != 30*24*time.Hour {
		t.Fatalf("resource policy = %+v", rec.Policy)
	}
	if rec.Owner != f.alice.Address() {
		t.Fatalf("owner = %s", rec.Owner)
	}

	// The registration event fired.
	if n := len(f.emitted(chain.EventFilter{Topic: TopicResourceRegistered})); n != 1 {
		t.Fatalf("ResourceRegistered events = %d", n)
	}

	// Only the pod owner may publish into the pod.
	_, err = f.bob.RegisterResource(ctx, RegisterResourceArgs{
		ResourceIRI: "https://alice.pod/other",
		PodWebID:    "https://alice.pod/profile#me",
		Location:    "https://alice.pod/other",
		Policy:      policy.New("https://alice.pod/other", "https://alice.pod/profile#me", t0),
	})
	if err == nil {
		t.Fatal("non-owner published a resource")
	}

	// Duplicate resource reverts.
	if _, err := f.alice.RegisterResource(ctx, RegisterResourceArgs{
		ResourceIRI: iri, PodWebID: "https://alice.pod/profile#me",
		Location: "x", Policy: alicePolicy(),
	}); err == nil {
		t.Fatal("duplicate resource accepted")
	}

	// Unregistered pod reverts.
	if _, err := f.bob.RegisterResource(ctx, RegisterResourceArgs{
		ResourceIRI: "https://bob.pod/r", PodWebID: "https://bob.pod/profile#me",
		Location: "https://bob.pod/r",
		Policy:   policy.New("https://bob.pod/r", "https://bob.pod/profile#me", t0),
	}); err == nil {
		t.Fatal("resource in unregistered pod accepted")
	}
}

func TestResourceInitiationDefaultPolicyFallback(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	def := policy.New("https://alice.pod/", "https://alice.pod/profile#me", t0)
	def.MaxRetention = time.Hour
	if _, err := f.alice.RegisterPod(ctx, RegisterPodArgs{
		OwnerWebID:    "https://alice.pod/profile#me",
		Location:      "https://alice.pod/",
		DefaultPolicy: def,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.alice.RegisterResource(ctx, RegisterResourceArgs{
		ResourceIRI: "https://alice.pod/r1",
		PodWebID:    "https://alice.pod/profile#me",
		Location:    "https://alice.pod/r1",
		// No policy: the pod default applies, re-bound to the resource.
	}); err != nil {
		t.Fatal(err)
	}
	rec, err := f.alice.GetResource("https://alice.pod/r1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Policy.ResourceIRI != "https://alice.pod/r1" || rec.Policy.MaxRetention != time.Hour {
		t.Fatalf("fallback policy = %+v", rec.Policy)
	}
}

func TestResourceIndexing(t *testing.T) {
	f := newFixture(t)
	f.registerAlicePodAndResource(alicePolicy())

	all, err := f.device.ListResources()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].Location != "https://alice.pod/web/browsing.csv" {
		t.Fatalf("ListResources = %+v", all)
	}
	// Missing single resource lookups error.
	if _, err := f.device.GetResource("https://missing"); err == nil {
		t.Fatal("missing resource lookup succeeded")
	}
}

// TestResourceTransactionsWriteOnlyTheRecord: registering a resource
// writes its record, res/<iri>, and nothing else, and emits one event,
// ResourceRegistered; withdrawing it rewrites that record and nothing
// else. No per-pod index or second event rides along: no reader asks for
// either, and each cost a Set or an event's gas.
func TestResourceTransactionsWriteOnlyTheRecord(t *testing.T) {
	w := newExecWorld(t)
	owner := cryptoutil.MustGenerateKey()
	w.must(owner, "registerPod", RegisterPodArgs{OwnerWebID: allocsWebID, Location: "https://alice.pod/"})
	resource := "res/" + allocsIRI
	register := w.tx(owner, "registerResource", RegisterResourceArgs{
		ResourceIRI: allocsIRI, PodWebID: allocsWebID, Location: allocsIRI, Policy: policy.New(allocsIRI, allocsWebID, t0),
	})
	r, written := w.execWrites(register)
	if len(written) != 1 || written[0] != resource {
		t.Errorf("registerResource wrote %q, want only %q", written, resource)
	}
	if len(r.Events) != 1 || r.Events[0].Topic != TopicResourceRegistered || r.Events[0].Key != allocsIRI || len(r.Events[0].Data) != 0 {
		t.Errorf("registerResource emitted %+v, want one empty ResourceRegistered for %s", r.Events, allocsIRI)
	}
	_, written = w.execWrites(w.tx(owner, "withdrawResource", WithdrawResourceArgs{ResourceIRI: allocsIRI}))
	if len(written) != 1 || written[0] != resource {
		t.Errorf("withdrawResource wrote %q, want only %q", written, resource)
	}
}

// TestMonitoringWritesOnlyItsMarkers pins the keys each monitoring
// transaction writes: a round is its write-once record, one pending marker
// per target and, once reportUnresponsive closes it, a closure marker. An
// answer deletes its target's marker and writes no round-level key, and a
// late answer to a closed round writes only its evidence.
func TestMonitoringWritesOnlyItsMarkers(t *testing.T) {
	w := newExecWorld(t)
	owner := cryptoutil.MustGenerateKey()
	w.withResource(owner)
	devices := []*cryptoutil.KeyPair{cryptoutil.MustGenerateKey(), cryptoutil.MustGenerateKey(), cryptoutil.MustGenerateKey()}
	for _, d := range devices {
		w.withRetrievedGrant(owner, d)
	}
	const round = 1
	keys := func(built ...[]byte) []string {
		var out []string
		for _, k := range built {
			out = append(out, string(k))
		}
		slices.Sort(out)
		return out
	}
	pending := func(d *cryptoutil.KeyPair) []byte { return pendingKey(nil, allocsIRI, round, d.Address()) }
	check := func(method string, got, want []string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Errorf("%s wrote\n%q\nwant\n%q", method, got, want)
		}
	}

	_, written := w.execWrites(w.tx(owner, "requestMonitoring", RequestMonitoringArgs{ResourceIRI: allocsIRI}))
	check("requestMonitoring", written, keys(roundSeqKey(nil, allocsIRI), roundKey(nil, allocsIRI, round),
		pending(devices[0]), pending(devices[1]), pending(devices[2])))

	// answer has d submit compliant evidence for the round and returns the
	// keys it wrote and its record's key.
	answer := func(d *cryptoutil.KeyPair) (written []string, record []byte) {
		t.Helper()
		ev := Evidence{ResourceIRI: allocsIRI, Device: d.Address(), Round: round, PolicyVersion: 1,
			StillStored: true, RetrievedAt: t0, GeneratedAt: t0.Add(time.Minute)}
		sig, err := d.Sign(ev.SigningBytes())
		if err != nil {
			t.Fatal(err)
		}
		r, written := w.execWrites(w.tx(d, "submitEvidence", SubmitEvidenceArgs{Signed: []SignedEvidence{{Evidence: ev, Signature: sig}}}))
		outcomes, err := DecodeEvidenceOutcomes(r.Return)
		if err != nil || len(outcomes) != 1 || outcomes[0].Err != nil {
			t.Fatalf("submitEvidence: %+v, %v", outcomes, err)
		}
		return written, evKey(nil, allocsIRI, round, outcomes[0].Seq)
	}
	written, record := answer(devices[0])
	check("an answering submitEvidence", written, keys(evSeqKey(nil, allocsIRI), record, pending(devices[0])))
	if _, ok := w.ov.Get(append([]byte(w.deAddr.String()+"/"), pending(devices[0])...)); ok {
		t.Error("the answering target's pending marker is still stored")
	}

	_, written = w.execWrites(w.tx(owner, "reportUnresponsive", ReportUnresponsiveArgs{ResourceIRI: allocsIRI, Round: round}))
	check("reportUnresponsive", written, keys(violSeqKey(nil, allocsIRI),
		violKey(nil, allocsIRI, round, 1), violKey(nil, allocsIRI, round, 2), closedKey(nil, allocsIRI, round)))

	written, record = answer(devices[1])
	check("a late submitEvidence", written, keys(evSeqKey(nil, allocsIRI), record))
}

func TestDeviceRegistration(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	var m cryptoutil.Hash
	copy(m[:], []byte("trusted-app-measurement-00000000"))

	t.Run("valid certificate", func(t *testing.T) {
		if _, err := f.device.RegisterDevice(ctx, f.deviceCert(m)); err != nil {
			t.Fatal(err)
		}
		rec, err := f.device.GetDevice(f.device.Address())
		if err != nil {
			t.Fatal(err)
		}
		if rec.Measurement != m {
			t.Fatalf("measurement = %s", rec.Measurement)
		}
	})

	t.Run("certificate from untrusted CA", func(t *testing.T) {
		rogue, err := cryptoutil.NewAuthority()
		if err != nil {
			t.Fatal(err)
		}
		other := NewClient(sealingBackend{node: f.node}, cryptoutil.MustGenerateKey(), f.deAddr)
		cert, err := rogue.Issue(other.key, map[string]string{"measurement": hex.EncodeToString(m[:])}, t0, t0.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		raw := cert.Encode()
		if _, err := other.RegisterDevice(ctx, raw); err == nil {
			t.Fatal("rogue certificate accepted")
		}
	})

	t.Run("stolen certificate (subject != sender)", func(t *testing.T) {
		thief := NewClient(sealingBackend{node: f.node}, cryptoutil.MustGenerateKey(), f.deAddr)
		if _, err := thief.RegisterDevice(ctx, f.deviceCert(m)); err == nil {
			t.Fatal("certificate for another subject accepted")
		}
	})

	t.Run("missing measurement claim", func(t *testing.T) {
		fresh := cryptoutil.MustGenerateKey()
		client := NewClient(sealingBackend{node: f.node}, fresh, f.deAddr)
		cert, err := f.ca.Issue(fresh, nil, t0, t0.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		raw := cert.Encode()
		if _, err := client.RegisterDevice(ctx, raw); err == nil {
			t.Fatal("certificate without measurement accepted")
		}
	})

	t.Run("expired certificate", func(t *testing.T) {
		f.clk.Advance(400 * 24 * time.Hour)
		fresh := cryptoutil.MustGenerateKey()
		client := NewClient(sealingBackend{node: f.node}, fresh, f.deAddr)
		cert, err := f.ca.Issue(fresh, map[string]string{"measurement": hex.EncodeToString(m[:])}, t0, t0.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		raw := cert.Encode()
		if _, err := client.RegisterDevice(ctx, raw); err == nil {
			t.Fatal("expired certificate accepted")
		}
	})
}

func TestGrantLifecycle(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	iri := f.registerAlicePodAndResource(alicePolicy())
	f.registerDevice()

	// Grant to unregistered device reverts.
	ghost := cryptoutil.MustGenerateKey().Address()
	if _, err := f.alice.RecordGrant(ctx, RecordGrantArgs{
		ResourceIRI: iri, Consumer: ghost, Device: ghost, Purpose: policy.PurposeWebAnalytics,
	}); err == nil {
		t.Fatal("grant to unregistered device accepted")
	}

	// Non-owner cannot grant.
	if _, err := f.bob.RecordGrant(ctx, RecordGrantArgs{
		ResourceIRI: iri, Consumer: f.device.Address(), Device: f.device.Address(),
		Purpose: policy.PurposeWebAnalytics,
	}); err == nil {
		t.Fatal("non-owner recorded a grant")
	}

	f.grantAndRetrieve(iri, policy.PurposeWebAnalytics)

	grants, err := f.alice.GetGrants(iri)
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) != 1 || grants[0].RetrievedAt.IsZero() || grants[0].Revoked {
		t.Fatalf("grants = %+v", grants)
	}

	// Double confirmation reverts.
	if _, err := f.device.ConfirmRetrieval(ctx, iri); err == nil {
		t.Fatal("double retrieval confirmation accepted")
	}

	// Revocation.
	if _, err := f.alice.RevokeGrant(ctx, RevokeGrantArgs{ResourceIRI: iri, Device: f.device.Address()}); err != nil {
		t.Fatal(err)
	}
	grants, _ = f.alice.GetGrants(iri)
	if !grants[0].Revoked {
		t.Fatal("grant not revoked")
	}
	if _, err := f.alice.RevokeGrant(ctx, RevokeGrantArgs{ResourceIRI: iri, Device: f.device.Address()}); err == nil {
		t.Fatal("double revocation accepted")
	}
}

func TestGrantPurposeCheckedAgainstPolicy(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	pol := policy.New("https://alice.pod/med", "https://alice.pod/profile#me", t0)
	pol.AllowedPurposes = []policy.Purpose{policy.PurposeMedicalResearch}
	if _, err := f.alice.RegisterPod(ctx, RegisterPodArgs{
		OwnerWebID: "https://alice.pod/profile#me", Location: "https://alice.pod/",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.alice.RegisterResource(ctx, RegisterResourceArgs{
		ResourceIRI: "https://alice.pod/med", PodWebID: "https://alice.pod/profile#me",
		Location: "https://alice.pod/med", Policy: pol,
	}); err != nil {
		t.Fatal(err)
	}
	f.registerDevice()
	_, err := f.alice.RecordGrant(ctx, RecordGrantArgs{
		ResourceIRI: "https://alice.pod/med", Consumer: f.device.Address(),
		Device: f.device.Address(), Purpose: policy.PurposeMarketing,
	})
	if err == nil {
		t.Fatal("grant with disallowed purpose accepted")
	}
}

func TestPolicyModification(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	iri := f.registerAlicePodAndResource(alicePolicy())

	week := 7 * 24 * time.Hour
	updated := alicePolicy().NextVersion(t0.Add(48 * time.Hour))
	updated.MaxRetention = week
	if _, err := f.alice.UpdatePolicy(ctx, UpdatePolicyArgs{ResourceIRI: iri, Policy: updated}); err != nil {
		t.Fatal(err)
	}
	rec, err := f.alice.GetResource(iri)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Policy.Version != 2 || rec.Policy.MaxRetention != week {
		t.Fatalf("policy after update = %+v", rec.Policy)
	}
	if n := len(f.emitted(chain.EventFilter{Topic: TopicPolicyUpdated, Key: iri})); n != 1 {
		t.Fatalf("PolicyUpdated events = %d", n)
	}

	// Stale version rejected.
	stale := alicePolicy() // version 1 again
	if _, err := f.alice.UpdatePolicy(ctx, UpdatePolicyArgs{ResourceIRI: iri, Policy: stale}); err == nil {
		t.Fatal("stale policy version accepted")
	}

	// Non-owner rejected.
	v3 := updated.NextVersion(t0.Add(72 * time.Hour))
	if _, err := f.bob.UpdatePolicy(ctx, UpdatePolicyArgs{ResourceIRI: iri, Policy: v3}); err == nil {
		t.Fatal("non-owner policy update accepted")
	}

	// Policy bound to a different resource rejected.
	foreign := policy.New("https://other", "https://alice.pod/profile#me", t0)
	foreign.Version = 9
	if _, err := f.alice.UpdatePolicy(ctx, UpdatePolicyArgs{ResourceIRI: iri, Policy: foreign}); err == nil {
		t.Fatal("cross-resource policy accepted")
	}
}

func TestMonitoringRoundAndEvidence(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	iri := f.registerAlicePodAndResource(alicePolicy())
	f.registerDevice()
	f.grantAndRetrieve(iri, policy.PurposeWebAnalytics)

	round, err := f.alice.RequestMonitoring(ctx, iri)
	if err != nil {
		t.Fatal(err)
	}
	if round.Round != 1 || len(round.Targets) != 1 || round.Targets[0] != f.device.Address() {
		t.Fatalf("round = %+v", round)
	}
	if round.Closed {
		t.Fatal("round with targets should stay open")
	}

	// Compliant evidence: still stored, within retention, allowed purposes.
	now := f.clk.Now()
	ev := Evidence{
		ResourceIRI:   iri,
		Device:        f.device.Address(),
		Round:         round.Round,
		PolicyVersion: 1,
		StillStored:   true,
		RetrievedAt:   now,
		UseCount:      2,
		Entries: []UsageEntry{
			{At: now, Action: policy.ActionUse, Purpose: policy.PurposeWebAnalytics, Allowed: true},
		},
		GeneratedAt: now,
	}
	rec, err := f.submitEvidence(ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Findings) != 0 {
		t.Fatalf("compliant evidence produced findings: %v", rec.Findings)
	}

	// Round closed after the single target responded.
	closed, err := f.alice.GetMonitoringRound(iri, round.Round)
	if err != nil {
		t.Fatal(err)
	}
	if !closed.Closed || len(closed.Responded) != 1 {
		t.Fatalf("round after evidence = %+v", closed)
	}

	// No violations.
	viols, err := f.alice.GetViolations(iri)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 0 {
		t.Fatalf("violations = %+v", viols)
	}
	evs, err := f.alice.GetEvidence(iri)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || !evs[0].Verified {
		t.Fatalf("evidence records = %+v", evs)
	}
}

func TestEvidenceDetectsRetentionViolation(t *testing.T) {
	f := newFixture(t)
	pol := alicePolicy()
	pol.MaxRetention = 24 * time.Hour
	iri := f.registerAlicePodAndResource(pol)
	f.registerDevice()
	f.grantAndRetrieve(iri, policy.PurposeWebAnalytics)
	retrievedAt := f.clk.Now()

	// Two days later the copy is still stored: retention violation.
	f.clk.Advance(48 * time.Hour)
	ev := Evidence{
		ResourceIRI: iri, Device: f.device.Address(), PolicyVersion: 1,
		StillStored: true, RetrievedAt: retrievedAt, GeneratedAt: f.clk.Now(),
	}
	rec, err := f.submitEvidence(ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Findings) != 1 || rec.Findings[0] != ViolationRetention {
		t.Fatalf("findings = %v", rec.Findings)
	}
	viols, err := f.alice.GetViolations(iri)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 1 || viols[0].Kind != ViolationRetention || viols[0].Device != f.device.Address() {
		t.Fatalf("violations = %+v", viols)
	}
	if n := len(f.emitted(chain.EventFilter{Topic: TopicViolationDetected, Key: iri})); n != 1 {
		t.Fatalf("ViolationDetected events = %d", n)
	}
}

func TestEvidenceDetectsLateDeletion(t *testing.T) {
	f := newFixture(t)
	pol := alicePolicy()
	pol.MaxRetention = 24 * time.Hour
	iri := f.registerAlicePodAndResource(pol)
	f.registerDevice()
	f.grantAndRetrieve(iri, policy.PurposeWebAnalytics)
	retrievedAt := f.clk.Now()

	f.clk.Advance(72 * time.Hour)
	ev := Evidence{
		ResourceIRI: iri, Device: f.device.Address(), PolicyVersion: 1,
		StillStored: false, DeletedAt: retrievedAt.Add(48 * time.Hour),
		RetrievedAt: retrievedAt, GeneratedAt: f.clk.Now(),
	}
	rec, err := f.submitEvidence(ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Findings) != 1 || rec.Findings[0] != ViolationRetention {
		t.Fatalf("findings = %v", rec.Findings)
	}
}

func TestEvidenceDetectsPurposeAndMaxUseViolations(t *testing.T) {
	f := newFixture(t)
	pol := alicePolicy()
	pol.AllowedPurposes = []policy.Purpose{policy.PurposeWebAnalytics}
	pol.MaxUses = 1
	iri := f.registerAlicePodAndResource(pol)
	f.registerDevice()
	f.grantAndRetrieve(iri, policy.PurposeWebAnalytics)
	now := f.clk.Now()

	ev := Evidence{
		ResourceIRI: iri, Device: f.device.Address(), PolicyVersion: 1,
		StillStored: true, RetrievedAt: now, UseCount: 3,
		Entries: []UsageEntry{
			{At: now, Action: policy.ActionUse, Purpose: policy.PurposeMarketing, Allowed: true},
		},
		GeneratedAt: now,
	}
	rec, err := f.submitEvidence(ev)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[ViolationKind]bool{}
	for _, k := range rec.Findings {
		kinds[k] = true
	}
	if !kinds[ViolationPurpose] || !kinds[ViolationMaxUses] {
		t.Fatalf("findings = %v, want purpose + max-uses", rec.Findings)
	}
}

func TestEvidenceDetectsStalePolicy(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	iri := f.registerAlicePodAndResource(alicePolicy())
	f.registerDevice()
	f.grantAndRetrieve(iri, policy.PurposeWebAnalytics)

	v2 := alicePolicy().NextVersion(t0.Add(time.Hour))
	if _, err := f.alice.UpdatePolicy(ctx, UpdatePolicyArgs{ResourceIRI: iri, Policy: v2}); err != nil {
		t.Fatal(err)
	}
	now := f.clk.Now()
	ev := Evidence{
		ResourceIRI: iri, Device: f.device.Address(), PolicyVersion: 1, // lagging
		StillStored: true, RetrievedAt: now, GeneratedAt: now,
	}
	rec, err := f.submitEvidence(ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Findings) != 1 || rec.Findings[0] != ViolationStalePolicy {
		t.Fatalf("findings = %v", rec.Findings)
	}
}

func TestEvidenceSignatureRejection(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	iri := f.registerAlicePodAndResource(alicePolicy())
	f.registerDevice()
	f.grantAndRetrieve(iri, policy.PurposeWebAnalytics)
	now := f.clk.Now()

	ev := Evidence{
		ResourceIRI: iri, Device: f.device.Address(), PolicyVersion: 1,
		StillStored: true, RetrievedAt: now, GeneratedAt: now,
	}

	t.Run("forged signature", func(t *testing.T) {
		mallory := cryptoutil.MustGenerateKey()
		sig, err := mallory.Sign(ev.SigningBytes())
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.device.SubmitEvidence(ctx, SignedEvidence{Evidence: ev, Signature: sig})
		if err == nil {
			t.Fatal("forged evidence accepted")
		}
	})

	t.Run("tampered evidence", func(t *testing.T) {
		signed := f.signedEvidence(ev)
		signed.Evidence.UseCount = 999
		if _, err := f.device.SubmitEvidence(ctx, signed); err == nil {
			t.Fatal("tampered evidence accepted")
		}
	})

	t.Run("evidence for unknown device", func(t *testing.T) {
		bad := ev
		bad.Device = cryptoutil.MustGenerateKey().Address()
		if _, err := f.device.SubmitEvidence(ctx, f.signedEvidence(bad)); err == nil {
			t.Fatal("evidence for unregistered device accepted")
		}
	})

	t.Run("evidence without grant", func(t *testing.T) {
		bad := ev
		bad.ResourceIRI = iri + "-other"
		if _, err := f.device.SubmitEvidence(ctx, f.signedEvidence(bad)); err == nil {
			t.Fatal("evidence without a grant accepted")
		}
	})
}

func TestReportUnresponsive(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	iri := f.registerAlicePodAndResource(alicePolicy())
	f.registerDevice()
	f.grantAndRetrieve(iri, policy.PurposeWebAnalytics)

	round, err := f.alice.RequestMonitoring(ctx, iri)
	if err != nil {
		t.Fatal(err)
	}
	// Nobody answers; the owner closes the round.
	if _, err := f.alice.ReportUnresponsive(ctx, iri, round.Round); err != nil {
		t.Fatal(err)
	}
	viols, err := f.alice.GetViolations(iri)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 1 || viols[0].Kind != ViolationUnresponsive {
		t.Fatalf("violations = %+v", viols)
	}
	// Closing twice reverts.
	if _, err := f.alice.ReportUnresponsive(ctx, iri, round.Round); err == nil {
		t.Fatal("double close accepted")
	}
	// Round with no targets is born closed.
	if _, err := f.alice.RevokeGrant(ctx, RevokeGrantArgs{ResourceIRI: iri, Device: f.device.Address()}); err != nil {
		t.Fatal(err)
	}
	empty, err := f.alice.RequestMonitoring(ctx, iri)
	if err != nil {
		t.Fatal(err)
	}
	if !empty.Closed || len(empty.Targets) != 0 {
		t.Fatalf("empty round = %+v", empty)
	}
}

func TestRevokeGrantEdgeCases(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	iri := f.registerAlicePodAndResource(alicePolicy())
	f.registerDevice()

	// Revoking an unknown resource reverts.
	if _, err := f.alice.RevokeGrant(ctx, RevokeGrantArgs{ResourceIRI: "https://missing", Device: f.device.Address()}); err == nil {
		t.Fatal("revoke on unknown resource accepted")
	}
	// Revoking before any grant exists reverts.
	if _, err := f.alice.RevokeGrant(ctx, RevokeGrantArgs{ResourceIRI: iri, Device: f.device.Address()}); err == nil {
		t.Fatal("revoke without grant accepted")
	}
	// Non-owner revocation reverts.
	f.grantAndRetrieve(iri, policy.PurposeWebAnalytics)
	if _, err := f.bob.RevokeGrant(ctx, RevokeGrantArgs{ResourceIRI: iri, Device: f.device.Address()}); err == nil {
		t.Fatal("non-owner revoke accepted")
	}
	// Revoked grants are excluded from monitoring targets, and the
	// revoked device can no longer confirm anything.
	if _, err := f.alice.RevokeGrant(ctx, RevokeGrantArgs{ResourceIRI: iri, Device: f.device.Address()}); err != nil {
		t.Fatal(err)
	}
	round, err := f.alice.RequestMonitoring(ctx, iri)
	if err != nil {
		t.Fatal(err)
	}
	if len(round.Targets) != 0 || !round.Closed {
		t.Fatalf("round after revocation = %+v", round)
	}
}

func TestReportUnresponsiveEdgeCases(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	iri := f.registerAlicePodAndResource(alicePolicy())
	f.registerDevice()
	f.grantAndRetrieve(iri, policy.PurposeWebAnalytics)

	// Unknown round reverts.
	if _, err := f.alice.ReportUnresponsive(ctx, iri, 99); err == nil {
		t.Fatal("unknown round accepted")
	}
	// Unknown resource reverts.
	if _, err := f.alice.ReportUnresponsive(ctx, "https://missing", 1); err == nil {
		t.Fatal("unknown resource accepted")
	}
	// Non-owner reverts.
	round, err := f.alice.RequestMonitoring(ctx, iri)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.bob.ReportUnresponsive(ctx, iri, round.Round); err == nil {
		t.Fatal("non-owner close accepted")
	}
	// Partial response: two targets, one answers, one is flagged.
	dev2 := cryptoutil.MustGenerateKey()
	client2 := NewClient(sealingBackend{node: f.node}, dev2, f.deAddr)
	var m cryptoutil.Hash
	copy(m[:], []byte("trusted-app-measurement-00000000"))
	cert, err := f.ca.Issue(dev2, map[string]string{"measurement": hexEncode(m)}, t0, t0.Add(time.Hour*24*365))
	if err != nil {
		t.Fatal(err)
	}
	certRaw := cert.Encode()
	if _, err := client2.RegisterDevice(ctx, certRaw); err != nil {
		t.Fatal(err)
	}
	if _, err := f.alice.RecordGrant(ctx, RecordGrantArgs{
		ResourceIRI: iri, Consumer: dev2.Address(), Device: dev2.Address(),
		Purpose: policy.PurposeWebAnalytics,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := client2.ConfirmRetrieval(ctx, iri); err != nil {
		t.Fatal(err)
	}
	round2, err := f.alice.RequestMonitoring(ctx, iri)
	if err != nil {
		t.Fatal(err)
	}
	if len(round2.Targets) != 2 {
		t.Fatalf("targets = %v", round2.Targets)
	}
	// Only device 1 answers.
	now := f.clk.Now()
	ev := Evidence{
		ResourceIRI: iri, Device: f.device.Address(), Round: round2.Round,
		PolicyVersion: 1, StillStored: true, RetrievedAt: now, GeneratedAt: now,
	}
	if _, err := f.device.SubmitEvidence(ctx, f.signedEvidence(ev)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.alice.ReportUnresponsive(ctx, iri, round2.Round); err != nil {
		t.Fatal(err)
	}
	viols, err := f.alice.GetViolations(iri)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 1 || viols[0].Device != dev2.Address() || viols[0].Kind != ViolationUnresponsive {
		t.Fatalf("violations = %+v", viols)
	}
}

func TestRevertErrorMessage(t *testing.T) {
	err := &RevertError{Method: "updatePolicy", Reason: "stale version"}
	if msg := err.Error(); !strings.Contains(msg, "updatePolicy") || !strings.Contains(msg, "stale version") {
		t.Fatalf("message = %q", msg)
	}
}

func hexEncode(h cryptoutil.Hash) string { return hex.EncodeToString(h[:]) }

func TestMonitoringOnlyOwner(t *testing.T) {
	f := newFixture(t)
	iri := f.registerAlicePodAndResource(alicePolicy())
	if _, err := f.bob.RequestMonitoring(context.Background(), iri); err == nil {
		t.Fatal("non-owner started monitoring")
	}
}

// TestSeparatorInIdentifierRefused: composite keys join their parts with
// '|', so a resource IRI that holds one can name another resource's keys.
// Bob registered "<alice's IRI>|x" in his own pod, granted his device on it
// and had it confirm retrieval; the grant was stored under
// "grant/<alice's IRI>|x|<device>", inside Alice's grant prefix. Alice's
// getGrants then listed Bob's grant, and her monitoring round targeted his
// device, waited on it and, when it stayed silent, charged it to her
// resource. registerResource now refuses a '|' in the resource IRI. A pod
// WebID is only ever a whole key (pod/<webID>), so a '|' in one names no
// other pod's keys: registerPod takes it, and registerResource refuses a
// WebID no pod is registered under, as it refuses any.
func TestSeparatorInIdentifierRefused(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	iri := f.registerAlicePodAndResource(alicePolicy())
	f.registerDevice()
	const bobPod = "https://bob.pod/profile#me"
	if _, err := f.bob.RegisterPod(ctx, RegisterPodArgs{OwnerWebID: bobPod, Location: "https://bob.pod/"}); err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error) {
		t.Helper()
		var revert *RevertError
		if !errors.As(err, &revert) || !strings.Contains(revert.Reason, "contains '|'") {
			t.Errorf("%s: %v, want a revert for the '|'", what, err)
		}
	}

	forged := iri + "|x"
	_, err := f.bob.RegisterResource(ctx, RegisterResourceArgs{
		ResourceIRI: forged, PodWebID: bobPod, Location: "https://bob.pod/x", Policy: policy.New(forged, bobPod, t0),
	})
	refused("a resource IRI with '|'", err)
	if err == nil {
		// Carry the attack through, to show what the registration let Bob do.
		if _, err := f.bob.RecordGrant(ctx, RecordGrantArgs{
			ResourceIRI: forged, Consumer: f.device.Address(), Device: f.device.Address(), Purpose: policy.PurposeWebAnalytics,
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.device.ConfirmRetrieval(ctx, forged); err != nil {
			t.Fatal(err)
		}
	}
	if grants, err := f.alice.GetGrants(iri); err != nil || len(grants) != 0 {
		t.Errorf("Alice's grants: %+v (%v), want none", grants, err)
	}
	round, err := f.alice.RequestMonitoring(ctx, iri)
	if err != nil || len(round.Targets) != 0 || !round.Closed {
		t.Errorf("Alice's round: %d targets, closed=%v (%v); want none, closed", len(round.Targets), round.Closed, err)
	}

	_, err = f.bob.RegisterResource(ctx, RegisterResourceArgs{
		ResourceIRI: "https://bob.pod/z", PodWebID: bobPod + "|y", Location: "https://bob.pod/z", Policy: policy.New("https://bob.pod/z", bobPod, t0),
	})
	var revert *RevertError
	if !errors.As(err, &revert) || !strings.Contains(revert.Reason, "not registered") {
		t.Errorf("a resource in pod %q: %v, want a revert for the unregistered pod", bobPod+"|y", err)
	}
	if _, err := f.bob.RegisterPod(ctx, RegisterPodArgs{OwnerWebID: bobPod + "|y", Location: "https://bob.pod/y"}); err != nil {
		t.Fatalf("a pod WebID with '|': %v", err)
	}
	if pod, err := f.alice.GetPod(bobPod); err != nil || pod.Location != "https://bob.pod/" {
		t.Errorf("Bob's first pod after registering %q: %+v (%v)", bobPod+"|y", pod, err)
	}
}
