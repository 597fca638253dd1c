package distexchange

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/cryptoutil"
	"repro/internal/policy"
	"repro/internal/store"
)

// listWorld is a DE App over a bare state with one monitored resource, set
// up so that a drawn evidence can meet every fate submitEvidence has:
//
//	holders[0..3]  targets of round 1 (closed with nobody heard) and of
//	               round 2 (open)
//	holders[4]     granted and then revoked before round 2: not a target,
//	               but its grant record is still there
//	holders[5]     obtained its copy after round 2 was requested: a grant,
//	               no target
//	stranger       registered, but has no grant on the resource
//	nobody         not a registered device
type listWorld struct {
	t        *testing.T
	rt       *contract.Runtime
	deAddr   cryptoutil.Address
	st       *chain.Overlay
	relay    *cryptoutil.KeyPair
	iri      string
	holders  []*cryptoutil.KeyPair
	stranger *cryptoutil.KeyPair
	nobody   *cryptoutil.KeyPair
}

func (w *listWorld) exec(key *cryptoutil.KeyPair, method string, args any, at time.Time) *chain.Receipt {
	w.t.Helper()
	tx, err := chain.NewTx(key, 0, w.deAddr, method, args, DefaultGasLimit)
	if err != nil {
		w.t.Fatal(err)
	}
	// What the chain does around an execution: a reverted one leaves nothing.
	checkpoint := w.st.Checkpoint()
	r := w.rt.ExecuteTx(w.st, tx, chain.BlockContext{Number: 1, Time: at})
	if !r.Succeeded() {
		w.st.RevertTo(checkpoint)
	}
	return r
}

func (w *listWorld) must(key *cryptoutil.KeyPair, method string, args any) {
	w.t.Helper()
	if r := w.exec(key, method, args, t0); !r.Succeeded() {
		w.t.Fatalf("%s: %s", method, r.Err)
	}
}

func newListWorld(t *testing.T) *listWorld {
	t.Helper()
	ca, err := cryptoutil.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	rt := contract.NewRuntime()
	pol := alicePolicy()
	pol.AllowedPurposes = []policy.Purpose{policy.PurposeWebAnalytics}
	pol.MaxUses = 3
	pol.MaxRetention = 24 * time.Hour
	w := &listWorld{
		t: t, rt: rt, st: chain.NewOverlay(chain.NewState()), iri: pol.ResourceIRI,
		deAddr:   rt.Deploy(ContractName, New(Config{ManufacturerCAKey: ca.PublicBytes()})),
		relay:    cryptoutil.MustGenerateKey(),
		stranger: cryptoutil.MustGenerateKey(),
		nobody:   cryptoutil.MustGenerateKey(),
	}
	alice := cryptoutil.MustGenerateKey()
	const webID = "https://alice.pod/profile#me"
	w.must(alice, "registerPod", RegisterPodArgs{OwnerWebID: webID, Location: "https://alice.pod/"})
	w.must(alice, "registerResource", RegisterResourceArgs{ResourceIRI: w.iri, PodWebID: webID, Location: w.iri, Policy: pol})
	register := func(key *cryptoutil.KeyPair) {
		var m cryptoutil.Hash
		cert, err := ca.Issue(key, map[string]string{"measurement": hex.EncodeToString(m[:])}, t0, t0.Add(365*24*time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		raw := cert.Encode()
		w.must(key, "registerDevice", RegisterDeviceArgs{Certificate: raw})
	}
	hold := func(key *cryptoutil.KeyPair) {
		register(key)
		w.must(alice, "recordGrant", RecordGrantArgs{ResourceIRI: w.iri, Consumer: key.Address(), Device: key.Address(), Purpose: policy.PurposeWebAnalytics})
		w.must(key, "confirmRetrieval", ConfirmRetrievalArgs{ResourceIRI: w.iri})
	}
	for range 6 {
		w.holders = append(w.holders, cryptoutil.MustGenerateKey())
	}
	for _, key := range w.holders[:5] {
		hold(key)
	}
	register(w.stranger)
	w.must(alice, "revokeGrant", RevokeGrantArgs{ResourceIRI: w.iri, Device: w.holders[4].Address()})
	w.must(alice, "requestMonitoring", RequestMonitoringArgs{ResourceIRI: w.iri})
	w.must(alice, "reportUnresponsive", ReportUnresponsiveArgs{ResourceIRI: w.iri, Round: 1})
	w.must(alice, "requestMonitoring", RequestMonitoringArgs{ResourceIRI: w.iri})
	hold(w.holders[5])
	w.must(alice, "updatePolicy", UpdatePolicyArgs{ResourceIRI: w.iri, Policy: pol.NextVersion(t0)})
	return w
}

// fork returns a world of its own that starts from w's state: a fresh
// overlay that every key of w's is copied into.
func (w *listWorld) fork() *listWorld {
	f := *w
	f.st = chain.NewOverlay(chain.NewState())
	for _, k := range w.st.Keys("") {
		v, _ := w.st.Get([]byte(k))
		f.st.Set(k, v)
	}
	return &f
}

// draw returns one signed evidence: from any of the world's devices, for
// round 0, 1 or 2, compliant or breaking the policy in up to four ways,
// and one time in five under a signature that does not verify.
func (w *listWorld) draw(rng *rand.Rand) SignedEvidence {
	w.t.Helper()
	keys := append(append([]*cryptoutil.KeyPair(nil), w.holders...), w.stranger, w.nobody)
	key := keys[rng.Intn(len(keys))]
	ev := Evidence{
		ResourceIRI: w.iri, Device: key.Address(), Round: uint64(rng.Intn(3)),
		PolicyVersion: uint64(1 + rng.Intn(2)), StillStored: true, RetrievedAt: t0, UseCount: uint64(1 + rng.Intn(5)),
		GeneratedAt: t0.Add(time.Duration(rng.Intn(48)) * time.Hour),
	}
	for range rng.Intn(3) {
		purpose := policy.PurposeWebAnalytics
		if rng.Intn(3) == 0 {
			purpose = policy.PurposeMarketing
		}
		ev.Entries = append(ev.Entries, UsageEntry{At: t0.Add(time.Minute), Action: policy.ActionUse, Purpose: purpose, Allowed: true})
	}
	if rng.Intn(4) == 0 {
		ev.StillStored, ev.DeletedAt = false, t0.Add(time.Duration(rng.Intn(48))*time.Hour)
	}
	sig, err := key.Sign(ev.SigningBytes())
	if err != nil {
		w.t.Fatal(err)
	}
	if rng.Intn(5) == 0 {
		sig[len(sig)-1] ^= 1
	}
	return SignedEvidence{Evidence: ev, Signature: sig}
}

// record reads the evidence record stored for the world's resource under
// round and seq.
func (w *listWorld) record(round, seq uint64) (EvidenceRecord, error) {
	raw, _ := w.st.Get(evKey([]byte(w.deAddr.String()+"/"), w.iri, round, seq))
	return decodeRecord(raw, decodeEvidenceRecord)
}

// snapshot is the DE App's whole state and every event payload emitted so
// far, in order.
type snapshot struct {
	state  map[string]string
	events []string
}

func (w *listWorld) snapshot(receipts []*chain.Receipt) snapshot {
	s := snapshot{state: make(map[string]string)}
	for _, k := range w.st.Keys(w.deAddr.String() + "/") {
		v, _ := w.st.Get([]byte(k))
		s.state[k] = string(v)
	}
	for _, r := range receipts {
		for _, ev := range r.Events {
			s.events = append(s.events, ev.Topic+"|"+ev.Key+"|"+string(ev.Data))
		}
	}
	return s
}

// TestEvidenceListMatchesSingleSubmissions is the differential behind "a
// single evidence is a list of one": the same signed evidence, submitted as
// N transactions of one and as one transaction of N, leave byte-identical
// contract state — ev/, viol/, the three round keys, every counter — and
// the same event payloads in the same order. Item by item the list reports
// what the single transaction did: the stored record's seq, or the revert
// text.
func TestEvidenceListMatchesSingleSubmissions(t *testing.T) {
	base := newListWorld(t)
	at := t0.Add(48 * time.Hour)
	// met counts the fates the drawn lists met, so that the seeds cannot
	// drift away from a case without the test saying so.
	met := map[string]int{}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		singles, list := base.fork(), base.fork()
		signed := make([]SignedEvidence, 1+rng.Intn(12))
		for i := range signed {
			signed[i] = base.draw(rng)
		}

		one := make([]*chain.Receipt, len(signed))
		for i := range signed {
			one[i] = singles.exec(singles.relay, methodSubmitEvidence, SubmitEvidenceArgs{Signed: signed[i : i+1]}, at)
		}
		all := list.exec(list.relay, methodSubmitEvidence, SubmitEvidenceArgs{Signed: signed}, at)

		want, got := singles.snapshot(one), list.snapshot([]*chain.Receipt{all})
		if !reflect.DeepEqual(got.state, want.state) {
			for k, v := range want.state {
				if got.state[k] != v {
					t.Errorf("seed %d: %s differs: %x as a list, %x one by one", seed, k, got.state[k], v)
				}
			}
			t.Fatalf("seed %d: %d keys as a list, %d one by one", seed, len(got.state), len(want.state))
		}
		if !reflect.DeepEqual(got.events, want.events) {
			t.Fatalf("seed %d: %d events as a list, %d one by one, or in another order", seed, len(got.events), len(want.events))
		}

		accepted, firstRefusal := 0, ""
		answered := map[string]bool{}
		for i, r := range one {
			ev := &signed[i].Evidence
			switch {
			case !r.Succeeded():
				if firstRefusal == "" {
					firstRefusal = r.Err
				}
				for _, reason := range []string{"signature invalid", "not registered", "no grant"} {
					if strings.Contains(r.Err, reason) {
						met[reason]++
					}
				}
				continue
			case answered[fmt.Sprint(ev.Device, ev.Round)]:
				met["repeat response"]++
			case ev.Device == base.holders[4].Address():
				met["revoked grant"]++
			case ev.Device == base.holders[5].Address():
				met["non-target device"]++
			}
			accepted++
			answered[fmt.Sprint(ev.Device, ev.Round)] = true
			met[fmt.Sprint("round ", ev.Round)]++
		}
		if accepted == 0 {
			if all.Succeeded() || all.Err != firstRefusal {
				t.Fatalf("seed %d: a list of %d refusals: status %v, %q; want a revert with the first reason %q", seed, len(signed), all.Status, all.Err, firstRefusal)
			}
			met["all refused"]++
			continue
		}
		if accepted < len(signed) {
			met["partly refused"]++
		}
		outcomes, err := DecodeEvidenceOutcomes(all.Return)
		if err != nil || len(outcomes) != len(signed) {
			t.Fatalf("seed %d: %d outcomes for %d evidence (%v): %s", seed, len(outcomes), len(signed), err, all.Err)
		}
		for i, o := range outcomes {
			if !one[i].Succeeded() {
				var revert *RevertError
				if !errors.As(o.Err, &revert) || revert.Reason != one[i].Err {
					t.Errorf("seed %d item %d: outcome %v, alone it reverted with %q", seed, i, o.Err, one[i].Err)
				}
				continue
			}
			alone, err := DecodeEvidenceOutcomes(one[i].Return)
			if err != nil || len(alone) != 1 {
				t.Fatal(err)
			}
			if o.Err != nil || o.Seq != alone[0].Seq {
				t.Errorf("seed %d item %d: outcome seq %d (%v), alone %d", seed, i, o.Seq, o.Err, alone[0].Seq)
			}
			rec, err := list.record(signed[i].Evidence.Round, o.Seq)
			if err != nil || rec.Seq != o.Seq || rec.Evidence.Device != signed[i].Evidence.Device {
				t.Fatalf("seed %d item %d: record under seq %d: %+v (%v)", seed, i, o.Seq, rec, err)
			}
			for _, kind := range rec.Findings {
				met[string(kind)]++
			}
		}
	}
	for _, fate := range []string{
		"signature invalid", "not registered", "no grant", "all refused", "partly refused",
		"repeat response", "revoked grant", "non-target device", "round 0", "round 1", "round 2",
		string(ViolationStalePolicy), string(ViolationRetention), string(ViolationPurpose), string(ViolationMaxUses),
	} {
		if met[fate] == 0 {
			t.Errorf("no drawn list met %q", fate)
		}
	}
}

// TestEvidenceListRefusals: a list the contract refuses whole reverts with
// its first refusal and writes nothing; a list it refuses in part succeeds,
// records what it accepted and names each refusal where it stood.
func TestEvidenceListRefusals(t *testing.T) {
	w := newListWorld(t)
	sign := func(key *cryptoutil.KeyPair, round uint64) SignedEvidence {
		ev := Evidence{ResourceIRI: w.iri, Device: key.Address(), Round: round, PolicyVersion: 1, StillStored: true, RetrievedAt: t0, GeneratedAt: t0}
		sig, err := key.Sign(ev.SigningBytes())
		if err != nil {
			t.Fatal(err)
		}
		return SignedEvidence{Evidence: ev, Signature: sig}
	}
	forged := sign(w.holders[0], 2)
	forged.Signature[0] ^= 1
	before := w.snapshot(nil)

	r := w.exec(w.relay, methodSubmitEvidence, SubmitEvidenceArgs{Signed: []SignedEvidence{sign(w.stranger, 2), forged, sign(w.nobody, 2)}}, t0)
	if r.Succeeded() || !strings.Contains(r.Err, "no grant for device "+w.stranger.Address().String()) || len(r.Events) != 0 {
		t.Fatalf("three refusals: status %v, %q, %d events; want a revert naming the first", r.Status, r.Err, len(r.Events))
	}
	if r := w.exec(w.relay, methodSubmitEvidence, SubmitEvidenceArgs{}, t0); r.Succeeded() || !strings.Contains(r.Err, "no evidence") {
		t.Fatalf("an empty list: status %v, %q", r.Status, r.Err)
	}
	if after := w.snapshot(nil); !reflect.DeepEqual(after, before) {
		t.Fatal("a refused list changed the contract's state")
	}

	r = w.exec(w.relay, methodSubmitEvidence, SubmitEvidenceArgs{Signed: []SignedEvidence{
		forged, sign(w.holders[0], 2), sign(w.nobody, 2), sign(w.holders[1], 2),
	}}, t0)
	if !r.Succeeded() {
		t.Fatal(r.Err)
	}
	outcomes, err := DecodeEvidenceOutcomes(r.Return)
	if err != nil || len(outcomes) != 4 {
		t.Fatalf("%d outcomes: %v", len(outcomes), err)
	}
	for i, want := range []string{"evidence signature invalid", "", "device " + w.nobody.Address().String() + " not registered", ""} {
		o := outcomes[i]
		if want == "" {
			rec, err := w.record(2, o.Seq)
			if o.Err != nil || o.Seq != uint64(1+i/2) || err != nil || rec.Evidence.Device != w.holders[i/2].Address() {
				t.Errorf("item %d: seq %d (%v), record %+v (%v), want holder %d's record", i, o.Seq, o.Err, rec, err, i/2)
			}
			continue
		}
		var revert *RevertError
		if !errors.As(o.Err, &revert) || revert.Method != methodSubmitEvidence || !strings.Contains(revert.Reason, want) {
			t.Errorf("item %d: %v, want a refusal saying %q", i, o.Err, want)
		}
	}
	var recorded int
	for _, ev := range r.Events {
		if ev.Topic == TopicEvidenceRecorded {
			recorded++
		}
	}
	if recorded != 2 {
		t.Errorf("%d EvidenceRecorded events, want the two accepted", recorded)
	}
}

// recordingBackend notes the transactions a client submits.
type recordingBackend struct {
	sealingBackend
	txs *[]*chain.Tx
}

func (b recordingBackend) Submit(txs []*chain.Tx) []chain.TxVerdict {
	*b.txs = append(*b.txs, txs...)
	return b.sealingBackend.Submit(txs)
}

// TestEvidenceListSplitsAtTheGasLimit: a 200-target round whose devices each
// report 50 usage entries does not fit one transaction. The client cuts it
// where its gas bound says, the bound holds — no transaction runs out of
// gas, every evidence is recorded, in order — and the bound is the one the
// contract's charges add up to for an evidence that breaks the policy in
// every way it can.
func TestEvidenceListSplitsAtTheGasLimit(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	iri := f.registerAlicePodAndResource(alicePolicy())
	const devices, entries = 200, 50
	var m cryptoutil.Hash
	keys := make([]*cryptoutil.KeyPair, devices)
	for i := range keys {
		keys[i] = cryptoutil.MustGenerateKey()
		device := NewClient(sealingBackend{f.node}, keys[i], f.deAddr)
		cert, err := f.ca.Issue(keys[i], map[string]string{"measurement": hex.EncodeToString(m[:])}, t0, t0.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		raw := cert.Encode()
		if _, err := device.RegisterDevice(ctx, raw); err != nil {
			t.Fatal(err)
		}
		if _, err := f.alice.RecordGrant(ctx, RecordGrantArgs{ResourceIRI: iri, Consumer: keys[i].Address(), Device: keys[i].Address(), Purpose: policy.PurposeWebAnalytics}); err != nil {
			t.Fatal(err)
		}
		if _, err := device.ConfirmRetrieval(ctx, iri); err != nil {
			t.Fatal(err)
		}
	}
	round, err := f.alice.RequestMonitoring(ctx, iri)
	if err != nil || len(round.Targets) != devices {
		t.Fatalf("%d targets: %v", len(round.Targets), err)
	}
	byAddr := make(map[cryptoutil.Address]*cryptoutil.KeyPair, devices)
	for _, key := range keys {
		byAddr[key.Address()] = key
	}
	now := f.clk.Now()
	signed := make([]SignedEvidence, devices)
	var bound uint64
	for i, target := range round.Targets {
		ev := Evidence{
			ResourceIRI: iri, Device: target, Round: round.Round, PolicyVersion: 1,
			StillStored: true, RetrievedAt: now, UseCount: entries, GeneratedAt: now,
		}
		for range entries {
			ev.Entries = append(ev.Entries, UsageEntry{At: now, Action: policy.ActionUse, Purpose: policy.PurposeWebAnalytics, Allowed: true})
		}
		sig, err := byAddr[target].Sign(ev.SigningBytes())
		if err != nil {
			t.Fatal(err)
		}
		signed[i] = SignedEvidence{Evidence: ev, Signature: sig}
		if i == 0 {
			// Every evidence here has the same shape, so one bound serves.
			bound = evidenceGasBound(&signed[0])
		}
	}
	perTx := int((DefaultGasLimit - evidenceTxGas) / bound)
	wantTxs := (devices + perTx - 1) / perTx
	if wantTxs < 2 {
		t.Fatalf("the round fits %d transaction: nothing to split", wantTxs)
	}

	var txs []*chain.Tx
	relay := NewClient(recordingBackend{sealingBackend{f.node}, &txs}, cryptoutil.MustGenerateKey(), f.deAddr)
	for i, o := range relay.SubmitEvidenceBatch(ctx, signed) {
		if o.Err != nil || o.Seq != uint64(i+1) {
			t.Fatalf("evidence %d: seq %d (%v)", i, o.Seq, o.Err)
		}
	}
	recs, err := f.alice.GetRoundEvidence(iri, round.Round)
	if err != nil || len(recs) != devices {
		t.Fatalf("%d records (%v), want %d", len(recs), err, devices)
	}
	for i, rec := range recs {
		if rec.Evidence.Device != round.Targets[i] || rec.Seq != uint64(i+1) {
			t.Fatalf("record %d: device %s seq %d", i, rec.Evidence.Device.Short(), rec.Seq)
		}
	}
	if len(txs) != wantTxs {
		t.Errorf("%d transactions, want %d of at most %d evidence", len(txs), wantTxs, perTx)
	}
	for i, tx := range txs {
		var args SubmitEvidenceArgs
		if err := decodeArgs(tx.Args, &args, decodeSubmitEvidenceArgs); err != nil {
			t.Fatal(err)
		}
		r := f.node.Receipt(tx.Hash())
		if !r.Succeeded() || tx.Nonce != uint64(i) {
			t.Fatalf("transaction %d: nonce %d, %s", i, tx.Nonce, r.Err)
		}
		if limit := evidenceTxGas + uint64(len(args.Signed))*bound; r.GasUsed > limit || limit > DefaultGasLimit {
			t.Errorf("transaction %d: %d gas for %d evidence, bound %d", i, r.GasUsed, len(args.Signed), limit)
		}
	}
	if state, err := f.alice.GetMonitoringRound(iri, round.Round); err != nil || !state.Closed {
		t.Errorf("round closed=%v (%v)", state.Closed, err)
	}
}

// TestEvidenceGasBoundCoversTheWorstCase: evidence that breaks the policy in
// all four ways and answers an open round costs what evidenceGasBound says
// or less, whatever the length of its log.
func TestEvidenceGasBoundCoversTheWorstCase(t *testing.T) {
	for _, entries := range []int{0, 1, 50} {
		t.Run(fmt.Sprint(entries, " entries"), func(t *testing.T) {
			f := newFixture(t)
			ctx := context.Background()
			pol := alicePolicy()
			pol.AllowedPurposes = []policy.Purpose{policy.PurposeWebAnalytics}
			pol.MaxUses = 1
			pol.MaxRetention = time.Hour
			iri := f.registerAlicePodAndResource(pol)
			f.registerDevice()
			f.grantAndRetrieve(iri, policy.PurposeWebAnalytics)
			if _, err := f.alice.UpdatePolicy(ctx, UpdatePolicyArgs{ResourceIRI: iri, Policy: pol.NextVersion(t0.Add(time.Minute))}); err != nil {
				t.Fatal(err)
			}
			round, err := f.alice.RequestMonitoring(ctx, iri)
			if err != nil {
				t.Fatal(err)
			}
			f.clk.Advance(48 * time.Hour)
			ev := Evidence{
				ResourceIRI: iri, Device: f.device.Address(), Round: round.Round, PolicyVersion: 1,
				StillStored: true, RetrievedAt: t0, UseCount: 1 << 40, GeneratedAt: f.clk.Now(),
				Entries: []UsageEntry{{At: t0, Action: policy.ActionUse, Purpose: policy.PurposeMarketing, Allowed: true}},
			}
			for range entries {
				ev.Entries = append(ev.Entries, UsageEntry{At: t0, Action: policy.ActionUse, Purpose: policy.PurposeWebAnalytics, Allowed: true})
			}
			var txs []*chain.Tx
			device := NewClient(recordingBackend{sealingBackend{f.node}, &txs}, f.devKey, f.deAddr)
			signed := f.signedEvidence(ev)
			seq, err := device.SubmitEvidence(ctx, signed)
			if err != nil {
				t.Fatal(err)
			}
			recs, err := f.alice.GetRoundEvidence(iri, round.Round)
			if err != nil || len(recs) != 1 || recs[0].Seq != seq || len(recs[0].Findings) != 4 {
				t.Fatalf("records %+v (%v), want seq %d with all four findings", recs, err, seq)
			}
			used := f.node.Receipt(txs[0].Hash()).GasUsed
			bound := evidenceTxGas + evidenceGasBound(&signed)
			if used > bound || used < bound/2 {
				t.Fatalf("%d gas used, bound %d: want the bound to hold, and by less than half", used, bound)
			}
		})
	}
}

// TestEvidenceListWritesRecordsOnce: a 16-device round answered in one
// transaction leaves each evidence record in one place, under its ledger
// key. The receipt returns 16 seqs and no record bytes; every event the
// chain has carried names its record instead of copying it — nothing for
// a registration, round and seq for evidence and violations — except the
// two whose subscriber decodes the payload; and the round's listing holds
// 16 records under the returned seqs.
func TestEvidenceListWritesRecordsOnce(t *testing.T) {
	const devices = 16
	f := newFixture(t)
	ctx := context.Background()
	iri := f.registerAlicePodAndResource(alicePolicy())
	holders := make([]holder, devices)
	for i := range holders {
		holders[i] = f.addHolder(iri)
	}
	if _, err := f.alice.UpdatePolicy(ctx, UpdatePolicyArgs{ResourceIRI: iri, Policy: alicePolicy().NextVersion(t0)}); err != nil {
		t.Fatal(err)
	}
	round, err := f.alice.RequestMonitoring(ctx, iri)
	if err != nil || len(round.Targets) != devices {
		t.Fatalf("%d targets: %v", len(round.Targets), err)
	}
	now := f.clk.Now()
	signed := make([]SignedEvidence, devices)
	for i, h := range holders {
		// Policy version 1 of 2: one stale-policy violation each.
		ev := Evidence{ResourceIRI: iri, Device: h.key.Address(), Round: round.Round, PolicyVersion: 1,
			StillStored: true, RetrievedAt: now, GeneratedAt: now}
		sig, err := h.key.Sign(ev.SigningBytes())
		if err != nil {
			t.Fatal(err)
		}
		signed[i] = SignedEvidence{Evidence: ev, Signature: sig}
	}
	var txs []*chain.Tx
	relay := NewClient(recordingBackend{sealingBackend{f.node}, &txs}, cryptoutil.MustGenerateKey(), f.deAddr)
	outcomes := relay.SubmitEvidenceBatch(ctx, signed)
	if len(txs) != 1 {
		t.Fatalf("%d transactions, want 1", len(txs))
	}
	r := f.node.Receipt(txs[0].Hash())

	want := appendEvidenceOutcomes(nil, devices)
	for i, o := range outcomes {
		if o.Err != nil || o.Seq != uint64(i+1) {
			t.Fatalf("evidence %d: seq %d (%v)", i, o.Seq, o.Err)
		}
		want = appendAcceptedEvidence(want, o.Seq)
	}
	if !bytes.Equal(r.Return, want) {
		t.Fatalf("return value\n%x\nwant 16 seqs\n%x", r.Return, want)
	}

	recs, err := f.alice.GetRoundEvidence(iri, round.Round)
	if err != nil || len(recs) != devices {
		t.Fatalf("%d records in the round (%v), want %d", len(recs), err, devices)
	}
	for i := range recs {
		if recs[i].Seq != outcomes[i].Seq || recs[i].Evidence.Device != holders[i].key.Address() {
			t.Errorf("record %d: seq %d of %s, want seq %d of %s", i, recs[i].Seq, recs[i].Evidence.Device.Short(), outcomes[i].Seq, holders[i].key.Address().Short())
		}
		if enc := appendEvidenceRecord(nil, &recs[i]); bytes.Contains(r.Return, enc) {
			t.Errorf("record %d is in the return value", i)
		}
	}

	var evidenceRefs, violationRefs int
	for _, ev := range f.emitted(chain.EventFilter{}) {
		switch ev.Topic {
		case TopicPolicyUpdated, TopicMonitoringRequested:
			continue
		case TopicEvidenceRecorded, TopicViolationDetected:
			d := store.NewDec(ev.Data)
			refRound, seq := d.Uvarint(), d.Uvarint()
			if err := d.Finish(); err != nil || ev.Key != iri {
				t.Fatalf("%s event keyed %q carries %x: want round and seq, two uvarints (%v)", ev.Topic, ev.Key, ev.Data, err)
			}
			if ev.TxHash != txs[0].Hash() {
				continue
			}
			if refRound != round.Round {
				t.Errorf("%s event names round %d, want %d", ev.Topic, refRound, round.Round)
			}
			if ev.Topic == TopicEvidenceRecorded {
				if seq != outcomes[evidenceRefs].Seq {
					t.Errorf("EvidenceRecorded event %d names seq %d, want %d", evidenceRefs, seq, outcomes[evidenceRefs].Seq)
				}
				evidenceRefs++
			} else {
				violationRefs++
				if seq != uint64(violationRefs) {
					t.Errorf("ViolationDetected event %d names seq %d", violationRefs, seq)
				}
			}
		default:
			if len(ev.Data) != 0 {
				t.Errorf("%s event keyed %q carries %d bytes, want none", ev.Topic, ev.Key, len(ev.Data))
			}
		}
	}
	if evidenceRefs != devices || violationRefs != devices {
		t.Fatalf("%d EvidenceRecorded and %d ViolationDetected events, want %d each", evidenceRefs, violationRefs, devices)
	}
	if viols, err := f.alice.GetRoundViolations(iri, round.Round); err != nil || len(viols) != devices {
		t.Fatalf("%d violations in the round (%v), want %d", len(viols), err, devices)
	}
}

// TestEvidenceListInterleavedResources: a list whose items name resources
// A, B, A, where B's policy is narrower, judges each item by its own
// resource's record. The check pass decodes a resource record only when
// its bytes differ from those of the record it decoded last, so the third
// item decodes A's again: reusing the last record without comparing would
// judge it by B's policy, and keeping the first would judge B's item by A's.
func TestEvidenceListInterleavedResources(t *testing.T) {
	w, iris, signed := interleavedList(t)
	r := w.rt.ExecuteTx(w.ov, w.tx(cryptoutil.MustGenerateKey(), "submitEvidence", SubmitEvidenceArgs{Signed: signed}), execBlock)
	outcomes, err := DecodeEvidenceOutcomes(r.Return)
	if !r.Succeeded() || err != nil || len(outcomes) != len(iris) {
		t.Fatalf("submitEvidence: %s, %v, %d outcomes", r.Err, err, len(outcomes))
	}
	want := [][]ViolationKind{nil, {ViolationPurpose, ViolationMaxUses}, nil}
	namespace := []byte(w.deAddr.String() + "/")
	for i, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("item %d (%s) refused: %v", i, iris[i], o.Err)
		}
		raw, _ := w.ov.Get(evKey(namespace, iris[i], 0, o.Seq))
		rec, err := decodeRecord(raw, decodeEvidenceRecord)
		if err != nil {
			t.Fatalf("item %d (%s): %v", i, iris[i], err)
		}
		if !reflect.DeepEqual(rec.Findings, want[i]) {
			t.Errorf("item %d (%s): findings %v, want %v", i, iris[i], rec.Findings, want[i])
		}
	}
}

// interleavedList registers resource A (any purpose, no cap on uses) and a
// narrower B (academic use only, one use), has one device retrieve both,
// and returns its evidence on A, B and A again, each reporting two
// medical-research uses: B's breaks its policy twice, A's do not.
func interleavedList(t *testing.T) (w *execWorld, iris []string, signed []SignedEvidence) {
	t.Helper()
	w = newExecWorld(t)
	owner := cryptoutil.MustGenerateKey()
	w.withResource(owner) // A: any purpose, no cap on uses
	const narrowIRI = "https://alice.pod/narrow.csv"
	narrow := policy.New(narrowIRI, allocsWebID, t0)
	narrow.AllowedPurposes = []policy.Purpose{policy.PurposeAcademic}
	narrow.MaxUses = 1
	w.must(owner, "registerResource", RegisterResourceArgs{ResourceIRI: narrowIRI, PodWebID: allocsWebID, Location: narrowIRI, Policy: narrow})
	device := w.withRetrievedGrant(owner, cryptoutil.MustGenerateKey())
	w.must(owner, "recordGrant", RecordGrantArgs{ResourceIRI: narrowIRI, Consumer: device.Address(), Device: device.Address(), Purpose: policy.PurposeAcademic})
	w.must(device, "confirmRetrieval", ConfirmRetrievalArgs{ResourceIRI: narrowIRI})

	iris = []string{allocsIRI, narrowIRI, allocsIRI}
	signed = make([]SignedEvidence, len(iris))
	for i, iri := range iris {
		ev := Evidence{
			ResourceIRI: iri, Device: device.Address(), PolicyVersion: 1, StillStored: true,
			RetrievedAt: t0, UseCount: 2, GeneratedAt: t0.Add(time.Minute),
			Entries: []UsageEntry{{At: t0, Action: policy.ActionUse, Purpose: policy.PurposeMedicalResearch, Allowed: true}},
		}
		sig, err := device.Sign(ev.SigningBytes())
		if err != nil {
			t.Fatal(err)
		}
		signed[i] = SignedEvidence{Evidence: ev, Signature: sig}
	}
	return w, iris, signed
}

// countingState is a transaction's state that counts the writes made to
// each key.
type countingState struct {
	chain.StateRW
	sets map[string]int
}

func (s countingState) Set(key string, value []byte) {
	s.sets[key]++
	s.StateRW.Set(key, value)
}

// TestEvidenceCountersWrittenOnce: a call writes each sequence counter it
// advances once, however often it advances it — a 16-item round's evseq/,
// each resource's evseq/ of an interleaved A, B, A list and the violseq/ of
// its two findings, and the violseq/ of a reportUnresponsive that flags
// three silent targets. The keys a call writes are the same either way
// (TestMonitoringWritesOnlyItsMarkers); what a rewrite costs is gas.
func TestEvidenceCountersWrittenOnce(t *testing.T) {
	// check executes tx on w, which must succeed, and wants every one of
	// counters, built without the namespace, written exactly once.
	check := func(what string, w *execWorld, tx *chain.Tx, counters ...[]byte) {
		t.Helper()
		st := countingState{w.ov, map[string]int{}}
		if r := w.rt.ExecuteTx(st, tx, execBlock); !r.Succeeded() {
			t.Fatalf("%s: %s", what, r.Err)
		}
		for _, k := range counters {
			if n := st.sets[w.deAddr.String()+"/"+string(k)]; n != 1 {
				t.Errorf("%s: %s written %d times, want once", what, k, n)
			}
		}
	}

	w, submit := roundSubmission(t, 16)
	check("a 16-item round", w, submit, evSeqKey(nil, allocsIRI))

	w, iris, signed := interleavedList(t)
	check("an A, B, A list", w, w.tx(cryptoutil.MustGenerateKey(), "submitEvidence", SubmitEvidenceArgs{Signed: signed}),
		evSeqKey(nil, iris[0]), evSeqKey(nil, iris[1]), violSeqKey(nil, iris[1]))

	w = newExecWorld(t)
	owner := cryptoutil.MustGenerateKey()
	w.withResource(owner)
	for range 3 {
		w.withRetrievedGrant(owner, cryptoutil.MustGenerateKey())
	}
	w.must(owner, "requestMonitoring", RequestMonitoringArgs{ResourceIRI: allocsIRI})
	check("reportUnresponsive of three silent targets", w, w.tx(owner, "reportUnresponsive", ReportUnresponsiveArgs{ResourceIRI: allocsIRI, Round: 1}),
		violSeqKey(nil, allocsIRI))
}

// TestEvidenceArgViewsConcurrentExecutions: a decoded list's signatures
// and signing slices are views of the transaction's arguments, which the
// verify pass's workers read while every validator executes the same *Tx.
// Executions of one list on copies of one state, all at once, give one
// receipt and leave the arguments as they were.
func TestEvidenceArgViewsConcurrentExecutions(t *testing.T) {
	base := newListWorld(t)
	rng := rand.New(rand.NewSource(1))
	signed := make([]SignedEvidence, 12)
	for i := range signed {
		signed[i] = base.draw(rng)
	}
	tx, err := chain.NewTx(base.relay, 0, base.deAddr, methodSubmitEvidence, SubmitEvidenceArgs{Signed: signed}, DefaultGasLimit)
	if err != nil {
		t.Fatal(err)
	}
	args := bytes.Clone(tx.Args)
	receipts := make([]*chain.Receipt, 4)
	var wg sync.WaitGroup
	for i := range receipts {
		w := base.fork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			receipts[i] = w.rt.ExecuteTx(w.st, tx, chain.BlockContext{Number: 1, Time: t0.Add(48 * time.Hour)})
		}()
	}
	wg.Wait()
	if !receipts[0].Succeeded() {
		t.Fatalf("submitEvidence: %s", receipts[0].Err)
	}
	for i, r := range receipts[1:] {
		if !reflect.DeepEqual(r, receipts[0]) {
			t.Errorf("execution %d: receipt %+v, execution 0: %+v", i+1, r, receipts[0])
		}
	}
	if !bytes.Equal(tx.Args, args) {
		t.Error("executing the list changed its arguments")
	}
}
