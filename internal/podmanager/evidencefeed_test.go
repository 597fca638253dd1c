package podmanager

import (
	"context"
	"testing"
	"time"

	"repro/internal/distexchange"
	"repro/internal/oracle"
	"repro/internal/policy"
)

// TestEvidenceFeedReceivesComplianceEvents: the push-out oracle delivers
// evidence and violation events for the manager's resources into its
// compliance journal (the closing arrow of Fig. 2(6)).
func TestEvidenceFeedReceivesComplianceEvents(t *testing.T) {
	e := newEnv(t)
	iri := e.publish(browsingPolicy())
	e.registerDevice()
	ctx := context.Background()

	pushOut := oracle.NewPushOut(e.node, nil)
	defer pushOut.Close()
	cancel := e.mgr.StartEvidenceFeed(pushOut, e.deAddr)
	defer cancel()

	// Grant + retrieval + a monitoring round answered with device-signed
	// evidence that is overdue (retention violation): both an
	// EvidenceRecorded and a ViolationDetected event flow back.
	if err := e.mgr.GrantAccess(ctx, bobWebID, e.bobKey.Address(), e.devKey.Address(),
		"/web/browsing.csv", policy.PurposeWebAnalytics); err != nil {
		t.Fatal(err)
	}
	devClient := distexchange.NewClient(autoSeal{node: e.node}, e.devKey, e.deAddr)
	if _, err := devClient.ConfirmRetrieval(ctx, iri); err != nil {
		t.Fatal(err)
	}
	retrieved := e.clk.Now()
	e.clk.Advance(31 * 24 * time.Hour) // past the 30-day retention

	round, err := e.mgr.StartMonitoring(ctx, "/web/browsing.csv")
	if err != nil {
		t.Fatal(err)
	}
	ev := distexchange.Evidence{
		ResourceIRI: iri, Device: e.devKey.Address(), Round: round.Round,
		PolicyVersion: 1, StillStored: true,
		RetrievedAt: retrieved, GeneratedAt: e.clk.Now(),
	}
	sig, err := e.devKey.Sign(ev.SigningBytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := devClient.SubmitEvidence(ctx, distexchange.SignedEvidence{Evidence: ev, Signature: sig}); err != nil {
		t.Fatal(err)
	}

	// The journal receives both events asynchronously.
	deadline := time.Now().Add(3 * time.Second)
	for {
		journal := e.mgr.ComplianceJournal()
		topics := map[string]int{}
		for _, entry := range journal {
			if entry.Resource != iri {
				t.Fatalf("journal entry for foreign resource: %+v", entry)
			}
			topics[entry.Topic]++
		}
		if topics[distexchange.TopicEvidenceRecorded] == 1 && topics[distexchange.TopicViolationDetected] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal incomplete: %v", topics)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEvidenceFeedIgnoresForeignResources: events about other pods'
// resources do not pollute the journal.
func TestEvidenceFeedIgnoresForeignResources(t *testing.T) {
	e := newEnv(t)
	e.publish(browsingPolicy())
	pushOut := oracle.NewPushOut(e.node, nil)
	defer pushOut.Close()
	cancel := e.mgr.StartEvidenceFeed(pushOut, e.deAddr)
	defer cancel()

	// A second pod owner publishes and triggers violations on their own
	// resource.
	otherKey := e.bobKey
	other := distexchange.NewClient(autoSeal{node: e.node}, otherKey, e.deAddr)
	ctx := context.Background()
	if _, err := other.RegisterPod(ctx, distexchange.RegisterPodArgs{
		OwnerWebID: string(bobWebID), Location: "https://bob.example/",
	}); err != nil {
		t.Fatal(err)
	}
	pol := policy.New("https://bob.example/r", string(bobWebID), t0)
	if _, err := other.RegisterResource(ctx, distexchange.RegisterResourceArgs{
		ResourceIRI: "https://bob.example/r", PodWebID: string(bobWebID),
		Location: "https://bob.example/r", Policy: pol,
	}); err != nil {
		t.Fatal(err)
	}
	e.registerDevice()
	if _, err := other.RecordGrant(ctx, distexchange.RecordGrantArgs{
		ResourceIRI: "https://bob.example/r", Consumer: e.devKey.Address(),
		Device: e.devKey.Address(), Purpose: policy.PurposeAny,
	}); err != nil {
		t.Fatal(err)
	}
	devClient := distexchange.NewClient(autoSeal{node: e.node}, e.devKey, e.deAddr)
	if _, err := devClient.ConfirmRetrieval(ctx, "https://bob.example/r"); err != nil {
		t.Fatal(err)
	}
	round, err := other.RequestMonitoring(ctx, "https://bob.example/r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.ReportUnresponsive(ctx, "https://bob.example/r", round.Round); err != nil {
		t.Fatal(err)
	}

	time.Sleep(50 * time.Millisecond) // let any (wrong) delivery land
	if journal := e.mgr.ComplianceJournal(); len(journal) != 0 {
		t.Fatalf("journal polluted by foreign events: %+v", journal)
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
