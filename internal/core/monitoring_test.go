package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
	"repro/internal/obs"
	"repro/internal/policy"
)

// holdersOf provisions n consumers, named after prefix, that each hold a
// copy of the owner's /data/r.bin.
func holdersOf(t *testing.T, d *Deployment, owner *Owner, iri, prefix string, n int) []*Consumer {
	t.Helper()
	ctx := context.Background()
	holders := make([]*Consumer, n)
	for i := range holders {
		c, err := d.NewConsumer(fmt.Sprintf("%s-%02d", prefix, i), policy.PurposeAny)
		if err != nil {
			t.Fatal(err)
		}
		if err := owner.Grant(ctx, c, "/data/r.bin", policy.PurposeAny); err != nil {
			t.Fatal(err)
		}
		if err := c.Access(ctx, iri); err != nil {
			t.Fatal(err)
		}
		holders[i] = c
	}
	return holders
}

// TestNonTargetEvidenceDoesNotCloseRound: evidence from a device that is
// not a target of the round used to count as a response. With targets A and
// B, evidence from latecomer C and from A made the round read closed with
// 2/2 responses, CollectMonitoring never reported anybody, and silent B
// got away with 0 violations.
func TestNonTargetEvidenceDoesNotCloseRound(t *testing.T) {
	d := newDeployment(t, Config{})
	ctx := context.Background()
	owner, iri := ownerWithResource(d, "owner", 512, nil)
	holders := holdersOf(t, d, owner, iri, "target", 2)
	a, b := holders[0], holders[1]
	// The test plays the oracle's part by hand.
	d.PullIn().UnregisterSource(a.Device.Address())
	d.PullIn().UnregisterSource(b.Device.Address())

	round, err := owner.Manager.StartMonitoring(ctx, "/data/r.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(round.Targets) != 2 {
		t.Fatalf("round targets %v, want A and B", round.Targets)
	}
	// C obtains its copy only now: it holds a valid grant but is no target.
	c := holdersOf(t, d, owner, iri, "latecomer", 1)[0]
	for _, dev := range []*Consumer{c, a} {
		signed, err := dev.App.Evidence(iri, round.Round)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dev.DE.SubmitEvidence(ctx, signed); err != nil {
			t.Fatal(err)
		}
	}

	state, err := owner.Manager.DE().GetMonitoringRound(iri, round.Round)
	if err != nil {
		t.Fatal(err)
	}
	if state.Closed || !slices.Equal(state.Responded, []cryptoutil.Address{a.Device.Address()}) {
		t.Fatalf("closed=%v responded=%v after evidence from a non-target and one of two targets",
			state.Closed, state.Responded)
	}
	evidence, violations, err := owner.Manager.CollectMonitoring(ctx, "/data/r.bin", round.Round)
	if err != nil {
		t.Fatal(err)
	}
	if len(evidence) != 2 {
		t.Errorf("%d evidence records, want C's and A's", len(evidence))
	}
	if len(violations) != 1 || violations[0].Kind != distexchange.ViolationUnresponsive ||
		violations[0].Device != b.Device.Address() {
		t.Fatalf("violations = %+v, want one unresponsive for B", violations)
	}
}

// failingSource is a device whose trusted application cannot be reached.
type failingSource struct{ addr cryptoutil.Address }

func (s failingSource) Address() cryptoutil.Address { return s.addr }
func (s failingSource) Evidence(string, uint64) (distexchange.SignedEvidence, error) {
	return distexchange.SignedEvidence{}, errors.New("device unreachable")
}

// forgingSource hands out evidence whose signature does not verify.
type forgingSource struct{ appSource }

func (s forgingSource) Evidence(iri string, round uint64) (distexchange.SignedEvidence, error) {
	signed, err := s.appSource.Evidence(iri, round)
	if err == nil {
		signed.Signature[len(signed.Signature)-1] ^= 1
	}
	return signed, err
}

// TestMonitoringBatchRelayIsolatesFailures: the pull-in oracle relays a
// round as one transaction; a source that fails and an evidence the contract
// refuses must cost exactly those two devices their answer. Also pins the
// round's instruments, on a cluster whose bare followers re-execute what
// the metered validator sealed.
func TestMonitoringBatchRelayIsolatesFailures(t *testing.T) {
	reg := obs.NewRegistry()
	d := newDeployment(t, Config{Validators: 3, OracleFanout: true, Obs: reg, MonitoringGrace: 50 * time.Millisecond})
	ctx := context.Background()
	owner, iri := ownerWithResource(d, "owner", 512, nil)
	holders := holdersOf(t, d, owner, iri, "holder", 16)
	unreachable, forger := holders[3], holders[11]
	d.PullIn().RegisterSource(failingSource{addr: unreachable.Device.Address()})
	d.PullIn().RegisterSource(forgingSource{appSource{app: forger.App}})

	out0 := d.Metrics.Out.Load()
	evidence, violations, err := owner.Monitor(ctx, "/data/r.bin")
	if err != nil {
		t.Fatal(err)
	}
	d.PullIn().Wait()
	if len(evidence) != 14 {
		t.Errorf("%d evidence records, want 14", len(evidence))
	}
	flagged := make([]cryptoutil.Address, 0, 2)
	for _, v := range violations {
		if v.Kind != distexchange.ViolationUnresponsive {
			t.Errorf("unexpected violation %+v", v)
		}
		flagged = append(flagged, v.Device)
	}
	want := []cryptoutil.Address{unreachable.Device.Address(), forger.Device.Address()}
	for _, s := range [][]cryptoutil.Address{flagged, want} {
		slices.SortFunc(s, func(x, y cryptoutil.Address) int { return slices.Compare(x[:], y[:]) })
	}
	if !slices.Equal(flagged, want) {
		t.Errorf("flagged %v, want the unreachable device and the forger %v", flagged, want)
	}

	if d.Metrics.Out.Load() == out0 {
		t.Error("the MonitoringRequested delivery to the pull-in oracle was not counted in Metrics.Out")
	}
	count := func(result string) uint64 {
		return reg.Counter("oracle_pullin_evidence_total", "", obs.L("result", result)).Value()
	}
	if s, e, r := count("submitted"), count("source_error"), count("reverted"); s != 14 || e != 1 || r != 1 {
		t.Errorf("oracle_pullin_evidence_total: submitted=%d source_error=%d reverted=%d, want 14/1/1", s, e, r)
	}
	for _, name := range []string{"oracle_pullin_round_ns", "podmanager_collect_monitoring_ns"} {
		if n := reg.Histogram(name, "").Count(); n != 1 {
			t.Errorf("%s recorded %d observations, want 1", name, n)
		}
	}
	head := d.Nodes[0].Head()
	for i, n := range d.Nodes[1:] {
		if h := n.Head(); h.Hash() != head.Hash() {
			t.Errorf("bare validator %d is at %s, the metered one at %s", i+1, h.Hash(), head.Hash())
		}
	}
}

// TestMonitoringUnderSenderQuota: a round's answer takes one of the relay's
// pending-transaction slots, so a sender quota below the round size is no
// obstacle to it.
func TestMonitoringUnderSenderQuota(t *testing.T) {
	d := newDeployment(t, Config{SenderQuota: 4, OracleFanout: true})
	ctx := context.Background()
	owner, iri := ownerWithResource(d, "owner", 512, nil)
	holdersOf(t, d, owner, iri, "holder", 16)
	evidence, violations, err := owner.Monitor(ctx, "/data/r.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(evidence) != 16 || len(violations) != 0 {
		t.Fatalf("%d evidence records and %d violations, want 16 and 0", len(evidence), len(violations))
	}
}

// TestCloseReturnsWithRoundAnswerUnsealed: the pull-in oracle used to submit
// a round's answer under context.Background and Close waited for the round,
// so a deployment whose sealing had stopped with an answer in the mempool
// never closed.
func TestCloseReturnsWithRoundAnswerUnsealed(t *testing.T) {
	d := must(NewDeployment(Config{}))
	ctx := context.Background()
	owner, iri := ownerWithResource(d, "owner", 512, nil)
	holdersOf(t, d, owner, iri, "holder", 1)
	// Set-up ran under SealOnSubmit; from here on nothing seals but the test.
	d.sealing = SealManually
	pending := func(n int) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for d.Nodes[0].PendingTxs() != n {
			if time.Now().After(deadline) {
				t.Fatalf("%d transactions pending, want %d", d.Nodes[0].PendingTxs(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	requested := make(chan error, 1)
	go func() {
		_, err := owner.Manager.StartMonitoring(ctx, "/data/r.bin")
		requested <- err
	}()
	pending(1)
	must(d.SealBlock())
	must0(<-requested)
	pending(1) // the oracle's answer, which no block will take

	closed := make(chan struct{})
	go func() {
		d.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close is still waiting for the unsealed answer's receipt")
	}
}
