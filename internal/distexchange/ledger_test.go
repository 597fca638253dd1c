package distexchange

import (
	"context"
	"encoding/hex"
	"slices"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/policy"
)

// holder is one attested consumer device of a ledger test.
type holder struct {
	key    *cryptoutil.KeyPair
	client *Client
}

// addHolder registers a fresh device and has it hold a copy of iri.
func (f *fixture) addHolder(iri string) holder {
	f.t.Helper()
	ctx := context.Background()
	key := cryptoutil.MustGenerateKey()
	h := holder{key: key, client: NewClient(sealingBackend{node: f.node}, key, f.deAddr)}
	var m cryptoutil.Hash
	copy(m[:], []byte("trusted-app-measurement-00000000"))
	cert, err := f.ca.Issue(key, map[string]string{"measurement": hex.EncodeToString(m[:])},
		t0, t0.Add(365*24*time.Hour))
	if err != nil {
		f.t.Fatal(err)
	}
	raw := cert.Encode()
	if _, err := h.client.RegisterDevice(ctx, raw); err != nil {
		f.t.Fatal(err)
	}
	if _, err := f.alice.RecordGrant(ctx, RecordGrantArgs{
		ResourceIRI: iri, Consumer: key.Address(), Device: key.Address(), Purpose: policy.PurposeWebAnalytics,
	}); err != nil {
		f.t.Fatal(err)
	}
	if _, err := h.client.ConfirmRetrieval(ctx, iri); err != nil {
		f.t.Fatal(err)
	}
	return h
}

// submit has the holder answer a round (0: unsolicited) with compliant
// evidence.
func (h holder) submit(f *fixture, iri string, round uint64) {
	f.t.Helper()
	now := f.clk.Now()
	ev := Evidence{
		ResourceIRI: iri, Device: h.key.Address(), Round: round, PolicyVersion: 1,
		StillStored: true, RetrievedAt: now, GeneratedAt: now,
	}
	sig, err := h.key.Sign(ev.SigningBytes())
	if err != nil {
		f.t.Fatal(err)
	}
	if _, err := h.client.SubmitEvidence(context.Background(), SignedEvidence{Evidence: ev, Signature: sig}); err != nil {
		f.t.Fatal(err)
	}
}

// sortedAddrs returns the holders' addresses, picked by index, in address
// order (the order the contract lists targets in).
func sortedAddrs(holders []holder, idx ...int) []cryptoutil.Address {
	out := make([]cryptoutil.Address, 0, len(idx))
	for _, i := range idx {
		out = append(out, holders[i].key.Address())
	}
	slices.SortFunc(out, func(a, b cryptoutil.Address) int { return slices.Compare(a[:], b[:]) })
	return out
}

// TestRoundLedger drives the round-indexed ledger through the cases a
// monitoring round can meet. Every row requests its rounds up front (so
// they are open side by side), lets outsiders join afterwards, plays the
// submissions, lets the owner close rounds, and plays late submissions.
func TestRoundLedger(t *testing.T) {
	type sub struct {
		holder int
		round  uint64
	}
	type want struct {
		closed       bool
		responded    []int // holder indexes
		evidence     int   // records under the round
		unresponsive []int // holder indexes flagged by the round
	}
	rows := []struct {
		name      string
		holders   int // hold a copy before the rounds start: the targets
		outsiders int // hold a copy only after the rounds started
		rounds    int
		submit    []sub
		report    []uint64
		late      []sub
		want      map[uint64]want
	}{{
		name: "two interleaved rounds and unsolicited evidence", holders: 2, rounds: 2,
		submit: []sub{{0, 1}, {0, 2}, {1, 0}, {1, 2}, {1, 1}},
		want: map[uint64]want{
			0: {evidence: 1},
			1: {closed: true, responded: []int{0, 1}, evidence: 2},
			2: {closed: true, responded: []int{0, 1}, evidence: 2},
		},
	}, {
		name: "a duplicate submission counts once", holders: 2, rounds: 1,
		submit: []sub{{0, 1}, {0, 1}},
		want:   map[uint64]want{1: {responded: []int{0}, evidence: 2}},
	}, {
		name: "late evidence is recorded and does not reopen the round", holders: 2, rounds: 1,
		submit: []sub{{0, 1}}, report: []uint64{1}, late: []sub{{1, 1}},
		want: map[uint64]want{1: {closed: true, responded: []int{0}, evidence: 2, unresponsive: []int{1}}},
	}, {
		name: "evidence from a non-target neither advances nor closes the round", holders: 2, outsiders: 1, rounds: 1,
		submit: []sub{{2, 1}, {0, 1}},
		want:   map[uint64]want{1: {responded: []int{0}, evidence: 2}},
	}, {
		name: "closing flags exactly the silent targets", holders: 4, outsiders: 1, rounds: 1,
		submit: []sub{{1, 1}, {4, 1}, {3, 1}}, report: []uint64{1},
		want: map[uint64]want{1: {closed: true, responded: []int{1, 3}, evidence: 3, unresponsive: []int{0, 2}}},
	}}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			f := newFixture(t)
			ctx := context.Background()
			iri := f.registerAlicePodAndResource(alicePolicy())
			var holders []holder
			for range row.holders {
				holders = append(holders, f.addHolder(iri))
			}
			targets := make([]int, row.holders)
			for i := range targets {
				targets[i] = i
			}
			for n := 1; n <= row.rounds; n++ {
				round, err := f.alice.RequestMonitoring(ctx, iri)
				if err != nil {
					t.Fatal(err)
				}
				if round.Round != uint64(n) || !slices.Equal(round.Targets, sortedAddrs(holders, targets...)) {
					t.Fatalf("round %d = %+v", n, round)
				}
			}
			for range row.outsiders {
				holders = append(holders, f.addHolder(iri))
			}
			for _, s := range row.submit {
				holders[s.holder].submit(f, iri, s.round)
			}
			for _, n := range row.report {
				if _, err := f.alice.ReportUnresponsive(ctx, iri, n); err != nil {
					t.Fatal(err)
				}
			}
			for _, s := range row.late {
				holders[s.holder].submit(f, iri, s.round)
			}

			total, totalViolations := 0, 0
			for n, w := range row.want {
				if n > 0 {
					state, err := f.alice.GetMonitoringRound(iri, n)
					if err != nil {
						t.Fatal(err)
					}
					if state.Closed != w.closed || !slices.Equal(state.Responded, sortedAddrs(holders, w.responded...)) {
						t.Errorf("round %d: closed=%v responded=%v, want closed=%v responded=%v",
							n, state.Closed, state.Responded, w.closed, sortedAddrs(holders, w.responded...))
					}
					if !slices.Equal(state.Targets, sortedAddrs(holders, targets...)) {
						t.Errorf("round %d: targets changed: %v", n, state.Targets)
					}
				}
				evidence, err := f.alice.GetRoundEvidence(iri, n)
				if err != nil {
					t.Fatal(err)
				}
				if len(evidence) != w.evidence {
					t.Errorf("round %d: %d evidence records, want %d", n, len(evidence), w.evidence)
				}
				for i, rec := range evidence {
					if rec.Round != n || (i > 0 && rec.Seq <= evidence[i-1].Seq) {
						t.Errorf("round %d: record %d has round %d seq %d", n, i, rec.Round, rec.Seq)
					}
				}
				total += len(evidence)

				violations, err := f.alice.GetRoundViolations(iri, n)
				if err != nil {
					t.Fatal(err)
				}
				var flagged []cryptoutil.Address
				for _, v := range violations {
					if v.Round != n || v.Kind != ViolationUnresponsive {
						t.Errorf("round %d: unexpected violation %+v", n, v)
					}
					flagged = append(flagged, v.Device)
				}
				if !slices.Equal(flagged, sortedAddrs(holders, w.unresponsive...)) {
					t.Errorf("round %d: flagged %v, want %v", n, flagged, sortedAddrs(holders, w.unresponsive...))
				}
				totalViolations += len(violations)
			}

			// The unscoped listings hold every record once, in Seq order.
			all, err := f.alice.GetEvidence(iri)
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != total || len(all) != len(row.submit)+len(row.late) {
				t.Errorf("unscoped evidence: %d records, rounds hold %d, submitted %d",
					len(all), total, len(row.submit)+len(row.late))
			}
			for i, rec := range all {
				if rec.Seq != uint64(i+1) {
					t.Errorf("unscoped evidence: record %d has seq %d", i, rec.Seq)
				}
			}
			allViolations, err := f.alice.GetViolations(iri)
			if err != nil {
				t.Fatal(err)
			}
			if len(allViolations) != totalViolations {
				t.Errorf("unscoped violations: %d, rounds hold %d", len(allViolations), totalViolations)
			}
			for i, v := range allViolations {
				if v.Seq != uint64(i+1) {
					t.Errorf("unscoped violations: record %d has seq %d", i, v.Seq)
				}
			}
		})
	}
}

// TestUnscopedViolationsInSeqOrderAcrossRounds pins the one case where key
// order and Seq order differ: a later round's violation recorded before an
// earlier round's.
func TestUnscopedViolationsInSeqOrderAcrossRounds(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	iri := f.registerAlicePodAndResource(alicePolicy())
	f.addHolder(iri)
	for range 2 {
		if _, err := f.alice.RequestMonitoring(ctx, iri); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []uint64{2, 1} {
		if _, err := f.alice.ReportUnresponsive(ctx, iri, n); err != nil {
			t.Fatal(err)
		}
	}
	violations, err := f.alice.GetViolations(iri)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 2 || violations[0].Seq != 1 || violations[0].Round != 2 ||
		violations[1].Seq != 2 || violations[1].Round != 1 {
		t.Fatalf("violations = %+v", violations)
	}
}

// TestRoundScopedReadIsHistoryIndependent checks that what a round-scoped
// read returns does not grow with the rounds before it: round 40's reply
// has round 1's record count and its size (timestamps are fixed-width, and
// no round or sequence number here outgrows one varint byte).
func TestRoundScopedReadIsHistoryIndependent(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	iri := f.registerAlicePodAndResource(alicePolicy())
	holders := []holder{f.addHolder(iri), f.addHolder(iri)}
	const rounds = 40
	for n := uint64(1); n <= rounds; n++ {
		if _, err := f.alice.RequestMonitoring(ctx, iri); err != nil {
			t.Fatal(err)
		}
		for _, h := range holders {
			h.submit(f, iri, n)
		}
	}
	reply := func(n uint64) []byte {
		raw, err := f.node.Query(f.deAddr, "getEvidence", GetEvidenceArgs{ResourceIRI: iri, Round: &n}.AppendArgs(nil))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	first, last := reply(1), reply(rounds)
	firstRecs, err := DecodeEvidenceRecords(first)
	if err != nil {
		t.Fatal(err)
	}
	lastRecs, err := DecodeEvidenceRecords(last)
	if err != nil {
		t.Fatal(err)
	}
	if len(firstRecs) != len(holders) || len(lastRecs) != len(holders) {
		t.Fatalf("round 1 holds %d records, round %d holds %d, want %d each", len(firstRecs), rounds, len(lastRecs), len(holders))
	}
	if len(last) != len(first) {
		t.Fatalf("round %d's reply is %d bytes, round 1's %d", rounds, len(last), len(first))
	}
	all, err := f.alice.GetEvidence(iri)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != rounds*len(holders) {
		t.Fatalf("unscoped listing holds %d records, want %d", len(all), rounds*len(holders))
	}
}
