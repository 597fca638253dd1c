package scenario

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestScenarioAdversarialMinimal is the hand-written regression matrix
// for the adversarial op repertoire: one minimal plan per op, each
// asserting the exact outcome label the system must produce — an
// equivocating proposer is rejected with evidence, each invalid-block
// dimension draws its own distinct rejection, a partition heals into
// convergence, a credential replay dies at the pod door, and a nonce
// flood starves nobody. The committed files under repros/ mirror these
// plans for out-of-process replay.
func TestScenarioAdversarialMinimal(t *testing.T) {
	cases := []struct {
		name       string
		validators int
		plan       []Step
		// outcomes[i] is the required prefix of step i's outcome label.
		outcomes []string
	}{
		{
			name: "equivocation-rejected",
			plan: []Step{{Op: OpEquivocate}}, // B=0: gossip the sibling to every live validator
			outcomes: []string{
				"equivocation-rejected h=1 targets=3",
			},
		},
		{
			name: "equivocation-subset",
			plan: []Step{{Op: OpEquivocate, B: 2}}, // bitmask 010: one peer subset
			outcomes: []string{
				"equivocation-rejected h=1 targets=1",
			},
		},
		{
			name: "invalid-block-each-dimension",
			plan: []Step{
				{Op: OpInvalidBlock, Arg: 0},
				{Op: OpInvalidBlock, Arg: 1},
				{Op: OpInvalidBlock, Arg: 2},
			},
			outcomes: []string{
				"invalid-state-root-rejected",
				"invalid-signature-rejected",
				"invalid-gas-rejected",
			},
		},
		{
			name:       "partition-heal-converges",
			validators: 5,
			plan: []Step{
				{Op: OpPartition, Arg: 1}, // minority of 2 out of 5
				{Op: OpSealEmpty},         // quorum cell seals while split
				{Op: OpSealEmpty},
				{Op: OpHeal},
				{Op: OpSealEmpty}, // whole cluster seals after the heal
			},
			outcomes: []string{
				"partitioned minority=2",
				"ok",
				"ok",
				"healed synced=",
				"ok",
			},
		},
		{
			name: "credential-replay-rejected",
			plan: []Step{
				{Op: OpAddOwner},
				{Op: OpAddConsumer},
				{Op: OpAddConsumer}, // the thief for the stolen-cert leg
				{Op: OpPublish, Arg: 3},
				{Op: OpPublish}, // the other resource for the cross-IRI leg
				{Op: OpGrant},
				{Op: OpCredentialReplay},
			},
			outcomes: []string{
				"ok", "ok", "ok", "ok ret=3d", "ok ret=0d", "ok",
				"cred-replay-rejected",
			},
		},
		{
			name: "nonce-flood-contained",
			plan: []Step{
				{Op: OpAddOwner},
				{Op: OpNonceFlood},
			},
			outcomes: []string{
				"ok",
				"nonce-flood-contained n=24",
			},
		},
		{
			name: "tx-flood-contained",
			plan: []Step{{Op: OpTxFlood}},
			outcomes: []string{
				// 8 senders x 80 cheap txs against a 64-slot pool with a
				// 16-tx sender quota: exactly the capacity is admitted, the
				// rest is shed, and the priced probe commits in one block.
				"tx-flood-contained admitted=64 rejected=576 blocks=1",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := New(Config{Seed: 1, Validators: tc.validators}).RunPlan(tc.plan)
			if res.Failure != nil {
				t.Fatalf("plan failed: %s\ntrace:\n%s", res.Failure, res.Trace())
			}
			if len(res.Results) != len(tc.outcomes) {
				t.Fatalf("got %d step results, want %d:\n%s", len(res.Results), len(tc.outcomes), res.Trace())
			}
			for i, want := range tc.outcomes {
				if got := res.Results[i].Outcome; !strings.HasPrefix(got, want) {
					t.Fatalf("step %d (%s): outcome %q, want prefix %q", i, res.Plan[i].Op, got, want)
				}
			}
		})
	}
}

// TestScenarioAdversarialGenerated: generated plans reach every new
// adversarial op organically within a handful of seeds, and such runs
// hold all thirteen invariants.
func TestScenarioAdversarialGenerated(t *testing.T) {
	steps := 120
	if testing.Short() {
		steps = 60
	}
	wanted := map[string]bool{
		"equivocation-rejected": false,
		"invalid-":              false,
		"partitioned minority=": false,
		"healed synced=":        false,
		"cred-replay-rejected":  false,
		"nonce-flood-contained": false,
		"tx-flood-contained":    false,
	}
	for seed := int64(1); seed <= 8; seed++ {
		res := New(Config{Seed: seed, Steps: steps}).Run()
		if res.Failure != nil {
			t.Fatalf("seed %d failed: %s\ntrace:\n%s", seed, res.Failure, res.Trace())
		}
		trace := res.Trace()
		done := true
		for marker := range wanted {
			if strings.Contains(trace, marker) {
				wanted[marker] = true
			}
			done = done && wanted[marker]
		}
		if done {
			return
		}
	}
	for marker, hit := range wanted {
		if !hit {
			t.Errorf("no generated plan in 8 seeds produced a %q outcome", marker)
		}
	}
}

// TestScenarioAdversarialThroughput guards the cost of the four
// adversarial invariants: in a run of the full fourteen-invariant suite,
// their Check calls may take at most a third of the rest of the run, so the
// suite keeps the steps/s of a mixed plan within 25% of what the same run
// reaches without them (duration at most 4/3). Both sides are measured
// within one run, so whatever else the host runs meanwhile falls on both;
// of three runs, the one where the adversarial checks' share is smallest
// counts.
func TestScenarioAdversarialThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	const seed, steps, honest = 7, 40, 10
	var adversarial time.Duration
	suite := DefaultInvariants()
	for i := honest; i < len(suite); i++ {
		check := suite[i].Check
		suite[i].Check = func(w *World) error {
			start := time.Now()
			defer func() { adversarial += time.Since(start) }()
			return check(w)
		}
	}
	best := math.Inf(1)
	for range 3 {
		adversarial = 0
		start := time.Now()
		res := New(Config{Seed: seed, Steps: steps, Invariants: suite}).Run()
		rest := time.Since(start) - adversarial
		if res.Failure != nil {
			t.Fatalf("run failed: %s\ntrace:\n%s", res.Failure, res.Trace())
		}
		t.Logf("adversarial checks: %v, rest of the run: %v", adversarial, rest)
		best = min(best, float64(adversarial)/float64(rest))
	}
	if best > 1.0/3 {
		t.Fatalf("adversarial invariants cost too much: their checks took %.0f%% of the rest of the run at best, limit 33%% (steps/s dropped below 75%%)",
			100*best)
	}
}
