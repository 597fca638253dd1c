package scenario

import (
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

// TestScenarioAdversarialThroughput guards the cost of the three
// adversarial invariants: running the full thirteen-invariant suite must
// keep the steps/s of a mixed plan within 25% of the ten-invariant
// honest suite (duration at most 4/3 of the honest run). Both suites
// replay the identical plan; best-of-3 absorbs scheduler noise.
func TestScenarioAdversarialThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	const seed, steps = 7, 40
	honest := DefaultInvariants()[:10]
	full := DefaultInvariants()

	timeSuite := func(inv []Invariant) time.Duration {
		best := time.Duration(1<<62 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			res := New(Config{Seed: seed, Steps: steps, Invariants: inv}).Run()
			elapsed := time.Since(start)
			if res.Failure != nil {
				t.Fatalf("run with %d invariants failed: %s\ntrace:\n%s", len(inv), res.Failure, res.Trace())
			}
			if elapsed < best {
				best = elapsed
			}
		}
		return best
	}

	honestBest := timeSuite(honest)
	fullBest := timeSuite(full)
	limit := honestBest + honestBest/3
	t.Logf("honest suite: %v, full suite: %v (limit %v)", honestBest, fullBest, limit)
	if fullBest > limit {
		t.Fatalf("adversarial invariants cost too much: full suite %v vs honest %v (steps/s dropped below 75%%)",
			fullBest, honestBest)
	}
}
