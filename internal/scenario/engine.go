package scenario

import (
	"fmt"
	"strings"
)

// Failure kinds.
const (
	// FailInvariant: a system-wide invariant predicate returned false.
	FailInvariant = "invariant"
	// FailExpectation: a step's observed outcome contradicted the model
	// (e.g. an ungranted consumer obtained a resource).
	FailExpectation = "expectation"
	// FailError: the engine itself could not run (boot failure).
	FailError = "error"
)

// Failure describes why a run stopped.
type Failure struct {
	// Step is the index (into the executed plan) of the violating step.
	Step int
	// Kind is one of the Fail* constants.
	Kind string
	// Name is the violated invariant's name, or the step op for
	// expectation failures.
	Name string
	// Detail is a human-readable explanation. It may embed run-specific
	// data (addresses, URLs) and is excluded from reproducibility
	// comparisons.
	Detail string
}

func (f *Failure) String() string {
	return fmt.Sprintf("%s %q at step %d: %s", f.Kind, f.Name, f.Step, f.Detail)
}

// sameFailure reports whether two failures are the same violation class
// (shrinking preserves the violation, not its incidental detail).
func sameFailure(a, b *Failure) bool {
	return a != nil && b != nil && a.Kind == b.Kind && a.Name == b.Name
}

// StepResult pairs an executed step with its normalized outcome.
type StepResult struct {
	Step    Step
	Outcome string
}

// RunResult is one engine run: the plan, per-step outcomes up to the
// stopping point, and the failure (nil for a clean run).
type RunResult struct {
	Seed    int64
	Plan    []Step
	Results []StepResult
	Failure *Failure
	// InvariantChecks counts invariant-suite evaluations performed.
	InvariantChecks int
	// ShrinkRuns counts the replays spent shrinking (0 when the run was
	// clean or shrinking was not requested).
	ShrinkRuns int
	// MetricsDump is a Prometheus-exposition snapshot of the failing
	// world's instruments, captured at the failure instant (empty for
	// clean runs and boot errors). Like Failure.Detail it embeds
	// run-specific values — latencies, counts — and is excluded from
	// reproducibility comparisons; WriteRepro persists it as a sibling
	// <name>.metrics.txt artifact.
	MetricsDump string
}

// Trace renders the run as a reproducible text trace: same seed, same
// bytes. Failure detail is appended after the step log and is the only
// part allowed to vary between runs.
func (r *RunResult) Trace() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario seed=%d steps=%d\n", r.Seed, len(r.Plan))
	for i, sr := range r.Results {
		fmt.Fprintf(&b, "%4d %s -> %s\n", i, sr.Step, sr.Outcome)
	}
	if r.Failure != nil {
		fmt.Fprintf(&b, "FAIL %s\n", r.Failure)
	} else {
		fmt.Fprintf(&b, "PASS invariant-checks=%d\n", r.InvariantChecks)
	}
	return b.String()
}

// ReproCommand returns the command line that replays this run.
func (r *RunResult) ReproCommand() string {
	return fmt.Sprintf("go test ./internal/scenario/ -run TestScenarioSeedMatrix -scenario.seed %d -scenario.steps %d",
		r.Seed, len(r.Plan))
}

// Config parameterizes an Engine.
type Config struct {
	// Seed drives plan generation and nothing else; equal seeds give
	// bit-for-bit equal traces.
	Seed int64
	// Steps is the plan length (default 40).
	Steps int
	// Validators is the PoA cluster size (default 3; min 2 so node
	// faults have a target while validator 0 hosts the oracles).
	Validators int
	// CheckEvery runs the invariant suite every n steps (default 1:
	// after every step). The suite always runs once more at quiescence.
	CheckEvery int
	// MaxOwners / MaxConsumers / MaxResources bound the populations.
	MaxOwners, MaxConsumers, MaxResources int
	// Sabotage admits the OpSabotage step into generated plans (test
	// hook: a sabotaging plan must fail published-immutability).
	Sabotage bool
	// MaxShrinkRuns bounds the replays RunShrunk spends minimizing a
	// failing plan (default 120).
	MaxShrinkRuns int
	// DisableEquivocationGuard boots the deployment with equivocation
	// rejection sabotaged on every validator (test hook: the soak must
	// catch the resulting silent double-seal acceptance through the
	// no-equivocation-accepted invariant, in a shrunk trace).
	DisableEquivocationGuard bool
	// Invariants overrides the invariant suite (default
	// DefaultInvariants).
	Invariants []Invariant
}

func (c Config) withDefaults() Config {
	if c.Steps <= 0 {
		c.Steps = 40
	}
	if c.Validators < 2 {
		c.Validators = 3
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 1
	}
	if c.MaxOwners <= 0 {
		c.MaxOwners = 6
	}
	if c.MaxConsumers <= 0 {
		c.MaxConsumers = 10
	}
	if c.MaxResources <= 0 {
		c.MaxResources = 16
	}
	if c.MaxShrinkRuns <= 0 {
		c.MaxShrinkRuns = 120
	}
	if c.Invariants == nil {
		c.Invariants = DefaultInvariants()
	}
	return c
}

// Engine runs seeded end-to-end scenarios.
type Engine struct {
	cfg Config
}

// New builds an engine.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults()}
}

// Run generates the seed's plan and executes it.
func (e *Engine) Run() *RunResult {
	return e.RunPlan(GeneratePlan(e.cfg.Seed, e.cfg.Steps, e.cfg.Sabotage))
}

// RunPlan executes an explicit plan on a fresh deployment, stopping at
// the first failure. The invariant suite runs every CheckEvery steps and
// once at quiescence.
func (e *Engine) RunPlan(plan []Step) *RunResult {
	res := &RunResult{Seed: e.cfg.Seed, Plan: plan}
	w, err := newWorld(e.cfg)
	if err != nil {
		res.Failure = &Failure{Kind: FailError, Name: "boot", Detail: err.Error()}
		return res
	}
	defer w.close()

	check := func(step int) *Failure {
		w.quiesceChain()
		res.InvariantChecks++
		for _, inv := range e.cfg.Invariants {
			if err := inv.Check(w); err != nil {
				// Attach a cross-layer state snapshot: violation reports
				// should carry the system context they were judged in.
				snap := w.d.TakeSnapshot()
				return &Failure{Step: step, Kind: FailInvariant, Name: inv.Name,
					Detail: fmt.Sprintf("%v [height=%d stateKeys=%d gas=%d pending=%d revenue=%d oracleIn=%d oracleOut=%d]",
						err, snap.Height, snap.StateKeys, snap.TotalGas, snap.PendingTxs,
						snap.MarketRevenue, snap.OracleIn, snap.OracleOut)}
			}
		}
		return nil
	}

	for i, st := range plan {
		outcome, fail := w.apply(i, st)
		res.Results = append(res.Results, StepResult{Step: st, Outcome: outcome})
		if fail != nil {
			fail.Step = i
			res.Failure = fail
			res.MetricsDump = w.metricsDump()
			return res
		}
		// Flush any timers the step armed at an already-passed deadline,
		// then settle the model before checking.
		w.d.Clock.Advance(0)
		w.expireCopies()
		if (i+1)%e.cfg.CheckEvery == 0 {
			if f := check(i); f != nil {
				res.Failure = f
				res.MetricsDump = w.metricsDump()
				return res
			}
		}
	}
	if f := check(len(plan) - 1); f != nil {
		res.Failure = f
		res.MetricsDump = w.metricsDump()
	}
	return res
}

// RunShrunk runs the seed's plan and, on failure, shrinks the failing
// plan to a minimal reproducing trace (ddmin-style chunk removal,
// bounded by MaxShrinkRuns replays). The returned result is the smallest
// failing run found; its ShrinkRuns field records the replay budget
// spent.
func (e *Engine) RunShrunk() *RunResult {
	return e.shrinkResult(e.Run())
}

// shrinkResult minimizes the failing plan of an already-executed run
// (no-op for clean runs and boot errors).
func (e *Engine) shrinkResult(first *RunResult) *RunResult {
	if first.Failure == nil || first.Failure.Kind == FailError {
		return first
	}
	target := first.Failure
	runs := 0

	tryPlan := func(cand []Step) *RunResult {
		runs++
		return e.RunPlan(cand)
	}

	// Everything after the violating step is irrelevant.
	cur := append([]Step(nil), first.Plan[:target.Step+1]...)
	best := tryPlan(cur)
	if !sameFailure(best.Failure, target) {
		// Should not happen for a deterministic violation; report the
		// original run rather than a misleading "shrunk" one.
		first.ShrinkRuns = runs
		return first
	}

	partners := pairPartners(cur)
	for chunk := len(cur) / 2; chunk >= 1; {
		removedAny := false
		for start := 0; start+chunk <= len(cur) && runs < e.cfg.MaxShrinkRuns; {
			cand := removeChunk(cur, partners, start, chunk)
			r := tryPlan(cand)
			if sameFailure(r.Failure, target) {
				cur = cand
				partners = pairPartners(cur)
				best = r
				removedAny = true
				// keep start: the next chunk slid into place
			} else {
				start += chunk
			}
		}
		if runs >= e.cfg.MaxShrinkRuns {
			break
		}
		if chunk == 1 && !removedAny {
			break
		}
		if chunk > 1 {
			chunk /= 2
		}
	}
	best.ShrinkRuns = runs
	return best
}

// pairPartners maps each step index to the index of its paired
// counterpart, or -1 when unpaired: a step whose row names the op it
// closes (heal closes partition, recover-node closes fail-node) pairs
// with the nearest open step of that op before it.
// Pairing is at the op level — selectors resolve modulo the live
// population at execution time, so "which validator" is a property of
// the run, not the plan text; what shrinking must preserve is the
// structural balance (no heal without a split, no stranded partition or
// failure whose repair was deleted out from under it).
func pairPartners(plan []Step) []int {
	partners := make([]int, len(plan))
	open := make(map[Op][]int)
	for i, st := range plan {
		partners[i] = -1
		closes := st.Op.spec().closes
		if closes == 0 {
			open[st.Op] = append(open[st.Op], i)
			continue
		}
		if n := len(open[closes]); n > 0 {
			j := open[closes][n-1]
			open[closes] = open[closes][:n-1]
			partners[i], partners[j] = j, i
		}
	}
	return partners
}

// removeChunk builds the shrink candidate that drops plan[start:start+chunk]
// along with the out-of-range pair partner of every dropped step, so
// paired ops leave or stay together and shrunk traces remain well-formed.
func removeChunk(plan []Step, partners []int, start, chunk int) []Step {
	drop := make([]bool, len(plan))
	for i := start; i < start+chunk && i < len(plan); i++ {
		drop[i] = true
		if p := partners[i]; p >= 0 {
			drop[p] = true
		}
	}
	out := make([]Step, 0, len(plan))
	for i, st := range plan {
		if !drop[i] {
			out = append(out, st)
		}
	}
	return out
}
