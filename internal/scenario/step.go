package scenario

import (
	"fmt"
	"math/rand"
)

// Op is one kind of scenario step.
type Op uint8

// The step vocabulary. Workload ops exercise the paper's six processes;
// fault ops inject the failure modes the architecture claims to survive.
const (
	// OpAddOwner provisions a data owner (pod + manager + market account).
	OpAddOwner Op = iota
	// OpAddConsumer provisions a consumer (WebID + TEE device + market
	// subscription + on-chain device registration).
	OpAddConsumer
	// OpPublish uploads a resource and publishes it with a usage policy.
	OpPublish
	// OpGrant authorizes a consumer for a resource (ACL + on-chain grant).
	OpGrant
	// OpAccess runs the Fig. 2(4) access end to end (fee, fetch, TEE
	// store, retrieval confirmation). Ungranted consumers attempt too —
	// the engine demands they fail.
	OpAccess
	// OpUse performs a policy-checked use of a held copy inside the TEE.
	OpUse
	// OpModifyPolicy publishes a new policy version (changed retention)
	// and waits for push-out propagation to every copy holder.
	OpModifyPolicy
	// OpUnpublish withdraws a resource from the market mid-flight.
	OpUnpublish
	// OpMonitor runs a monitoring round and collects evidence/violations.
	OpMonitor
	// OpSettle distributes accumulated market revenue to owners.
	OpSettle
	// OpReplayRequest captures a signed HTTP request and replays it
	// verbatim; the replay must be rejected.
	OpReplayRequest
	// OpDropRequest injects a network fault that loses an HTTP response
	// mid-flight; the retry must succeed.
	OpDropRequest
	// OpDuplicateTx resubmits an already-committed transaction; it must
	// not execute twice.
	OpDuplicateTx
	// OpReorderTxs submits a same-sender batch out of nonce order; the
	// batch must be rejected atomically, then succeed in order.
	OpReorderTxs
	// OpFailNode marks a validator as failed (validator 0 stays live: the
	// oracles observe it, mirroring the E12 experiment shape).
	OpFailNode
	// OpRecoverNode recovers a failed validator and syncs its ledger.
	OpRecoverNode
	// OpClockSkip advances simulated time by hours-to-days, crossing
	// policy-retention windows so deletion obligations come due.
	OpClockSkip
	// OpSealEmpty drives one consensus round with an empty mempool.
	OpSealEmpty
	// OpCrashRestart hard-kills a validator (its in-memory node is
	// dropped, its store left unflushed), optionally tears its WAL
	// mid-record (odd Arg), and restarts it from disk. The restarted
	// node must rejoin and converge — the recovery-equivalence invariant
	// checks it after every subsequent step.
	OpCrashRestart
	// OpEquivocate makes the next block's proposer seal twice: the honest
	// block commits cluster-wide, then a validly signed sibling at the
	// same height is gossiped to a subset of peers (selected by B as a
	// bitmask). Every target must reject it with equivocation evidence —
	// the no-equivocation-accepted invariant holds them to it.
	OpEquivocate
	// OpInvalidBlock forges a block invalid in one dimension — bad state
	// root, bad proposer signature, or an over-gas transaction (Arg%3) —
	// and injects it into live validators via the byzantine delivery
	// hook. Each must reject with the dimension's distinct error.
	OpInvalidBlock
	// OpPartition splits the validators into a quorum cell (always
	// holding validator 0 and the pod hosts) and an isolated minority;
	// cross-cell traffic is buffered then dropped. Only the quorum seals.
	OpPartition
	// OpHeal reconnects a partitioned cluster and re-syncs the minority;
	// the partition-convergence invariant demands full head agreement
	// with no committed-block rollback.
	OpHeal
	// OpCredentialReplay plays a malicious pod client splicing captured
	// credentials: a verbatim replay of a signed+paid request (must 401),
	// a stolen market certificate presented by another consumer (must
	// 403), and a certificate presented for a different resource (403).
	OpCredentialReplay
	// OpNonceFlood burns many fresh nonces from a hostile agent; per-agent
	// eviction means other agents' replay protection must be unaffected
	// and the flooder itself is never starved.
	OpNonceFlood
	// OpTxFlood sprays cheap transactions at 10x the mempool capacity
	// from a squad of hostile senders: the pool must stay within its
	// bound (quota and price-floor rejections, never unbounded growth)
	// and an adequately-priced settlement submitted mid-flood must still
	// commit within the starvation-freedom invariant's block bound.
	OpTxFlood

	// numOps counts the fuzz-decodable ops; everything below is excluded
	// from DecodePlan so fuzzing can only find genuine violations.
	numOps

	// OpSabotage is a test-only fault that corrupts a published resource
	// in place, violating published-immutability on purpose. It is only
	// generated when Config.Sabotage is set and exists to prove the
	// engine detects and shrinks genuine invariant violations.
	OpSabotage
)

// opSpec is one row of the op table: everything the engine knows about
// one kind of step.
type opSpec struct {
	// name is the op's keyword in traces and .repro files.
	name string
	// weight is the op's share of GeneratePlan's draw.
	weight int
	// closes is the op whose nearest open step this one closes: shrinking
	// drops or keeps the two together. Zero closes nothing (Op 0,
	// add-owner, is never closed).
	closes Op
	// owner resolves the step's A selector to an owner before run, and
	// skips the step when there is none.
	owner bool
	// unsplit skips the step while a partition is active: node faults
	// and forged blocks layered over a split would make the heal's
	// convergence obligation ill-defined, and minority nodes lag by
	// construction.
	unsplit bool
	// run executes the step against the deployment and advances the
	// model; see World.apply.
	run func(w *World, r opRun) (string, *Failure)
}

// ops is the op table, indexed by Op. Rows past numOps are test-only:
// fuzz bytes and .repro files cannot name them, and GeneratePlan draws
// them only when asked to sabotage. The draw walks the rows in Op order,
// so reordering, reweighting or inserting a row changes every seed's
// plan (TestPlanVocabularyGolden pins it).
var ops = [...]opSpec{
	OpAddOwner:         {name: "add-owner", weight: 4, run: (*World).addOwner},
	OpAddConsumer:      {name: "add-consumer", weight: 6, run: (*World).addConsumer},
	OpPublish:          {name: "publish", weight: 9, owner: true, run: (*World).publish},
	OpGrant:            {name: "grant", weight: 12, run: (*World).grant},
	OpAccess:           {name: "access", weight: 14, run: (*World).access},
	OpUse:              {name: "use", weight: 14, run: (*World).use},
	OpModifyPolicy:     {name: "modify-policy", weight: 8, owner: true, run: (*World).modifyPolicy},
	OpUnpublish:        {name: "unpublish", weight: 2, owner: true, run: (*World).unpublish},
	OpMonitor:          {name: "monitor", weight: 5, owner: true, run: (*World).monitor},
	OpSettle:           {name: "settle", weight: 2, run: (*World).settle},
	OpReplayRequest:    {name: "replay-request", weight: 3, owner: true, run: (*World).replayRequest},
	OpDropRequest:      {name: "drop-request", weight: 2, owner: true, run: (*World).dropRequest},
	OpDuplicateTx:      {name: "duplicate-tx", weight: 3, run: (*World).duplicateTx},
	OpReorderTxs:       {name: "reorder-txs", weight: 2, run: (*World).reorderTxs},
	OpFailNode:         {name: "fail-node", weight: 2, unsplit: true, run: (*World).failNode},
	OpRecoverNode:      {name: "recover-node", weight: 3, closes: OpFailNode, unsplit: true, run: (*World).recoverNode},
	OpClockSkip:        {name: "clock-skip", weight: 5, run: (*World).clockSkip},
	OpSealEmpty:        {name: "seal-empty", weight: 2, run: (*World).sealEmpty},
	OpCrashRestart:     {name: "crash-restart", weight: 3, unsplit: true, run: (*World).crashRestart},
	OpEquivocate:       {name: "equivocate", weight: 3, unsplit: true, run: (*World).equivocate},
	OpInvalidBlock:     {name: "invalid-block", weight: 3, unsplit: true, run: (*World).invalidBlock},
	OpPartition:        {name: "partition", weight: 3, unsplit: true, run: (*World).partition},
	OpHeal:             {name: "heal", weight: 4, closes: OpPartition, run: (*World).heal},
	OpCredentialReplay: {name: "credential-replay", weight: 3, run: (*World).credentialReplay},
	OpNonceFlood:       {name: "nonce-flood", weight: 2, owner: true, run: (*World).nonceFlood},
	OpTxFlood:          {name: "tx-flood", weight: 2, run: (*World).txFlood},
	OpSabotage:         {name: "sabotage", weight: 4, run: (*World).sabotage},
}

// decodable is the part of the table that fuzz bytes and .repro files
// can name.
var decodable = ops[:numOps]

// spec returns the op's row; an Op outside the table gets the empty row.
func (o Op) spec() opSpec {
	if int(o) < len(ops) {
		return ops[o]
	}
	return opSpec{}
}

func (o Op) String() string {
	if name := o.spec().name; name != "" {
		return name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Step is one scenario action. Selectors are resolved modulo the live
// population at execution time, so any subsequence of a plan is itself a
// valid plan — the property step-level shrinking relies on.
type Step struct {
	// Op is the action kind.
	Op Op
	// A selects an owner, B a consumer, C a resource (each modulo the
	// respective population size when the step runs).
	A, B, C int
	// Arg is an op-specific magnitude (retention days, skip hours, ...).
	Arg int
}

func (s Step) String() string {
	return fmt.Sprintf("%-14s a=%d b=%d c=%d arg=%d", s.Op, s.A, s.B, s.C, s.Arg)
}

// GeneratePlan derives a step plan deterministically from the seed. The
// first four steps always provision an owner, a consumer, a resource,
// and a grant so that short plans still exercise the full stack. With
// sabotage enabled, OpSabotage joins the distribution and the last step
// is forced to OpSabotage if none was drawn — a sabotaging plan is
// guaranteed to violate published-immutability.
func GeneratePlan(seed int64, steps int, sabotage bool) []Step {
	rng := rand.New(rand.NewSource(seed))
	drawn := decodable
	if sabotage {
		drawn = ops[:]
	}
	total := 0
	for _, spec := range drawn {
		total += spec.weight
	}

	plan := make([]Step, 0, steps)
	sabotaged := false
	for i := range steps {
		var op Op
		switch i {
		case 0:
			op = OpAddOwner
		case 1:
			op = OpAddConsumer
		case 2:
			op = OpPublish
		case 3:
			op = OpGrant
		default:
			pick := rng.Intn(total)
			for o, spec := range drawn {
				if pick < spec.weight {
					op = Op(o)
					break
				}
				pick -= spec.weight
			}
		}
		if op == OpSabotage {
			sabotaged = true
		}
		plan = append(plan, Step{
			Op:  op,
			A:   rng.Intn(1 << 15),
			B:   rng.Intn(1 << 15),
			C:   rng.Intn(1 << 15),
			Arg: rng.Intn(1 << 15),
		})
	}
	if sabotage && !sabotaged && len(plan) > 0 {
		plan[len(plan)-1].Op = OpSabotage
	}
	return plan
}

// DecodePlan turns raw bytes (fuzz input) into a step plan: each
// 5-byte group becomes one step. OpSabotage is never decoded — fuzzing
// must only be able to find genuine violations.
func DecodePlan(data []byte, maxSteps int) []Step {
	var plan []Step
	for i := 0; i+5 <= len(data) && len(plan) < maxSteps; i += 5 {
		plan = append(plan, Step{
			Op:  Op(data[i] % uint8(len(decodable))),
			A:   int(data[i+1]),
			B:   int(data[i+2]),
			C:   int(data[i+3]),
			Arg: int(data[i+4]),
		})
	}
	return plan
}
