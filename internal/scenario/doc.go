// Package scenario implements a deterministic, seeded, end-to-end
// scenario engine for the whole usage-control architecture.
//
// An Engine boots a full core.Deployment (PoA validator cluster + DE App
// + multi-pod Solid host + pod managers + TEEs + oracles + market) on
// simulated time and executes a randomized multi-agent workload derived
// entirely from one int64 seed: pod owners publishing resources and
// modifying policies, consumers buying access through the market and
// using copies inside their TEEs, monitoring rounds, settlements — all
// interleaved with injected faults (replayed and dropped HTTP requests,
// duplicated and reordered transaction submissions, validator failures
// and recoveries, hard validator crashes restarted from the durable
// store — optionally with the write-ahead log torn mid-record — clock
// skips across policy-retention windows, and the byzantine repertoire:
// equivocating proposers, invalid blocks, partitions and heals,
// credential replay, nonce floods and transaction floods). Every op is
// one row of the op table in step.go: its keyword, sampling weight,
// shrink pairing, preconditions and run function.
//
// After every step, and again at quiescence, the engine evaluates
// system-wide invariants as plain predicates over live state:
//
//   - funds-conservation: fees paid == payouts earned + market revenue
//   - nonce-monotonicity: on every live validator, per-sender nonces on
//     its ledger are gapless and match its committed nonces
//   - head-agreement: all live validators agree on the chain tip
//   - gas-ledger: the cost ledger equals the sum of receipt gas
//   - acl-isolation: an agent reads a resource iff some generation of
//     the ACL granted it (and grants, once given, stay effective)
//   - published-immutability: published bytes never change
//   - policy-consistency: chain, the pod's policy document (the Turtle
//     of the chain's policy, byte for byte), and TEE copies agree on
//     the current policy version
//   - retention-enforcement: copies are held iff their deadline allows
//   - honest-compliance: no violations are recorded against holders
//     that always met their obligations
//   - recovery-equivalence: every live validator's state reproduces its
//     committed head root, and a validator restarted from disk stands at
//     the live cluster's head with an identical state root
//   - state-integrity: every live validator's state root is the hash of
//     the bytes its state holds now, so no slice the ledger handed out
//     or took over was written after it was stored
//   - no-equivocation-accepted: no live validator commits a forged
//     double-seal sibling, and every targeted validator holds the
//     matching evidence
//   - partition-convergence: partitioned minority chains stay prefixes
//     of the quorum chain, and no head pinned at a heal ever rolls back
//   - starvation-freedom: an adequately-priced transaction submitted
//     during a transaction flood commits within a bounded number of
//     blocks, and no mempool outgrows its capacity
//
// Every run with the same seed is bit-for-bit reproducible: the step
// trace and all invariant results are identical across runs. On a
// violation the engine replays the seed with step-level shrinking
// (ddmin-style) and reports a minimal reproducing trace.
//
// The engine is wired two ways: table-driven go test scenarios
// (race-enabled smoke runs over a seed matrix) and a go test -fuzz
// target feeding the step decoder from fuzz input.
package scenario
