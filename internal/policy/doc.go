// Package policy implements the usage-policy model of the usage-control
// architecture: an ODRL-inspired language with purpose constraints,
// temporal (retention/expiry) obligations, usage-count limits, sharing
// prohibitions and notification duties, together with an evaluation engine.
// The copy-holder's trusted application (internal/tee) acts on a policy
// update itself, from the new policy's DeleteDeadline and PermitsPurpose.
//
// The paper's two running examples are expressible directly:
//
//   - Bob's medical dataset "to be used only for medical purposes" is a
//     policy with AllowedPurposes = {medical-research} (later modified to
//     {academic}).
//   - Alice's internet-browsing dataset "must be deleted one month after
//     storage" is a policy with MaxRetention = 30 days (later shortened to
//     7 days).
//
// # Concurrency contract
//
// The package holds no locks and spawns no goroutines. Policy values are
// plain data: Evaluate and the codec are pure functions of their inputs,
// so concurrent evaluation of the same *Policy is safe as long as no
// caller mutates it concurrently. Components that share a policy
// across goroutines (the TEE trusted application, the DE App contract)
// are responsible for copying or externally synchronizing mutation —
// which is how the chain layer uses it: policies that cross the
// on-chain/off-chain boundary are serialized through the codec, never
// shared by pointer.
package policy
