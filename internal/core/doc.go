// Package core assembles the complete usage-control architecture of the
// paper (Fig. 1): a proof-of-authority blockchain cluster running the
// DistExchange application, Solid pods fronted by Pod Managers over HTTP,
// consumer devices with TEE-enforced trusted applications, the data
// market, and the four oracle patterns wiring the on-chain and off-chain
// worlds together.
//
// Deployment is the façade; Owner and Consumer expose the six Fig. 2
// processes as typed Go methods. Its validator cluster comes from
// NewCluster, the one constructor that boots the DE App's PoA network:
// the de-node binary runs the same function, so the cluster it serves
// over HTTP is the cluster the benchmark measures in-process. The paper's non-timing evaluation
// results (§V-2 attack verdicts, the §V-4 gas table, payout order,
// liveness with validators down) are pinned by paper_test.go; how fast
// the processes run is the repo benchmark's question (bench/).
//
// # Concurrency contract
//
// A Deployment is safe for concurrent use by many owners and consumers:
// its own mutex only guards the equivocation-guard setting, while all
// chain-state synchronization is delegated to the chain layer (see
// package chain's concurrency contract). Transactions enter the chain
// through one backend value shared by every distexchange client, the
// oracles included: it hands a client's transactions to
// chain.Network.Submit, resubmits the ones the cluster backpressured
// (the one retry loop), and in SealOnSubmit mode seals until what it
// admitted is committed. It holds no lock, so concurrent clients verify
// signatures concurrently.
// Deployment.SubmitBatch is the all-or-nothing form for pre-signed
// batches: verified once, enqueued on every validator under one mempool
// lock acquisition each, and sealed in as few blocks as the chain's
// per-block cap (1024 transactions) allows. The oracles observe node 0:
// push-out handlers run on validator 0's committing goroutine, so a
// commit that validator 0 applies has been handed to the trusted apps
// and pod managers when it returns; only a pull-in monitoring round is
// answered on a goroutine of its own. So WaitForRoundClosure is how a
// caller meets a round's answers, and WaitPolicyVersion is needed only
// when the caller did not drive the commit itself (SealManually) or
// validator 0 is down or partitioned away. Both are woken by what they
// wait for (the trusted app applying a version; the push-out oracle
// delivering the resource's evidence) and keep their timeout as the
// only timer.
package core
