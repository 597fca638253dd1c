// Package chain implements the blockchain substrate of the usage-control
// architecture: ECDSA-signed transactions, a hash-indexed mempool,
// proof-of-authority block production, a committed key-value state that
// only blocks write, with deterministic state roots, receipts,
// topic-filterable event logs handed to subscribed handlers, and a gas
// schedule used by the affordability experiments.
//
// The package replaces the public blockchain the paper assumes. It keeps
// the same interface contract — submit a signed transaction, have it
// validated and ordered into a block by consensus among authorities,
// observe its receipt and emitted events — without requiring a live
// network. Contract execution is delegated to an Executor (implemented by
// package contract), mirroring how an EVM is a pluggable component of a
// node.
//
// # Concurrency contract
//
// A Node is safe for concurrent use. Internally it holds three locks with
// a fixed acquisition order (sealMu → mpMu → mu), and a Network adds one
// outside them, so the full order is
// Network.sealMu → Node.sealMu → mpMu → mu:
//
//   - Network.sealMu serializes Network.SealNext: one consensus round —
//     read the height, pick the proposer, seal, replicate — runs at a
//     time, so concurrent callers (every SealOnSubmit backend is one)
//     queue instead of racing for the same height. Within a round the
//     reachable followers run ApplyBlock concurrently, each under its own
//     Node.sealMu, sharing only the read-only block. Network.mu is a
//     separate leaf lock for membership, liveness, and partition state;
//     nothing is called while it is held.
//   - sealMu serializes block production and application (Seal,
//     SealOutOfTurn, ApplyBlock, SyncFrom). At most one block is built or
//     validated at a time; chain state only ever advances under sealMu.
//   - mpMu guards transaction admission: the hash-indexed mempool and the
//     per-sender nonce table. Submissions contend only on this lock — one
//     acquisition per node per Submit call, whatever the batch size — so
//     they are admitted concurrently with block execution rather than
//     serializing behind it. A transaction on a committed nonce is told
//     from a replay by the receipt index, read under mu with mpMu held.
//   - mu (an RWMutex) guards the ledger: the block list, the state
//     handle, and receipt waiters. Read paths — Height, Head,
//     BlockByNumber, Query, Receipt — take only the read lock and
//     therefore run in parallel with each other and with everything
//     except the brief commit section of sealing/application.
//
// Block execution itself never runs under mu: both sealing and
// validation execute against a copy-on-write Overlay of the committed
// state (O(touched keys), not O(ledger)), and encode and append the WAL
// record off-lock. Only once the WAL has the block does commitBlock
// settle it, in one section under mpMu and then the write lock: advance
// each sender's nonce and drop what the sender still queues below it
// (settleLocked, the one writer of the nonce table, which recovery also
// runs), fold the overlay's delta set into the state, append the block,
// charge its gas to the CostLedger (one atomic counter) and index its
// receipts — in that order, and before any receipt waiter is woken, so
// whoever can see a receipt can see its block, its gas and its sender's
// nonce. Block production only selects from the mempool (mempool.Take),
// so a seal whose WAL append fails leaves nonces, mempool and cost
// ledger as they were. Another authority's block must continue each
// sender's committed nonce, in order: ApplyBlock refuses a replayed
// transaction, a gap or a repeat (errNonceSequence) before it executes
// anything, so settleLocked only ever moves a nonce up by one per
// transaction. Receipt waiters are woken through
// capacity-1 buffered channels, so a slow WaitForReceipt consumer
// cannot stall a commit. State snapshots are serialized and
// written by a background goroutine fed a copy-on-write export, never
// under any node lock.
//
// With GOMAXPROCS above 1, a block of four or more transactions is
// executed by parallel.go's optimistic scheduler on as many workers,
// in three phases. Workers execute transactions in claim order, each
// against its own read-recording child of the block overlay, while
// finished children are walked in block order accumulating the keys
// written so far; the first child whose reads hit them fixes the
// conflict index, workers stop claiming, and executions in flight are
// dropped. When every worker has returned — the block overlay is not
// written before that, so a child's result depends on the base state
// and its transaction alone — the children ahead of the conflict index
// are merged in order, and the transactions from it on run serially on
// the result. The conflict index is the smallest index whose reads meet
// an earlier child's writes, found by a walk that visits indexes in
// order however they finish, so receipts, event order, roots and diffs
// are those of the serial path at every worker count and under every
// goroutine schedule; a block that conflicts from its second
// transaction on costs the serial path plus about one discarded
// execution per worker. The walk needs no lock: children are published
// with atomic stores and whichever worker finds the walk idle advances
// it (see frontier in parallel.go).
//
// What the locks do NOT guarantee: a Query observes the live committed
// State (read-only outside the package and internally synchronized, so
// reads are memory-safe), which means a query racing a commit may see a
// partially applied block's writes. Callers needing block-atomic reads should key off
// WaitForReceipt or event subscriptions. State and CostLedger carry their
// own synchronization and may be read without node locks.
//
// # Event delivery
//
// A committed event is handed to its handlers, not queued. SubscribeEvents
// registers a handler and a filter; once commitBlock has released mu and
// mpMu, and while it still holds sealMu, it calls every matching handler
// on each of the block's events, in commit order — handlers of one event
// in registration order — under the feed's lock, and returns only when
// they have. The feed reads the events off the block's receipts: nothing
// is copied or buffered, so nothing is dropped and delivery allocates
// nothing. sealMu keeps the order across blocks. The feed's lock joins
// the order as sealMu → feed.mu → handler locks, which fixes what a
// handler may do:
//
//   - it returns promptly: the commit, and every seal behind it, waits
//     for it;
//   - it never seals, applies a block, waits for a receipt, subscribes or
//     cancels — each needs a lock the commit holds, or a commit that
//     cannot come while this one is in progress;
//   - a lock it takes is never held by code that does any of those.
//
// Work that must wait hands itself to a goroutine of its own (the pull-in
// oracle answers a round that way). Cancelling takes the feed's lock, so
// once cancel returns the handler is not running and never runs again.
//
// # Submission
//
// There is one way into a mempool. Node.Submit and Network.Submit run the
// same stages — on the verifier pool, encode every transaction once and
// take both its hash and its signature check from that encoding; then
// admit — and answer with one TxVerdict per transaction. admit is the only caller of enqueueLocked: it takes
// signature-checked transactions and their hashes, holds mpMu once for
// the whole slice, skips what an earlier stage (or an earlier node)
// already refused, and lets a refusal take the sender's later
// transactions in the batch with it. Network.Submit verifies once for
// the cluster and runs admit on every reachable node; a transaction
// stands iff every reachable node took it or already holds it, and is
// otherwise withdrawn from the nodes that took it.
// Network.SubmitAllOrNothing is the same call followed by "if any verdict
// failed, withdraw everything this call added and return the
// lowest-indexed error". Resubmitting a queued transaction, or one this
// node has committed, is an idempotent success (counted in
// chain_mempool_duplicate_total and chain_mempool_stale_total); a
// different transaction on a committed nonce is ErrTxStale. A block
// being sealed has not committed yet: its transactions are still queued,
// so a rebroadcast is a duplicate and another transaction on its nonce is
// judged as replace-by-fee, then dropped when the original commits. For
// the same reason they hold pool room until then: they count against the
// capacity and their sender's quota (ErrQuotaExceeded, retryable), and an
// in-flight tail can be evicted; it is counted evicted and still commits.
//
// Size is bounded at the door too: a transaction larger than a block's
// byte budget (MaxBlockTxBytes, a sixteenth of store.MaxRecordSize) is
// ErrTxTooLarge. Take fills the budget and ApplyBlock refuses a block over
// it (ErrBlockTooLarge), so no selection can build a WAL record the log
// refuses on every retry.
//
// Signature verification — the dominant CPU cost of admission and
// validation — never runs under any node lock, and runs on the
// repository's one verifier pool, cryptoutil.VerifyAll, which spreads the
// checks over min(GOMAXPROCS, n) goroutines (the DE App's submitEvidence
// checks a list's device signatures on the same pool). verify returns an
// error per index; submission reads the slice per transaction, ApplyBlock
// takes its lowest-indexed error. Each validator verifies a transaction
// once: ApplyBlock skips the check for transactions whose hash is in the
// node's own mempool (it verified them at admission) and runs it for
// everything else — see ApplyBlock for the soundness argument. Likewise a
// transaction is hashed once per submission, not once per node, and once
// per node per block (mempool.Take hands the proposer its admission-time
// hashes, ApplyBlock computes them once) and the slice is threaded
// through the tx root and execution.
//
// # Signatures a block carries
//
// The mempool lookup above settles the repeat sightings of transaction
// signatures. A block carries three more kinds of signature inside it —
// the proposer's seal on the header, device signatures on evidence, and
// the manufacturer's signature on a device certificate — and each is
// presented to this process again: every follower of an in-process
// cluster is handed the same header and re-executes the same
// transactions, the parallel executor re-executes what its optimistic
// pass discarded (a round's evidence travels as one transaction, so a
// discarded pass re-presents all of its signatures), and a node meets a
// header again on rebroadcast
// (handleStaleDelivery) and on catch-up. Those checks go through
// cryptoutil.VerifyCached — Header.verifySeal here, submitEvidence and
// Certificate.Verify in the contract — which answers a repeat from one
// process-wide table of verified signatures. SealNext hands the header to
// its followers at once; the table lists a signature under verification
// as running, and the follower that arrives while it is waits for that
// check instead of starting its own, so a sealed block's seal costs one
// verification however many followers check it
// (TestSealOnceAcrossFollowers).
//
// Before the seal, verifySeal looks up the proposer's key: the authority
// set holds it as 65 bytes, and cryptoutil.ParsePublicKey answers a key
// this process has parsed before from its table of parsed keys, key and
// address together, with one whole-encoding compare. The lookup replaces
// the parse, not the check: the address it returns is compared with
// h.Proposer on every call, and a validator's key is the same 65 bytes at
// every height, so a follower's seal check allocates nothing beyond the
// signing bytes (TestVerifySealAllocations).
//
// The argument is the fast path's, one level down. There, a hit on
// Tx.Hash stands for "this node verified these signing bytes under this
// key with this signature". Here, a hit on SHA-256(public key ‖ message
// digest ‖ signature) stands for "this process ran ecdsa.VerifyASN1 on
// exactly these bytes and it accepted": the tag is over everything the
// verification reads, it is stored and compared whole, only successes are
// inserted, and the lookup key is recomputed from the block's own bytes,
// never taken from the proposer. So a seal that was valid for another
// header, a seal under another authority's key, and evidence signed by a
// key the ledger no longer names for the device all miss and get the full
// check (sealsig_test.go, distexchange/sigtable_test.go). Everything that
// is not the signature — authority membership, the key/address binding,
// height, parent, timestamp, both roots, the certificate's validity at
// the block's time — is evaluated on every call as before, so receipts,
// roots, gas and traces are the same with the table cold or warm
// (core.TestSigTableColdWarmReplay, scenario.TestScenarioColdWarmTable).
//
// The trust domain is the process, which Network.Submit already assumes:
// its one checked pass stands for every validator the process hosts. When
// every validator has its own process nothing is gained for a peer's
// first sighting of a block — each process pays for its own — and what
// remains is a node's own repeats: discarded optimistic executions,
// rebroadcasts, catch-up after a partition, and certificates. Transaction
// admission (verify.go) stays on plain verification: its repeats are
// the mempool's to answer, and a table entry per transaction would only
// evict the entries that do repeat.
//
// # Buffers a node reuses
//
// Every validator hashes, roots and persists every block, so the
// temporaries of that path are built in one blockScratch per node rather
// than allocated per block: a byte buffer that holds one encoding at a
// time — each transaction's while ApplyBlock hashes it, each receipt's
// while its digest is taken, then the WAL frame — a hash slice the
// Merkle levels of the tx and receipt roots are folded in, in place, and
// the per-sender map ApplyBlock checks nonce continuity in. The
// scratch belongs to the node's sealMu: seal and ApplyBlock take it after
// locking and hand it to commitBlock, so one block at a time uses it, and
// the followers SealNext fans a block out to each use their own. Nothing
// read from it outlives the block: a hash or a root is copied out as a
// value, the transaction hashes a block threads through execution live
// in a slice of their own, and the WAL writes the
// frame before AppendFrame returns (the frame is handed back then, refused
// or not). A buffer that grew past maxScratchBytes for one outsized block
// is dropped rather than kept. Callers outside the seal path — genesis,
// ForgeInvalidBlock, Tx.Hash, Receipt.Digest — pass a nil scratch and get
// fresh buffers from the same code. Network.SealNext likewise refills its
// membership view, follower list and verdict slice in buffers it owns
// under Network.sealMu; Network.mu is held only for the copy.
//
// # Who may hold a value slice
//
// A stored value is never written in place, and that one rule lets a
// value cross the ledger without a copy. A contract hands the slice it
// writes over to the overlay (StateRW.Set), which keeps it as the
// layer's value; TakeDeltas moves it into the block's diff and
// applyDeltas into the committed State, where the background snapshot
// writer and ExportShared share it. A transaction reads through
// Overlay.Get, which returns a view of the stored slice with its
// capacity clipped to its length, so an append copies. An event payload
// and a receipt's return value may be the very slice the contract
// stored; every subscriber and the receipt share it. Any of these
// holders may read or hash the slice for as long as it likes, and none
// may write it. The one copy left is State.Get's: queries (Node.Query)
// read through it, and what they answer leaves the ledger. The state
// root is hashed from a value's bytes when it is stored, so a write
// through any holder shows as a root that no longer matches the stored
// bytes (the scenario engine's state-integrity invariant).
//
// # Durability
//
// A node opened with OpenNode and a Config.DataDir is durable: every
// committed block — sealed, validated, or synced — is appended to a
// CRC-checked write-ahead log (header + transactions + receipts + the
// block's net state diff, in the deterministic length-prefixed binary
// format of codec.go, the only record format) before the in-memory
// ledger advances. The log is never truncated and holds every block's
// net diff, so it is the delta chain; a full state snapshot only saves a
// recovery the work of applying the diffs below it. One is written when
// the diff tail a recovery would replay — Σ len(K)+len(V) over the
// deltas committed since the last snapshot, not WAL bytes — has reached
// max(store.SnapshotFloor, State.Bytes), the size of the snapshot that
// replaces it (store.SnapshotDue): at most one byte written per diff
// byte committed whatever the ledger's age, at the same heights on every
// validator, and no cadence to configure.
// Reopening the same directory reconstructs the node: the newest usable
// snapshot bounds replay, the diff tail is applied with every block's
// state root checked against its header (the snapshot and each diff are
// folded in by applyDeltas, the same fold a commit uses), and nonces plus the gas cost
// ledger are rebuilt from the recovered blocks (the tail counter restarts
// at what was replayed). Torn log tails (a crash
// mid-append) are truncated back to the last complete record; corrupt
// snapshots fall back to a full diff replay. The mempool is not
// persisted. Close flushes and releases the store; Crash abandons it
// without the final flush (fault injection). The fsync policy
// (Config.Persist) decides what a machine crash may lose — an
// in-process crash loses nothing, as appends are unbuffered.
package chain
