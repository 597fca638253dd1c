// Package lint is the repo-specific static analysis suite: a small,
// dependency-free analogue of golang.org/x/tools/go/analysis (which the
// build environment does not vendor) plus four analyzers that turn this
// repository's hand-enforced correctness contracts into mechanical
// checks:
//
//   - lockcheck: struct fields annotated "// guarded by <mu>" may only
//     be touched while the named mutex on the same receiver is held, and
//     sync.Mutex / sync.RWMutex values must never be copied.
//   - determinism: packages on the deterministic replay path (chain
//     execution and codecs, the contract runtime, the store codec, the
//     scenario engine) must not read the wall clock or the global
//     math/rand source, and must not let Go's randomized map iteration
//     order leak into encoders, hashes, or accumulated slices without an
//     intervening sort. In the packages that own a canonical encoding
//     (chain, cryptoutil, distexchange, policy) a consensus encoder —
//     SigningBytes, Digest, Hash, append*/Append* — must not format by
//     reflection: no fmt formatter, no %v, no strings.Builder.
//   - codecsafe: every record tag constant that is encoded must have a
//     matching decode case and vice versa, and decoders must read
//     element counts through the bounds-checked Dec.Count (never a raw
//     Uvarint feeding a loop or allocation).
//   - errflow: errors from WAL appends, fsync, snapshot writes, and
//     store closes must not be discarded in the durability-critical
//     packages.
//
// Findings a human has reviewed can be waived in place with
//
//	//repolint:ignore <analyzer> <reason>
//
// either on the offending line or on the line directly above it. A
// waiver without a reason, naming an unknown analyzer, or matching no
// finding is itself a finding, so stale waivers cannot accumulate.
//
// The cmd/repolint command is the driver ("repolint ./..." must exit
// zero on this repository; CI enforces it). Analyzers are tested with
// fixture packages under testdata/src in the analysistest style: every
// line expecting a diagnostic carries a "// want `regexp`" comment.
package lint
