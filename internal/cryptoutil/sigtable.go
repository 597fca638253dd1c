package cryptoutil

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// The verified-signature table remembers which (key, digest, signature)
// triples this process has already verified, so a signed object that is
// presented again is checked by one SHA-256 and one 32-byte compare in
// place of an ECDSA verification. See the package comment for which
// call sites go through it and why a hit is sound.
//
// It is direct-mapped: a tag names exactly one slot, a new entry
// overwrites whatever the slot held, and a lookup compares the whole
// 32-byte tag, so two triples that share a slot never answer for each
// other. An empty slot holds the zero tag, which no triple hashes to
// short of a SHA-256 preimage — the same assumption that keeps two
// triples from sharing a tag.
//
// A verification runs outside the shard lock. A tag is listed as running
// while it does, and a second sighting of the same tag in that window —
// two followers handed one header at once — waits for the running check
// instead of starting its own, then takes the answer from the table. So
// every tag costs one ECDSA verification however many goroutines present
// it together; a failed check is not remembered, and each waiter then runs
// its own.
//
// Size: 64 × 128 slots × 32 B = 256 KiB holds 32 full 256-tx blocks of
// evidence, and a repeat arrives within the block that carried the first
// sighting or within a node's catch-up window.
const (
	sigShards        = 64  // one mutex each; tag[0] picks the shard
	sigSlotsPerShard = 128 // tag[1] picks the slot

	maxP256SigLen = 72 // DER SEQUENCE of two 33-byte INTEGERs; VerifyASN1 accepts nothing longer
)

type sigShard struct {
	mu      sync.Mutex
	slots   [sigSlotsPerShard]Hash // guarded by mu
	running []Hash                 // tags being verified; guarded by mu
	settled sync.Cond              // on mu; broadcast when a running tag settles
}

var sigTable [sigShards]sigShard

func init() {
	for i := range sigTable {
		sigTable[i].settled.L = &sigTable[i].mu
	}
}

// sigHits and sigMisses are nil (no-ops) until Instrument.
var sigHits, sigMisses atomic.Pointer[obs.Counter]

// Instrument registers the table's hit and miss counters on reg. The
// table is one per process, so the counters are too: the registry given
// last receives them.
func Instrument(reg *obs.Registry) {
	sigHits.Store(reg.Counter("cryptoutil_sigcache_hits_total",
		"VerifyCached calls answered by the verified-signature table (no ECDSA verification)"))
	sigMisses.Store(reg.Counter("cryptoutil_sigcache_misses_total",
		"VerifyCached calls that ran the ECDSA verification (first sighting, overwritten slot, or invalid signature)"))
}

// sigAwait reports whether tag is in the table, first waiting for a
// running verification of tag to settle. On a miss it lists tag as
// running, and the caller must verify it and sigSettle it.
func sigAwait(tag Hash) bool {
	sh := &sigTable[tag[0]%sigShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for slices.Contains(sh.running, tag) {
		sh.settled.Wait()
	}
	if sh.slots[tag[1]%sigSlotsPerShard] == tag {
		return true
	}
	sh.running = append(sh.running, tag)
	return false
}

// sigSettle ends the verification sigAwait listed tag as running for,
// recording tag if it was valid (replacing its slot's previous entry),
// and wakes the sightings waiting on it.
func sigSettle(tag Hash, valid bool) {
	sh := &sigTable[tag[0]%sigShards]
	sh.mu.Lock()
	if valid {
		sh.slots[tag[1]%sigSlotsPerShard] = tag
	}
	i := slices.Index(sh.running, tag)
	sh.running = slices.Delete(sh.running, i, i+1)
	sh.mu.Unlock()
	sh.settled.Broadcast()
}

// sigTag is SHA-256 over the 65-byte public key ‖ the 32-byte message
// digest ‖ the signature bytes. The first two parts have fixed length, so
// the concatenation is injective. ok is false for what the table does
// not hold: a key off P-256, or a signature too long to be valid.
func sigTag(pub *ecdsa.PublicKey, digest *[sha256.Size]byte, sig []byte) (tag Hash, ok bool) {
	if pub.Curve != elliptic.P256() || len(sig) > maxP256SigLen {
		return tag, false
	}
	var buf [65 + sha256.Size + maxP256SigLen]byte
	buf[0] = 4
	pub.X.FillBytes(buf[1:33])
	pub.Y.FillBytes(buf[33:65])
	copy(buf[65:], digest[:])
	n := 65 + sha256.Size + copy(buf[65+sha256.Size:], sig)
	return sha256.Sum256(buf[:n]), true
}

// VerifyCached is Verify for a signed object that may be presented to
// this process again. It returns what Verify returns, always: a triple
// is remembered only after Verify's own check accepted it, and ECDSA
// verification is a pure function of exactly the bytes the tag covers.
//
// Concurrent calls on one triple run one verification between them (see
// the table's comment above); every call still returns Verify's answer.
func VerifyCached(pub *ecdsa.PublicKey, msg, sig []byte) bool {
	digest := sha256.Sum256(msg)
	tag, ok := sigTag(pub, &digest, sig)
	if !ok {
		sigMisses.Load().Inc()
		return ecdsa.VerifyASN1(pub, digest[:], sig)
	}
	if sigAwait(tag) {
		sigHits.Load().Inc()
		return true
	}
	sigMisses.Load().Inc()
	valid := ecdsa.VerifyASN1(pub, digest[:], sig)
	sigSettle(tag, valid)
	return valid
}

// ForgetVerified empties the table. Tests use it to compare a cold table
// with a warm one; nothing else has a reason to.
func ForgetVerified() {
	for i := range sigTable {
		sh := &sigTable[i]
		sh.mu.Lock()
		sh.slots = [sigSlotsPerShard]Hash{}
		sh.mu.Unlock()
	}
}
