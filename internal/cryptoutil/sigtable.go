package cryptoutil

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
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
// Size: 64 × 128 slots × 32 B = 256 KiB holds 32 full 256-tx blocks of
// evidence, and a repeat arrives within the block that carried the first
// sighting or within a node's catch-up window.
const (
	sigShards        = 64  // one mutex each; tag[0] picks the shard
	sigSlotsPerShard = 128 // tag[1] picks the slot

	maxP256SigLen = 72 // DER SEQUENCE of two 33-byte INTEGERs; VerifyASN1 accepts nothing longer
)

type sigShard struct {
	mu    sync.Mutex
	slots [sigSlotsPerShard]Hash // guarded by mu
}

var sigTable [sigShards]sigShard

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

// sigVerified reports whether tag is in the table.
func sigVerified(tag Hash) bool {
	sh := &sigTable[tag[0]%sigShards]
	sh.mu.Lock()
	hit := sh.slots[tag[1]%sigSlotsPerShard] == tag
	sh.mu.Unlock()
	return hit
}

// sigRemember records tag, replacing its slot's previous entry.
func sigRemember(tag Hash) {
	sh := &sigTable[tag[0]%sigShards]
	sh.mu.Lock()
	sh.slots[tag[1]%sigSlotsPerShard] = tag
	sh.mu.Unlock()
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
func VerifyCached(pub *ecdsa.PublicKey, msg, sig []byte) bool {
	digest := sha256.Sum256(msg)
	tag, ok := sigTag(pub, &digest, sig)
	if ok && sigVerified(tag) {
		sigHits.Load().Inc()
		return true
	}
	sigMisses.Load().Inc()
	if !ecdsa.VerifyASN1(pub, digest[:], sig) {
		return false
	}
	if ok {
		sigRemember(tag)
	}
	return true
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
