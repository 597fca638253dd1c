package cryptoutil

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"math/big"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// countTable empties the table, points its counters at a fresh registry
// for the duration of the test and returns a reader of (hits, misses).
func countTable(t *testing.T) func() (hits, misses uint64) {
	t.Helper()
	ForgetVerified()
	reg := obs.NewRegistry()
	Instrument(reg)
	t.Cleanup(func() { Instrument(nil) })
	return func() (uint64, uint64) {
		return reg.Counter("cryptoutil_sigcache_hits_total", "").Value(),
			reg.Counter("cryptoutil_sigcache_misses_total", "").Value()
	}
}

func signed(t testing.TB, k *KeyPair, msg []byte) []byte {
	t.Helper()
	sig, err := k.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

func flipBit(b []byte, bit int) []byte {
	out := append([]byte(nil), b...)
	out[bit/8] ^= 1 << (bit % 8)
	return out
}

// TestVerifyCachedSoundness: a hit stands for exactly the triple that was
// verified. Every one-bit neighbour of it — in the key, the message or the
// signature — misses and fails, and failing never makes the next call hit.
func TestVerifyCachedSoundness(t *testing.T) {
	counts := countTable(t)
	k := MustGenerateKey()
	pub := &k.priv.PublicKey
	msg := []byte("evidence|round 7|")
	sig := signed(t, k, msg)

	if !VerifyCached(pub, msg, sig) || !VerifyCached(pub, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if h, m := counts(); h != 1 || m != 1 {
		t.Fatalf("first sighting then repeat: hits=%d misses=%d, want 1 and 1", h, m)
	}

	variants := 0
	reject := func(what string, pub *ecdsa.PublicKey, msg, sig []byte) {
		t.Helper()
		variants++
		if VerifyCached(pub, msg, sig) {
			t.Fatalf("%s: accepted next to a verified triple", what)
		}
	}
	for bit := range len(msg) * 8 {
		reject("message bit", pub, flipBit(msg, bit), sig)
	}
	for bit := range len(sig) * 8 {
		reject("signature bit", pub, msg, flipBit(sig, bit))
	}
	reject("signature with a trailing byte", pub, msg, append(append([]byte(nil), sig...), 0))
	x, y := pub.X.FillBytes(make([]byte, 32)), pub.Y.FillBytes(make([]byte, 32))
	for bit := range 256 {
		// Off the curve, as almost every neighbour of a point is: the key is
		// built directly because ParsePublicKey would refuse it first.
		reject("key X bit", &ecdsa.PublicKey{Curve: elliptic.P256(), X: new(big.Int).SetBytes(flipBit(x, bit)), Y: pub.Y}, msg, sig)
		reject("key Y bit", &ecdsa.PublicKey{Curve: elliptic.P256(), X: pub.X, Y: new(big.Int).SetBytes(flipBit(y, bit))}, msg, sig)
	}
	reject("another valid key", &MustGenerateKey().priv.PublicKey, msg, sig)
	if h, m := counts(); h != 1 || m != uint64(1+variants) {
		t.Fatalf("after %d variants: hits=%d misses=%d, want 1 and %d", variants, h, m, 1+variants)
	}

	// A failure is never remembered: the same bad triple misses both times.
	bad := flipBit(sig, len(sig)*8-1)
	if VerifyCached(pub, msg, bad) || VerifyCached(pub, msg, bad) {
		t.Fatal("bad signature accepted")
	}
	if h, m := counts(); h != 1 || m != uint64(3+variants) {
		t.Fatalf("bad signature twice: hits=%d misses=%d, want 1 and %d", h, m, 3+variants)
	}
	// ... and none of it displaced or spoiled the entry that was earned.
	if !VerifyCached(pub, msg, sig) {
		t.Fatal("verified triple rejected")
	}
	if h, _ := counts(); h != 2 {
		t.Fatalf("hits=%d, want 2", h)
	}
}

// TestSigTableComparesWholeTag: tags that name the same slot never answer
// for each other, whichever byte they differ in.
func TestSigTableComparesWholeTag(t *testing.T) {
	ForgetVerified()
	a := Hash(sha256.Sum256([]byte("a")))
	remember(a)
	if !verified(a) {
		t.Fatal("remembered tag not found")
	}
	for i := 2; i < len(a); i++ { // bytes 0 and 1 pick the slot
		b := a
		b[i] ^= 0x80
		if verified(b) {
			t.Fatalf("tag differing in byte %d answered by its slot-mate", i)
		}
	}
	b := a
	b[len(b)-1] ^= 1
	remember(b) // overwrites a
	if verified(a) || !verified(b) {
		t.Fatal("slot holds the overwritten tag, or not the new one")
	}
}

// verified reports whether tag is in the table, settling the miss
// sigAwait lists as running.
func verified(tag Hash) bool {
	if sigAwait(tag) {
		return true
	}
	sigSettle(tag, false)
	return false
}

// remember records tag as a verification that succeeded.
func remember(tag Hash) {
	if !sigAwait(tag) {
		sigSettle(tag, true)
	}
}

// TestVerifyCachedSlotCollision forces two real triples into one slot:
// each evicts the other, neither is answered by the other's entry, and
// every answer is still the right one.
func TestVerifyCachedSlotCollision(t *testing.T) {
	counts := countTable(t)
	k := MustGenerateKey()
	pub := &k.priv.PublicKey
	type triple struct{ msg, sig []byte }
	bySlot := make(map[[2]byte]triple)
	var first, second triple
	for i := 0; second.msg == nil; i++ {
		msg := []byte{byte(i), byte(i >> 8), byte(i >> 16)}
		tr := triple{msg, signed(t, k, msg)}
		digest := sha256.Sum256(msg)
		tag, ok := sigTag(pub, &digest, tr.sig)
		if !ok {
			t.Fatal("P-256 triple has no tag")
		}
		slot := [2]byte{tag[0] % sigShards, tag[1] % sigSlotsPerShard}
		if prior, taken := bySlot[slot]; taken {
			first, second = prior, tr
		}
		bySlot[slot] = tr
	}
	for _, tr := range []triple{first, second, first} {
		if !VerifyCached(pub, tr.msg, tr.sig) {
			t.Fatal("valid signature rejected")
		}
	}
	if h, m := counts(); h != 0 || m != 3 {
		t.Fatalf("hits=%d misses=%d, want 0 and 3: slot-mates evict each other", h, m)
	}
	if VerifyCached(pub, first.msg, second.sig) || VerifyCached(pub, second.msg, first.sig) {
		t.Fatal("a slot-mate's signature accepted for the other message")
	}
}

// TestVerifyCachedAllocs: a lookup allocates nothing. The table adds
// nothing to a failing verification either; what remains there is
// crypto/ecdsa's own.
func TestVerifyCachedAllocs(t *testing.T) {
	ForgetVerified()
	k := MustGenerateKey()
	pub := &k.priv.PublicKey
	msg := []byte("allocs")
	sig := signed(t, k, msg)
	bad := flipBit(sig, len(sig)*8-1)
	VerifyCached(pub, msg, sig)
	if n := testing.AllocsPerRun(100, func() { VerifyCached(pub, msg, sig) }); n != 0 {
		t.Errorf("hit path: %v allocs, want 0", n)
	}
	plain := testing.AllocsPerRun(100, func() { Verify(pub, msg, bad) })
	if n := testing.AllocsPerRun(100, func() { VerifyCached(pub, msg, bad) }); n != plain {
		t.Errorf("miss-then-fail path: %v allocs, plain Verify %v", n, plain)
	}
	// A first sighting that verifies writes the table; that must not
	// allocate either (pod-serve pays it once per GET).
	plain = testing.AllocsPerRun(100, func() { Verify(pub, msg, sig) })
	if n := testing.AllocsPerRun(100, func() { ForgetVerified(); VerifyCached(pub, msg, sig) }); n != plain {
		t.Errorf("miss-then-remember path: %v allocs, plain Verify %v", n, plain)
	}
}

// TestVerifyCachedOutsideTheTable: what has no tag — a key off P-256, a
// signature longer than any valid one — is verified plainly every time.
func TestVerifyCachedOutsideTheTable(t *testing.T) {
	counts := countTable(t)
	priv, err := ecdsa.GenerateKey(elliptic.P224(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("p224")
	digest := sha256.Sum256(msg)
	sig, err := ecdsa.SignASN1(rand.Reader, priv, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyCached(&priv.PublicKey, msg, sig) || !VerifyCached(&priv.PublicKey, msg, sig) {
		t.Fatal("valid P-224 signature rejected")
	}
	k := MustGenerateKey()
	if VerifyCached(&k.priv.PublicKey, msg, make([]byte, maxP256SigLen+1)) {
		t.Fatal("overlong signature accepted")
	}
	if h, m := counts(); h != 0 || m != 3 {
		t.Fatalf("hits=%d misses=%d, want 0 and 3", h, m)
	}
}

// TestVerifyCachedConcurrent hammers a few triples, good and bad, from
// several goroutines while another keeps emptying the table: whatever the
// interleaving of hits, misses, inserts and resets, every answer is
// Verify's. Run with -race.
func TestVerifyCachedConcurrent(t *testing.T) {
	type triple struct {
		pub      *ecdsa.PublicKey
		msg, sig []byte
		want     bool
	}
	var triples []triple
	for i := range 4 {
		k := MustGenerateKey()
		msg := []byte{byte(i)}
		sig := signed(t, k, msg)
		triples = append(triples,
			triple{&k.priv.PublicKey, msg, sig, true},
			triple{&k.priv.PublicKey, []byte{byte(i), 1}, sig, false})
	}
	stop := make(chan struct{})
	var forgetter sync.WaitGroup
	forgetter.Add(1)
	go func() {
		defer forgetter.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ForgetVerified()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				tr := triples[(g+i)%len(triples)]
				if got := VerifyCached(tr.pub, tr.msg, tr.sig); got != tr.want {
					t.Errorf("VerifyCached = %v, want %v", got, tr.want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	forgetter.Wait()
}

// TestCertificateWindowCheckedOnEveryCall: only the signature check of
// Certificate.Verify is remembered. Expiry, the issuer and the subject
// binding are judged anew with a warm table, and a re-signed field misses.
func TestCertificateWindowCheckedOnEveryCall(t *testing.T) {
	counts := countTable(t)
	ca, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	notBefore := time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC)
	notAfter := notBefore.Add(time.Hour)
	cert, err := ca.Issue(MustGenerateKey(), map[string]string{"feePaid": "r"}, notBefore, notAfter)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := cert.Verify(ca.PublicBytes(), notBefore.Add(time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if h, m := counts(); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1 and 1", h, m)
	}
	if err := cert.Verify(ca.PublicBytes(), notAfter.Add(time.Nanosecond)); !errors.Is(err, ErrCertExpired) {
		t.Errorf("after the window, warm table: %v, want ErrCertExpired", err)
	}
	if err := cert.Verify(ca.PublicBytes(), notBefore.Add(-time.Nanosecond)); !errors.Is(err, ErrCertNotYetValid) {
		t.Errorf("before the window, warm table: %v, want ErrCertNotYetValid", err)
	}
	other, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.Verify(other.PublicBytes(), notBefore); !errors.Is(err, ErrCertWrongIssuer) {
		t.Errorf("wrong issuer, warm table: %v, want ErrCertWrongIssuer", err)
	}
	extended := *cert
	extended.NotAfter = notAfter.Add(24 * time.Hour)
	if err := extended.Verify(ca.PublicBytes(), notAfter.Add(time.Minute)); !errors.Is(err, ErrCertBadSignature) {
		t.Errorf("window extended after signing, warm table: %v, want ErrCertBadSignature", err)
	}
}

// FuzzVerifyCachedAgrees: for any (key, message, signature), VerifyCached
// answers what Verify answers — on a first sighting and on the repeat.
func FuzzVerifyCachedAgrees(f *testing.F) {
	k := MustGenerateKey()
	msg := []byte("seed")
	f.Add(k.PublicBytes(), msg, signed(f, k, msg))
	f.Fuzz(func(t *testing.T, pubBytes, msg, sig []byte) {
		pub, err := ParsePublicKey(pubBytes)
		if err != nil {
			return
		}
		want := Verify(pub, msg, sig)
		for _, sighting := range []string{"first", "repeat"} {
			if got := VerifyCached(pub, msg, sig); got != want {
				t.Fatalf("%s sighting: VerifyCached = %v, Verify = %v", sighting, got, want)
			}
		}
	})
}
