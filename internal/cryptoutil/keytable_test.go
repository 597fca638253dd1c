package cryptoutil

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"sync"
	"sync/atomic"
	"testing"
)

// parseDirect is what ParsePublicKey answers, computed without the table.
func parseDirect(data []byte) (*ecdsa.PublicKey, Address, bool) {
	x, y := elliptic.Unmarshal(elliptic.P256(), data)
	if x == nil {
		return nil, Address{}, false
	}
	pub := &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}
	return pub, AddressOf(pub), true
}

// tableEntries counts the parsed-key table's occupied slots.
func tableEntries() int {
	n := 0
	for i := range keyTable {
		if keyTable[i].Load() != nil {
			n++
		}
	}
	return n
}

// sameSlotKeys returns two fresh keys whose encodings share a slot.
func sameSlotKeys() (a, b *KeyPair) {
	seen := map[*atomic.Pointer[parsedKey]]*KeyPair{}
	for {
		k := MustGenerateKey()
		slot := keySlot(k.PublicBytes())
		if other, ok := seen[slot]; ok {
			return other, k
		}
		seen[slot] = k
	}
}

// TestParsePublicKeyWarm: over many random keys, a cold parse answers what
// elliptic.Unmarshal and AddressOf answer, and the warm parse after it
// returns the same key and address without allocating.
func TestParsePublicKeyWarm(t *testing.T) {
	ForgetVerified()
	for range 200 {
		k := MustGenerateKey()
		enc := k.PublicBytes()
		cold, coldAddr, err := ParsePublicKey(enc)
		if err != nil {
			t.Fatalf("cold parse: %v", err)
		}
		if !cold.Equal(&k.priv.PublicKey) || coldAddr != k.Address() {
			t.Fatalf("cold parse: key or address differs from the key pair's")
		}
		var warm *ecdsa.PublicKey
		var warmAddr Address
		if n := testing.AllocsPerRun(10, func() { warm, warmAddr, err = ParsePublicKey(enc) }); n != 0 {
			t.Fatalf("warm parse: %.0f allocations, want 0", n)
		}
		if err != nil || !warm.Equal(cold) || warmAddr != coldAddr {
			t.Fatalf("warm parse answered (%v, %s, %v), cold (%v, %s)", warm, warmAddr, err, cold, coldAddr)
		}
	}
}

// TestParsePublicKeySharedSlot: two keys that share a slot never answer
// for each other, and neither does an off-curve neighbour of the key the
// slot holds (the slot comes from X, the flipped bit is in Y).
func TestParsePublicKeySharedSlot(t *testing.T) {
	ForgetVerified()
	a, b := sameSlotKeys()
	for _, k := range []*KeyPair{a, b, a, a, b, b, a} {
		pub, addr, err := ParsePublicKey(k.PublicBytes())
		if err != nil || !pub.Equal(&k.priv.PublicKey) || addr != k.Address() {
			t.Fatalf("parse of %s after its slot-mate: (%s, %v)", k.Address(), addr, err)
		}
	}
	neighbour := a.PublicBytes()
	neighbour[64] ^= 1
	if keySlot(neighbour) != keySlot(a.PublicBytes()) {
		t.Fatal("neighbour left the slot")
	}
	ParsePublicKey(a.PublicBytes())
	if _, _, err := ParsePublicKey(neighbour); err == nil {
		t.Fatal("off-curve neighbour of the slot's key accepted")
	}
	if e := keySlot(neighbour).Load(); e == nil || e.addr != a.Address() {
		t.Fatal("the refused neighbour displaced the slot's key")
	}
}

// TestParsePublicKeyConcurrent: eight goroutines parsing the same
// encodings — keys that share a slot, keys that do not, and refusals —
// while the tables are emptied beside them get the serial answers.
func TestParsePublicKeyConcurrent(t *testing.T) {
	a, b := sameSlotKeys()
	inputs := [][]byte{a.PublicBytes(), b.PublicBytes(), {4, 1, 2}}
	for range 30 {
		inputs = append(inputs, MustGenerateKey().PublicBytes())
	}
	off := bytes.Clone(inputs[3])
	off[64] ^= 1
	inputs = append(inputs, off)
	type answer struct {
		pub  *ecdsa.PublicKey
		addr Address
		ok   bool
	}
	serial := make([]answer, len(inputs))
	for i, in := range inputs {
		pub, addr, ok := parseDirect(in)
		serial[i] = answer{pub, addr, ok}
	}

	stop := make(chan struct{})
	var resetter sync.WaitGroup
	resetter.Add(1)
	go func() {
		defer resetter.Done()
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
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 200 {
				i := (g*7 + round*5) % len(inputs)
				pub, addr, err := ParsePublicKey(inputs[i])
				want := serial[i]
				if (err == nil) != want.ok || want.ok && (!pub.Equal(want.pub) || addr != want.addr) {
					t.Errorf("goroutine %d, input %d: (%s, %v), serial (%s, ok=%v)", g, i, addr, err, want.addr, want.ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	resetter.Wait()
}

// TestVerifyWithAddressAllocations: with the key parsed before, checking a
// transaction's key, address and signature allocates what the signature
// check alone allocates. At 1c22d60, which parsed the key and re-encoded
// it for its address on every call, it allocated 7 more (17 against 10).
func TestVerifyWithAddressAllocations(t *testing.T) {
	k := MustGenerateKey()
	enc, msg := k.PublicBytes(), []byte("tx signing bytes")
	sig := signed(t, k, msg)
	plain := testing.AllocsPerRun(100, func() { Verify(&k.priv.PublicKey, msg, sig) })
	var err error
	got := testing.AllocsPerRun(100, func() { err = VerifyWithAddress(k.Address(), enc, msg, sig) })
	if err != nil {
		t.Fatal(err)
	}
	if got != plain {
		t.Fatalf("warm VerifyWithAddress: %.0f allocations, Verify alone %.0f", got, plain)
	}
}

// FuzzParsePublicKeyAgrees: for any bytes, ParsePublicKey answers what
// elliptic.Unmarshal and AddressOf answer, on a first sighting and on the
// repeat. The seeds are a real key, every one-bit mutation of it, and the
// short forms.
func FuzzParsePublicKeyAgrees(f *testing.F) {
	enc := MustGenerateKey().PublicBytes()
	f.Add(enc)
	for bit := range len(enc) * 8 {
		f.Add(flipBit(enc, bit))
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(enc[:33])
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantAddr, ok := parseDirect(data)
		for _, sighting := range []string{"first", "repeat"} {
			pub, addr, err := ParsePublicKey(data)
			if (err == nil) != ok {
				t.Fatalf("%s sighting: err = %v, elliptic.Unmarshal ok = %v", sighting, err, ok)
			}
			if ok && (!pub.Equal(want) || addr != wantAddr) {
				t.Fatalf("%s sighting: (%s) differs from the direct parse (%s)", sighting, addr, wantAddr)
			}
		}
	})
}
