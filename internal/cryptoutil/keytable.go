package cryptoutil

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"errors"
	"sync/atomic"
)

// The parsed-key table remembers the public keys this process has parsed,
// so a key presented again — a validator's next seal, a sender's next
// transaction, a device's next evidence — is answered by one 65-byte
// compare in place of elliptic.Unmarshal's curve arithmetic and the
// SHA-256 that derives its address. See the package comment for why a hit
// is sound.
//
// It is direct-mapped: two bytes of the key's X coordinate pick exactly
// one slot, a new entry overwrites whatever the slot held, and a lookup
// compares the whole encoding, so two keys that share a slot never answer
// for each other. A slot is an atomic pointer to an entry that is never
// written after it is published, so a lookup takes no lock and a reader
// sees either a whole entry or none.
//
// Size: 4 096 slots × 8 B = 32 KiB of pointers. One default run of each
// benchmark workload presents 6 (chain-ingest), 16 (chain-hot), 88
// (pod-serve), 344 (monitor-round) and 406 (market-mix) distinct keys to
// this process, set-up included, and at most about twenty of them — a
// round's sixteen devices, the validators, the CA — are parsed on every
// op. Two keys in one slot cost a parse each time they alternate; two of
// twenty hot keys share one of 4 096 slots in ≈ 5 % of processes, of
// 1 024 in ≈ 17 % (a monitor-round run at 1 024 slots missed ≈ 1 180
// times for its 344 keys).
const keySlots = 4096

// p256KeyLen is the length of an uncompressed P-256 point: 0x04 ‖ X ‖ Y.
const p256KeyLen = 65

type parsedKey struct {
	enc  [p256KeyLen]byte
	addr Address
	pub  ecdsa.PublicKey
}

var keyTable [keySlots]atomic.Pointer[parsedKey]

var errInvalidKey = errors.New("cryptoutil: invalid public key encoding")

// keySlot picks enc's slot from the low two bytes of its X coordinate,
// which are uniform over the keys that exist; enc has p256KeyLen bytes.
func keySlot(enc []byte) *atomic.Pointer[parsedKey] {
	return &keyTable[(uint(enc[31])<<8|uint(enc[32]))%keySlots]
}

// ParsePublicKey decodes an uncompressed P-256 point and returns the key
// with its address (AddressOf of the key). It is the one way this
// repository turns key bytes into a key: a key this process has parsed
// before comes from the parsed-key table without allocating.
//
// The returned key is shared by every caller that presents the same bytes
// and must not be modified; verifying with it is all any caller does.
func ParsePublicKey(data []byte) (*ecdsa.PublicKey, Address, error) {
	if len(data) != p256KeyLen {
		return nil, Address{}, errInvalidKey
	}
	slot := keySlot(data)
	if e := slot.Load(); e != nil && string(e.enc[:]) == string(data) {
		return &e.pub, e.addr, nil
	}
	curve := elliptic.P256()
	x, y := elliptic.Unmarshal(curve, data)
	if x == nil {
		return nil, Address{}, errInvalidKey
	}
	e := &parsedKey{addr: addressOfKeyBytes(data), pub: ecdsa.PublicKey{Curve: curve, X: x, Y: y}}
	copy(e.enc[:], data)
	slot.Store(e)
	return &e.pub, e.addr, nil
}
