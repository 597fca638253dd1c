// Package cryptoutil provides the cryptographic primitives shared by the
// blockchain, TEE, market, and Solid substrates: ECDSA P-256 key pairs,
// 20-byte addresses, message signing, and signed certificate envelopes with
// a minimal certificate authority.
//
// Everything is built on the Go standard library (crypto/ecdsa,
// crypto/sha256, crypto/x509 for key encoding).
//
// # What a signature covers
//
// A signed object's signature covers its own encoding up to the signature
// (Certificate.SigningBytes; tee.Quote and distexchange.Evidence alike),
// and that encoding opens with a byte no other signed form opens with:
// one device key signs transactions, quotes and evidence, so the first
// byte is what keeps one from being taken for another. Core's
// TestSigningFormsAreDomainSeparated lists every form and pins that.
//
// # Verify and VerifyCached
//
// There are two ways to check a signature, and which one a call site uses
// is decided by one question: is this signed object, by design, presented
// again to this process?
//
// VerifyCached is for objects that are. It keeps one fixed-size,
// process-wide table of verified signatures (sigtable.go) and answers a
// repeat from it. Its callers are
//
//   - distexchange.submitEvidence, the device's signature on each evidence
//     of the list it is handed (one transaction carries a whole monitoring
//     round's): every validator of an in-process cluster executes the same
//     transaction, and the parallel executor re-executes what its
//     optimistic pass discarded;
//   - chain's Header.verifySeal (ApplyBlock and the stale-delivery path),
//     the proposer's seal: every follower is handed the same header at
//     once — a sighting that arrives while the same triple is being
//     verified waits for that check — and a node sees it again on
//     rebroadcast and on catch-up;
//   - Certificate.Verify, and through it distexchange.registerDevice,
//     tee.VerifyQuote's device certificate and market.Verifier.Check: a
//     certificate exists to be shown many times. Its validity window,
//     issuer and subject binding are evaluated on every call; only the
//     ECDSA check is remembered.
//
// Verify (and VerifyWithAddress) is for objects that are seen once:
//
//   - transaction admission (chain's verify on the VerifyAll pool,
//     Tx.hashAndVerify):
//     a transaction's repeat sightings are already answered per node by
//     the mempool lookup in ApplyBlock, which costs a map read, and
//     Network.Submit verifies once for the cluster;
//   - the Solid request signature (solid.Server) and the TEE quote
//     signature (tee.VerifyQuote): both cover a fresh nonce, so a repeat
//     is a replay to refuse, not work to save.
//
// Routing those through the table would only churn it.
//
// Why a hit is sound. ECDSA verification is a pure function of the public
// key, the message digest and the signature bytes. The table is keyed by
// SHA-256 over exactly those three (65-byte key ‖ 32-byte digest ‖
// signature; the first two have fixed length, so the encoding is
// injective), stores the whole 32-byte tag, compares the whole tag, and is
// written only after ecdsa.VerifyASN1 has accepted the triple. A hit
// therefore means this process ran the verification on these very bytes
// and it succeeded — or SHA-256 collided. A failed verification is never
// remembered, so there is nothing to poison; eviction (the table is
// direct-mapped, a new entry overwrites its slot) can only cause a miss.
// Everything that is not the triple — which key a ledger record or a
// pinned CA names, whether a certificate has expired, whether a header
// extends this chain — is the caller's to decide and is decided on every
// call, before or after the signature check, exactly as with Verify.
//
// The trust domain is the process: the same one chain.Network.Submit
// already assumes when it verifies a batch once for every validator it
// hosts. In a deployment with one validator per process the table saves
// only a node's own repeats (discarded optimistic executions,
// rebroadcasts, catch-up, certificates), not its peers' first sightings.
// There is no option: the size is a constant, and nothing turns the table
// off.
//
// # Parsed keys
//
// Every check above starts from key bytes: a transaction's sender key, a
// validator's key from the authority set, a certificate's subject and
// issuer keys, a Solid agent's registered key, a device key in a quote or
// on the ledger. The identities of a deployment are few and long-lived,
// so the same 65 bytes are parsed again and again. ParsePublicKey is the
// one parse function, and it keeps one fixed-size, process-wide table of
// parsed keys (keytable.go): a key it has parsed before is answered with
// the stored key and address, without allocating.
//
// Why a hit is sound. Parsing is a pure function of the 65 bytes, and an
// uncompressed encoding is canonical (elliptic.Unmarshal refuses a
// coordinate ≥ p), so its address — SHA-256 of those same bytes — is
// AddressOf of the parsed key. The table stores the whole encoding,
// compares the whole encoding, and is written only after
// elliptic.Unmarshal has accepted the point; a refused encoding is never
// remembered and is refused again on every call. A hit therefore returns
// exactly what a parse of these bytes returns, and eviction (direct-mapped,
// a new entry overwrites its slot) can only cause a parse.
//
// The returned *ecdsa.PublicKey is shared by every caller that presents
// the same bytes, so it is read-only: callers verify with it and nothing
// else. The slot count is a constant, 4 096, sized from the distinct keys
// the benchmark's workloads present to one process — 6 to 406 — so that
// a long-lived key rarely shares its slot (keytable.go has the counts).
// ForgetVerified empties this table with the verified-signature table.
package cryptoutil

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"crypto/x509"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// AddressLen is the length of an Address in bytes.
const AddressLen = 20

// Address identifies a key holder: the trailing 20 bytes of the SHA-256
// hash of the public key's uncompressed point encoding (mirroring
// Ethereum's construction).
type Address [AddressLen]byte

// ZeroAddress is the all-zero address, used as "no address".
var ZeroAddress Address

// IsZero reports whether the address is the zero address.
func (a Address) IsZero() bool { return a == ZeroAddress }

// String returns the 0x-prefixed hex form of the address.
func (a Address) String() string { return "0x" + hex.EncodeToString(a[:]) }

// Short returns an abbreviated form for logs ("0x1234..abcd").
func (a Address) Short() string {
	s := hex.EncodeToString(a[:])
	return "0x" + s[:4] + ".." + s[len(s)-4:]
}

// KeyPair is an ECDSA P-256 key pair with its derived address.
type KeyPair struct {
	priv *ecdsa.PrivateKey
	addr Address
}

// GenerateKey creates a new P-256 key pair using the given entropy source
// (crypto/rand.Reader if nil).
func GenerateKey(entropy io.Reader) (*KeyPair, error) {
	if entropy == nil {
		entropy = rand.Reader
	}
	priv, err := ecdsa.GenerateKey(elliptic.P256(), entropy)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: generate key: %w", err)
	}
	return &KeyPair{priv: priv, addr: AddressOf(&priv.PublicKey)}, nil
}

// MustGenerateKey is GenerateKey with crypto/rand that panics on failure.
// It is intended for tests and example binaries where entropy failure is
// unrecoverable anyway.
func MustGenerateKey() *KeyPair {
	kp, err := GenerateKey(nil)
	if err != nil {
		panic(err)
	}
	return kp
}

// PrivateBytes returns the SEC 1 / ASN.1 DER encoding of the private
// key, as durable node and pod-owner identities are persisted on disk.
func (k *KeyPair) PrivateBytes() ([]byte, error) {
	der, err := x509.MarshalECPrivateKey(k.priv)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: marshal private key: %w", err)
	}
	return der, nil
}

// ParsePrivateKey decodes a SEC 1 DER private key previously produced by
// PrivateBytes.
func ParsePrivateKey(der []byte) (*KeyPair, error) {
	priv, err := x509.ParseECPrivateKey(der)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: parse private key: %w", err)
	}
	if priv.Curve != elliptic.P256() {
		return nil, errors.New("cryptoutil: private key is not P-256")
	}
	return &KeyPair{priv: priv, addr: AddressOf(&priv.PublicKey)}, nil
}

// LoadOrCreateKeyFile returns the key pair persisted at path (SEC 1
// DER), generating one and writing it there (0600, parent directories
// created) when the file does not exist. Durable binaries use it so a
// restarted process keeps its signing identity. A file that exists but
// does not parse is an error, never silently replaced.
func LoadOrCreateKeyFile(path string) (*KeyPair, error) {
	if der, err := os.ReadFile(path); err == nil {
		key, err := ParsePrivateKey(der)
		if err != nil {
			return nil, fmt.Errorf("cryptoutil: key at %s: %w", path, err)
		}
		return key, nil
	}
	key, err := GenerateKey(nil)
	if err != nil {
		return nil, err
	}
	der, err := key.PrivateBytes()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("cryptoutil: key dir: %w", err)
	}
	if err := os.WriteFile(path, der, 0o600); err != nil {
		return nil, fmt.Errorf("cryptoutil: write key: %w", err)
	}
	return key, nil
}

// Address returns the address derived from the public key.
func (k *KeyPair) Address() Address { return k.addr }

// PublicBytes returns the uncompressed-point encoding of the public key.
func (k *KeyPair) PublicBytes() []byte { return MarshalPublicKey(&k.priv.PublicKey) }

// MarshalPublicKey encodes a public key as an uncompressed curve point
// (0x04 || X || Y, 65 bytes for P-256).
func MarshalPublicKey(pub *ecdsa.PublicKey) []byte {
	byteLen := (pub.Curve.Params().BitSize + 7) / 8
	out := make([]byte, 1+2*byteLen)
	out[0] = 4
	pub.X.FillBytes(out[1 : 1+byteLen])
	pub.Y.FillBytes(out[1+byteLen:])
	return out
}

// AddressOf derives the address of a public key.
func AddressOf(pub *ecdsa.PublicKey) Address { return addressOfKeyBytes(MarshalPublicKey(pub)) }

// addressOfKeyBytes is AddressOf for a key already in its uncompressed
// encoding (the only one ParsePublicKey accepts): the same digest, with no
// parse and no allocation.
func addressOfKeyBytes(pub []byte) Address {
	sum := sha256.Sum256(pub)
	var a Address
	copy(a[:], sum[len(sum)-AddressLen:])
	return a
}

// Sign signs the SHA-256 digest of msg and returns an ASN.1 DER signature.
func (k *KeyPair) Sign(msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	sig, err := ecdsa.SignASN1(rand.Reader, k.priv, digest[:])
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: sign: %w", err)
	}
	return sig, nil
}

// Verify reports whether sig is a valid signature of msg under pub.
func Verify(pub *ecdsa.PublicKey, msg, sig []byte) bool {
	digest := sha256.Sum256(msg)
	return ecdsa.VerifyASN1(pub, digest[:], sig)
}

// VerifyWithAddress verifies a signature given the claimed public key bytes
// and checks that the key hashes to the expected address. This is the
// verification path used for blockchain transactions, where the sender
// includes its key material alongside the signature.
func VerifyWithAddress(addr Address, pubBytes, msg, sig []byte) error {
	pub, derived, err := ParsePublicKey(pubBytes)
	if err != nil {
		return err
	}
	if subtle.ConstantTimeCompare(derived[:], addr[:]) != 1 {
		return fmt.Errorf("cryptoutil: public key address %s does not match claimed %s",
			derived, addr)
	}
	if !Verify(pub, msg, sig) {
		return errors.New("cryptoutil: signature verification failed")
	}
	return nil
}

// Hash is a SHA-256 digest.
type Hash [32]byte

// String returns the 0x-prefixed hex form of the hash.
func (h Hash) String() string { return "0x" + hex.EncodeToString(h[:]) }

// Short returns an abbreviated form for logs.
func (h Hash) Short() string {
	s := hex.EncodeToString(h[:])
	return "0x" + s[:8]
}

// HashOf returns the SHA-256 digest of parts, each preceded by its
// length as 8 big-endian bytes, so that ("ab","c") and ("a","bc") hash
// differently. It does not allocate: the compiler sees through
// sha256.New to the concrete digest, which then lives on this stack
// beside the buffers it is fed from (TestHashOfDoesNotAllocate holds a
// toolchain to that).
func HashOf(parts ...[]byte) Hash {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	var out Hash
	h.Sum(out[:0])
	return out
}
