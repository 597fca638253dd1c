// Package tee simulates the Trusted Execution Environment of the
// architecture: a device with a measured trusted application, an
// attestation chain rooted in a manufacturer CA, sealed (AES-GCM
// encrypted) trusted data storage, local usage-policy enforcement with
// automatic obligation execution (expiry deletion, purpose gating, use
// revocation), per-use logging, and signed compliance evidence generation.
//
// What is simulated versus real: the isolation boundary (a hardware
// enclave) is replaced by Go encapsulation — the host can only reach the
// data through the policy-checked API — while the cryptography is real:
// data at rest is AES-GCM encrypted under a key derived from the device
// secret and the application measurement (mirroring SGX sealing), and
// evidence/attestation signatures are real ECDSA. The trust argument of
// the paper survives the substitution because every protocol-visible
// artifact (quotes, certificates, evidence signatures, sealed blobs) is
// produced and verified exactly as a hardware TEE deployment would.
//
// A sealed blob is nonce ‖ ciphertext ‖ tag in one buffer: Seal allocates
// it once, draws the nonce into its head and encrypts behind it, and
// Delete overwrites the whole buffer before dropping it.
package tee

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"
)

// SealedStore is the trusted data storage: a key-value store whose values
// are encrypted under a sealing key derived from (device secret,
// measurement). Reading back through a store with a different measurement
// or device secret fails, as with SGX sealing.
type SealedStore struct {
	aead cipher.AEAD

	mu      sync.Mutex
	entries map[string][]byte // ciphertext, nonce-prefixed
}

// Sealed-store errors.
var (
	ErrSealedNotFound = errors.New("tee: sealed entry not found")
	ErrUnsealFailed   = errors.New("tee: unseal failed (wrong device or measurement)")
)

// NewSealedStore derives the sealing key and returns an empty store.
func NewSealedStore(deviceSecret []byte, measurement [32]byte) (*SealedStore, error) {
	// KDF: sealingKey = SHA-256("seal" || deviceSecret || measurement).
	h := sha256.New()
	h.Write([]byte("seal|"))
	h.Write(deviceSecret)
	h.Write(measurement[:])
	key := h.Sum(nil)

	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("tee: sealing cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("tee: sealing AEAD: %w", err)
	}
	return &SealedStore{aead: aead, entries: make(map[string][]byte)}, nil
}

// Seal encrypts and stores value under name.
func (s *SealedStore) Seal(name string, value []byte) error {
	// One buffer holds the blob, nonce ‖ ciphertext ‖ tag: the nonce is
	// drawn into its head and Seal appends behind it.
	ns := s.aead.NonceSize()
	blob := make([]byte, ns, ns+len(value)+s.aead.Overhead())
	if _, err := io.ReadFull(rand.Reader, blob); err != nil {
		return fmt.Errorf("tee: nonce: %w", err)
	}
	// Bind the ciphertext to its name so sealed blobs cannot be swapped
	// between entries by the (untrusted) host.
	blob = s.aead.Seal(blob, blob[:ns], value, []byte(name))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[name] = blob
	return nil
}

// Unseal decrypts the entry stored under name.
func (s *SealedStore) Unseal(name string) ([]byte, error) {
	s.mu.Lock()
	blob, ok := s.entries[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrSealedNotFound, name)
	}
	return s.unsealBlob(name, blob)
}

func (s *SealedStore) unsealBlob(name string, blob []byte) ([]byte, error) {
	ns := s.aead.NonceSize()
	if len(blob) < ns {
		return nil, ErrUnsealFailed
	}
	pt, err := s.aead.Open(nil, blob[:ns], blob[ns:], []byte(name))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnsealFailed, err)
	}
	return pt, nil
}

// Delete erases an entry, overwriting the ciphertext first.
func (s *SealedStore) Delete(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, ok := s.entries[name]
	if !ok {
		return false
	}
	for i := range blob {
		blob[i] = 0
	}
	delete(s.entries, name)
	return true
}

// Len reports the number of sealed entries.
func (s *SealedStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
