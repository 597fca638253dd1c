package cryptoutil

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
)

// Envelope encryption for on-chain metadata. Section V-1 of the paper
// notes that public ledgers expose usage policies and resource locations
// to every node, and that encryption-based approaches remedy this for
// confidentiality-sensitive deployments. EncryptEnvelope/DecryptEnvelope
// implement that remedy: AES-256-GCM under a key shared out of band with
// authorized parties.

// EnvelopeOverhead is the ciphertext expansion in bytes (nonce + GCM tag).
const EnvelopeOverhead = 12 + 16

// DeriveEnvelopeKey derives a 32-byte envelope key from a shared secret
// and a context label (domain separation).
func DeriveEnvelopeKey(secret []byte, label string) []byte {
	h := sha256.New()
	h.Write([]byte("envelope|" + label + "|"))
	h.Write(secret)
	return h.Sum(nil)
}

// EncryptEnvelope encrypts plaintext under a 32-byte key, returning
// nonce||ciphertext.
func EncryptEnvelope(key, plaintext []byte) ([]byte, error) {
	aead, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, aead.NonceSize())
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("cryptoutil: nonce: %w", err)
	}
	return append(nonce, aead.Seal(nil, nonce, plaintext, nil)...), nil
}

// ErrEnvelope is returned for undecryptable envelopes.
var ErrEnvelope = errors.New("cryptoutil: envelope decryption failed")

// DecryptEnvelope reverses EncryptEnvelope.
func DecryptEnvelope(key, blob []byte) ([]byte, error) {
	aead, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	ns := aead.NonceSize()
	if len(blob) < ns {
		return nil, ErrEnvelope
	}
	pt, err := aead.Open(nil, blob[:ns], blob[ns:], nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEnvelope, err)
	}
	return pt, nil
}

func newGCM(key []byte) (cipher.AEAD, error) {
	if len(key) != 32 {
		return nil, fmt.Errorf("cryptoutil: envelope key must be 32 bytes, got %d", len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}
