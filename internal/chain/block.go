package chain

import (
	"fmt"
	"time"

	"repro/internal/cryptoutil"
)

// Header carries the consensus-relevant fields of a block.
type Header struct {
	// Number is the block height; the genesis block is 0.
	Number uint64
	// ParentHash links to the previous block.
	ParentHash cryptoutil.Hash
	// Time is the proposer-declared block timestamp.
	Time time.Time
	// Proposer is the authority that produced the block.
	Proposer cryptoutil.Address
	// TxRoot commits to the block's transactions.
	TxRoot cryptoutil.Hash
	// ReceiptRoot commits to the execution outcomes.
	ReceiptRoot cryptoutil.Hash
	// StateRoot commits to the post-execution state.
	StateRoot cryptoutil.Hash
	// Signature is the proposer's signature over the header content.
	Signature []byte
}

// SigningBytes returns the bytes the proposer signature covers: the
// header's encoding (codec.go) up to its signature. The time is encoded as
// its UTC instant, so the bytes do not depend on the proposer's zone.
func (h *Header) SigningBytes() []byte {
	return appendHeaderBody(make([]byte, 0, headerSizeHint), h)
}

// Hash returns the block hash (header content plus signature).
func (h *Header) Hash() cryptoutil.Hash {
	return cryptoutil.HashOf(h.SigningBytes(), h.Signature)
}

// verifySeal checks that proposerKey is the key of h.Proposer and that
// h.Signature is its signature over SigningBytes. A node is offered the
// same sealed header more than once — every follower of an in-process
// cluster, a rebroadcast, a catch-up after a partition — so the signature
// goes through cryptoutil.VerifyCached (doc.go: "Signatures a block
// carries"); the key/address binding is cheap and checked every time.
func (h *Header) verifySeal(proposerKey []byte) error {
	pub, err := cryptoutil.ParsePublicKey(proposerKey)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadHeaderSig, err)
	}
	if cryptoutil.AddressOf(pub) != h.Proposer {
		return fmt.Errorf("%w: key does not belong to proposer %s", ErrBadHeaderSig, h.Proposer)
	}
	if !cryptoutil.VerifyCached(pub, h.SigningBytes(), h.Signature) {
		return fmt.Errorf("%w: signature verification failed", ErrBadHeaderSig)
	}
	return nil
}

// Block is a header plus its transactions and receipts.
type Block struct {
	Header   Header
	Txs      []*Tx
	Receipts []*Receipt
}

// Hash returns the block hash.
func (b *Block) Hash() cryptoutil.Hash { return b.Header.Hash() }

// GasUsed returns the total gas consumed by the block's transactions.
func (b *Block) GasUsed() uint64 {
	var total uint64
	for _, r := range b.Receipts {
		total += r.GasUsed
	}
	return total
}

// merkleRoot computes a binary Merkle root over the leaves. An empty leaf
// set hashes to the hash of the empty string, and odd levels promote the
// last node unchanged.
func merkleRoot(leaves []cryptoutil.Hash) cryptoutil.Hash {
	if len(leaves) == 0 {
		return cryptoutil.HashOf(nil)
	}
	level := make([]cryptoutil.Hash, len(leaves))
	copy(level, leaves)
	for len(level) > 1 {
		next := make([]cryptoutil.Hash, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			next = append(next, cryptoutil.HashOf(level[i][:], level[i+1][:]))
		}
		level = next
	}
	return level[0]
}

// txHashes computes every transaction's hash, parallel to txs. Tx.Hash
// encodes the transaction and runs SHA-256 over it every time it is
// called, so block production and validation call this once per block
// and thread the slice through txRoot, execution, and mempool removal
// instead of rehashing at each step. (The hash is deliberately not
// memoized on Tx: its fields are exported and mutable.)
func txHashes(txs []*Tx) []cryptoutil.Hash {
	hashes := make([]cryptoutil.Hash, len(txs))
	for i, tx := range txs {
		hashes[i] = tx.Hash()
	}
	return hashes
}

// txRoot commits to a transaction list, given its hashes in block order.
func txRoot(hashes []cryptoutil.Hash) cryptoutil.Hash {
	return merkleRoot(hashes)
}

// receiptRoot commits to a receipt list.
func receiptRoot(receipts []*Receipt) cryptoutil.Hash {
	leaves := make([]cryptoutil.Hash, len(receipts))
	for i, r := range receipts {
		leaves[i] = r.Digest()
	}
	return merkleRoot(leaves)
}
