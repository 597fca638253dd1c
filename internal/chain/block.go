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

// blockScratch is the memory one node builds a block's temporaries in:
// buf holds one encoding at a time (a transaction's for its hash, a
// receipt's for its digest, the WAL frame) and levels the Merkle levels.
// A node owns one, guarded by its sealMu (doc.go, "Buffers a node
// reuses"). Every function that takes a *blockScratch accepts nil, which
// builds in fresh buffers: what callers outside a node's seal path pass.
type blockScratch struct {
	buf    []byte
	levels []cryptoutil.Hash
	// next is each sender's next nonce within the block ApplyBlock
	// checks (checkNonceSequenceLocked). Nil, or one entry per sender
	// of a block of at most maxTxsPerBlock transactions.
	next map[cryptoutil.Address]uint64
}

// maxScratchBytes bounds what a blockScratch keeps between uses: a
// buffer that grew past it for one outsized block is dropped, not held
// until the next outsized block. It sits well above the largest WAL frame
// the benchmark workloads write (docs/experiments.md, "Block scratch per
// validator").
const maxScratchBytes = 4 << 20

// bytes returns an empty buffer with room for n bytes: s's own when it
// is large enough, a fresh one otherwise.
func (s *blockScratch) bytes(n int) []byte {
	if s == nil || cap(s.buf) < n {
		return make([]byte, 0, n)
	}
	return s.buf[:0]
}

// keep hands b, which the caller is done with, back to s for the next
// encoding when it is larger than s's own buffer, unless it grew past
// maxScratchBytes: then it is dropped, and s keeps what it had.
func (s *blockScratch) keep(b []byte) {
	if s != nil && cap(b) > cap(s.buf) && cap(b) <= maxScratchBytes {
		s.buf = b[:0]
	}
}

// hashes returns n hashes of unspecified content: s's own slice when it
// is large enough, a fresh one otherwise (kept while within
// maxScratchBytes).
func (s *blockScratch) hashes(n int) []cryptoutil.Hash {
	if s != nil && cap(s.levels) >= n {
		return s.levels[:n]
	}
	h := make([]cryptoutil.Hash, n)
	if s != nil && n*len(cryptoutil.Hash{}) <= maxScratchBytes {
		s.levels = h
	}
	return h
}

// merkleRoot computes a binary Merkle root over the leaves. An empty leaf
// set hashes to the hash of the empty string, and odd levels promote the
// last node unchanged. The levels are folded in place over a copy of the
// leaves in s's hash slice, so leaves is left as it was.
func merkleRoot(s *blockScratch, leaves []cryptoutil.Hash) cryptoutil.Hash {
	level := s.hashes(len(leaves))
	copy(level, leaves)
	return foldMerkle(level)
}

// foldMerkle reduces level to its Merkle root in place: pair i of a
// level is hashed into slot i, which no later pair of that level reads.
func foldMerkle(level []cryptoutil.Hash) cryptoutil.Hash {
	if len(level) == 0 {
		return cryptoutil.HashOf(nil)
	}
	for len(level) > 1 {
		next := level[:0]
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

// txHash returns a transaction's hash, encoding it in s's buffer.
func txHash(s *blockScratch, tx *Tx) cryptoutil.Hash {
	enc := appendTxBody(s.bytes(txSizeHint(tx)), tx)
	h := cryptoutil.HashOf(enc, tx.Signature)
	s.keep(enc)
	return h
}

// txHashes computes every transaction's hash, parallel to txs, encoding
// each in s's buffer. Hashing encodes the transaction and runs SHA-256
// over it, so block production and validation call this once per block
// and thread the slice through txRoot and execution instead of
// rehashing at each step. (The hash is deliberately not
// memoized on Tx: its fields are exported and mutable.) The slice itself
// is fresh: it outlives every other use of s in the block.
func txHashes(s *blockScratch, txs []*Tx) []cryptoutil.Hash {
	hashes := make([]cryptoutil.Hash, len(txs))
	for i, tx := range txs {
		hashes[i] = txHash(s, tx)
	}
	return hashes
}

// txRoot commits to a transaction list, given its hashes in block order.
func txRoot(s *blockScratch, hashes []cryptoutil.Hash) cryptoutil.Hash {
	return merkleRoot(s, hashes)
}

// receiptDigest returns the hash of a receipt's encoding, built in s's
// buffer.
func receiptDigest(s *blockScratch, r *Receipt) cryptoutil.Hash {
	enc := appendReceipt(s.bytes(receiptSizeHint(r)), r)
	d := cryptoutil.HashOf(enc)
	s.keep(enc)
	return d
}

// receiptRoot commits to a receipt list: the digests are the leaves,
// written straight into s's hash slice and folded there.
func receiptRoot(s *blockScratch, receipts []*Receipt) cryptoutil.Hash {
	leaves := s.hashes(len(receipts))
	for i, r := range receipts {
		leaves[i] = receiptDigest(s, r)
	}
	return foldMerkle(leaves)
}
