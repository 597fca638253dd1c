package chain

import (
	"fmt"
	"sort"

	"repro/internal/cryptoutil"
	"repro/internal/store"
)

// Binary codec for the chain's durable records (WAL entries and state
// snapshots). The format is a tagged, length-prefixed encoding built on
// the store package's primitives: varint integers, raw byte strings (no
// base64 inflation), and fixed-width hashes/addresses with no per-field
// framing. Encoding is deterministic (snapshot keys are sorted; all
// other fields have a fixed order), so identical logical records always
// produce identical bytes. It is the only record format: a payload that
// opens with any other byte than these tags fails decoding.
//
// It is also the only byte form of a transaction, a header and a
// receipt. Each opens with its own tag; a transaction's and a header's
// encoding up to the signature is what the signature covers and, with the
// signature, what the hash commits to (SigningBytes, Hash), and a
// receipt's encoding is what its digest commits to. So a block record
// holds every signed object in exactly the bytes that were signed.
const (
	// tagChainBlock opens a committed-block WAL record.
	tagChainBlock byte = 0x02
	// tagChainSnapshot opens a state snapshot payload.
	tagChainSnapshot byte = 0x03
	// tagChainMeta opens a chain-identity (meta) WAL record.
	tagChainMeta byte = 0x04
	// tagTx opens a transaction.
	tagTx byte = 0x05
	// tagHeader opens a block header.
	tagHeader byte = 0x06
	// tagReceipt opens a receipt.
	tagReceipt byte = 0x07
)

// encodeWALMeta encodes the chain-identity record.
func encodeWALMeta(m *walMeta) []byte {
	dst := store.AppendUTC([]byte{tagChainMeta}, m.GenesisTime)
	dst = store.AppendUvarint(dst, uint64(len(m.Authorities)))
	for _, a := range m.Authorities {
		dst = append(dst, a[:]...)
	}
	return dst
}

// encodeWALBlock encodes a committed block plus its net state diff as a
// frame for store.WAL.AppendFrame, in s's buffer: the record starts at
// store.RecordHeaderSize, behind zeroed space the log fills in, so the
// largest record the chain writes is built once and never copied. The
// caller hands the frame back with s.keep once the append returns.
func encodeWALBlock(s *blockScratch, b *walBlock) []byte {
	var hdr [store.RecordHeaderSize]byte
	dst := append(s.bytes(store.RecordHeaderSize+blockRecordSizeHint(b)), hdr[:]...)
	dst = append(dst, tagChainBlock)
	dst = appendHeader(dst, &b.Header)
	dst = store.AppendUvarint(dst, uint64(len(b.Txs)))
	for _, tx := range b.Txs {
		dst = appendTx(dst, tx)
	}
	dst = store.AppendUvarint(dst, uint64(len(b.Receipts)))
	for _, r := range b.Receipts {
		dst = appendReceipt(dst, r)
	}
	dst = store.AppendUvarint(dst, uint64(len(b.Diff)))
	for i := range b.Diff {
		dst = appendDelta(dst, &b.Diff[i])
	}
	return dst
}

// headerSizeHint bounds a header's encoding without its signature: the
// tag, a 10-byte uvarint, the 16-byte time, the proposer and four hashes.
const headerSizeHint = 1 + 10 + 16 + 20 + 4*32

// txSizeHint estimates a transaction's encoding, so SigningBytes, Hash
// and the block record allocate their buffer once.
func txSizeHint(tx *Tx) int {
	return 128 + len(tx.SenderKey) + len(tx.Method) + len(tx.Args) + len(tx.Signature)
}

// receiptSizeHint estimates a receipt's encoding, so Digest and the
// block record allocate their buffer once.
func receiptSizeHint(r *Receipt) int {
	n := 96 + len(r.Err) + len(r.Return)
	for i := range r.Events {
		ev := &r.Events[i]
		n += 80 + len(ev.Topic) + len(ev.Key) + len(ev.Data)
	}
	return n
}

// blockRecordSizeHint estimates the encoded size so the hot commit path
// allocates the record buffer once.
func blockRecordSizeHint(b *walBlock) int {
	n := 256
	for _, tx := range b.Txs {
		n += txSizeHint(tx)
	}
	for _, r := range b.Receipts {
		n += receiptSizeHint(r)
	}
	for i := range b.Diff {
		n += 16 + len(b.Diff[i].K) + len(b.Diff[i].V)
	}
	return n
}

// decodeWALRecord decodes a WAL record payload. A record has one spelling:
// every primitive the decoders read has one (store.Dec.UTC refuses every
// other spelling of a time), so a record it accepts encodes back to the
// bytes it was read from.
func decodeWALRecord(payload []byte) (*walRecord, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("chain: empty record")
	}
	d := store.NewDec(payload[1:])
	switch payload[0] {
	case tagChainMeta:
		m := &walMeta{GenesisTime: d.UTC()}
		count := d.Count("authorities", uint64(len(payload)/cryptoutil.AddressLen)+1)
		for range count {
			var a cryptoutil.Address
			d.Raw(a[:])
			m.Authorities = append(m.Authorities, a)
		}
		if err := d.Finish(); err != nil {
			return nil, err
		}
		return &walRecord{Meta: m}, nil
	case tagChainBlock:
		b := &walBlock{}
		decodeHeader(d, &b.Header)
		b.Txs = decodeTxs(d, len(payload))
		b.Receipts = decodeReceipts(d, len(payload))
		b.Diff = decodeDeltas(d, len(payload))
		if err := d.Finish(); err != nil {
			return nil, err
		}
		return &walRecord{Block: b}, nil
	default:
		return nil, fmt.Errorf("chain: unknown record tag 0x%02x", payload[0])
	}
}

// appendChainSnapshot appends the deterministic encoding of a state
// snapshot (keys sorted) to dst and returns the extended slice. The
// snapshot writer passes its previous buffer truncated to zero, so a
// full-state payload is allocated once per node and not per snapshot.
func appendChainSnapshot(dst []byte, height uint64, state map[string][]byte) []byte {
	keys := make([]string, 0, len(state))
	for k := range state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = append(dst, tagChainSnapshot)
	dst = store.AppendUvarint(dst, height)
	dst = store.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = store.AppendString(dst, k)
		dst = store.AppendBytes(dst, state[k])
	}
	return dst
}

// decodeChainSnapshot decodes a snapshot payload.
func decodeChainSnapshot(payload []byte) (*chainSnapshot, error) {
	if len(payload) == 0 || payload[0] != tagChainSnapshot {
		return nil, fmt.Errorf("chain: not a snapshot payload")
	}
	d := store.NewDec(payload[1:])
	snap := &chainSnapshot{Height: d.Uvarint()}
	count := d.Count("snapshot keys", uint64(len(payload)))
	snap.State = make([]Delta, 0, min(count, store.DecodeCapHint))
	for range count {
		snap.State = append(snap.State, Delta{K: d.String(), V: d.Bytes()})
		if d.Err() != nil {
			break
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return snap, nil
}

// appendHeaderBody appends a header's encoding up to its signature: what
// the proposer signs.
func appendHeaderBody(dst []byte, h *Header) []byte {
	dst = append(dst, tagHeader)
	dst = store.AppendUvarint(dst, h.Number)
	dst = append(dst, h.ParentHash[:]...)
	dst = store.AppendUTC(dst, h.Time)
	dst = append(dst, h.Proposer[:]...)
	dst = append(dst, h.TxRoot[:]...)
	dst = append(dst, h.ReceiptRoot[:]...)
	return append(dst, h.StateRoot[:]...)
}

func appendHeader(dst []byte, h *Header) []byte {
	return store.AppendBytes(appendHeaderBody(dst, h), h.Signature)
}

func decodeHeader(d *store.Dec, h *Header) {
	d.Tag(tagHeader)
	h.Number = d.Uvarint()
	d.Raw(h.ParentHash[:])
	h.Time = d.UTC()
	d.Raw(h.Proposer[:])
	d.Raw(h.TxRoot[:])
	d.Raw(h.ReceiptRoot[:])
	d.Raw(h.StateRoot[:])
	h.Signature = d.Bytes()
}

// appendTxBody appends a transaction's encoding up to its signature: what
// the sender signs.
func appendTxBody(dst []byte, tx *Tx) []byte {
	dst = append(dst, tagTx)
	dst = store.AppendUvarint(dst, tx.Nonce)
	dst = append(dst, tx.From[:]...)
	dst = store.AppendBytes(dst, tx.SenderKey)
	dst = append(dst, tx.Contract[:]...)
	dst = store.AppendString(dst, tx.Method)
	dst = store.AppendBytes(dst, tx.Args)
	dst = store.AppendUvarint(dst, tx.GasLimit)
	return store.AppendUvarint(dst, tx.GasPrice)
}

func appendTx(dst []byte, tx *Tx) []byte {
	return store.AppendBytes(appendTxBody(dst, tx), tx.Signature)
}

func decodeTxs(d *store.Dec, bound int) []*Tx {
	count := d.Count("txs", uint64(bound))
	if d.Err() != nil || count == 0 {
		return nil
	}
	txs := make([]*Tx, 0, min(count, store.DecodeCapHint))
	for range count {
		d.Tag(tagTx)
		tx := &Tx{Nonce: d.Uvarint()}
		d.Raw(tx.From[:])
		tx.SenderKey = d.Bytes()
		d.Raw(tx.Contract[:])
		tx.Method = d.String()
		tx.Args = d.Bytes()
		tx.GasLimit = d.Uvarint()
		tx.GasPrice = d.Uvarint()
		tx.Signature = d.Bytes()
		if d.Err() != nil {
			return nil
		}
		txs = append(txs, tx)
	}
	return txs
}

// appendReceipt appends a receipt's encoding: what its digest commits to.
func appendReceipt(dst []byte, r *Receipt) []byte {
	dst = append(dst, tagReceipt)
	dst = append(dst, r.TxHash[:]...)
	dst = store.AppendUvarint(dst, uint64(r.Status))
	dst = store.AppendUvarint(dst, r.GasUsed)
	dst = store.AppendString(dst, r.Err)
	dst = store.AppendUvarint(dst, r.BlockNumber)
	dst = store.AppendBytes(dst, r.Return)
	dst = store.AppendUvarint(dst, uint64(len(r.Events)))
	for i := range r.Events {
		dst = appendEvent(dst, &r.Events[i])
	}
	return dst
}

func decodeReceipts(d *store.Dec, bound int) []*Receipt {
	count := d.Count("receipts", uint64(bound))
	if d.Err() != nil || count == 0 {
		return nil
	}
	receipts := make([]*Receipt, 0, min(count, store.DecodeCapHint))
	for range count {
		d.Tag(tagReceipt)
		r := &Receipt{}
		d.Raw(r.TxHash[:])
		r.Status = Status(d.Uvarint())
		r.GasUsed = d.Uvarint()
		r.Err = d.String()
		r.BlockNumber = d.Uvarint()
		r.Return = d.Bytes()
		evCount := d.Count("events", uint64(bound))
		if d.Err() != nil {
			return nil
		}
		for range evCount {
			ev := decodeEvent(d)
			if d.Err() != nil {
				return nil
			}
			r.Events = append(r.Events, ev)
		}
		receipts = append(receipts, r)
	}
	return receipts
}

func appendEvent(dst []byte, ev *Event) []byte {
	dst = append(dst, ev.Contract[:]...)
	dst = store.AppendString(dst, ev.Topic)
	dst = store.AppendString(dst, ev.Key)
	dst = store.AppendBytes(dst, ev.Data)
	dst = store.AppendUvarint(dst, ev.BlockNumber)
	dst = append(dst, ev.TxHash[:]...)
	dst = store.AppendUvarint(dst, uint64(ev.Index))
	return dst
}

func decodeEvent(d *store.Dec) Event {
	var ev Event
	d.Raw(ev.Contract[:])
	ev.Topic = d.String()
	ev.Key = d.String()
	ev.Data = d.Bytes()
	ev.BlockNumber = d.Uvarint()
	d.Raw(ev.TxHash[:])
	ev.Index = int(d.Uvarint())
	return ev
}

func appendDelta(dst []byte, del *Delta) []byte {
	dst = store.AppendString(dst, del.K)
	dst = store.AppendBool(dst, del.Del)
	if !del.Del {
		dst = store.AppendBytes(dst, del.V)
	}
	return dst
}

func decodeDeltas(d *store.Dec, bound int) []Delta {
	count := d.Count("deltas", uint64(bound))
	if d.Err() != nil || count == 0 {
		return nil
	}
	diff := make([]Delta, 0, min(count, store.DecodeCapHint))
	for range count {
		del := Delta{K: d.String(), Del: d.Bool()}
		if !del.Del {
			del.V = d.Bytes()
		}
		if d.Err() != nil {
			return nil
		}
		diff = append(diff, del)
	}
	return diff
}
