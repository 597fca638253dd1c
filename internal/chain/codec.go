package chain

import (
	"bytes"
	"fmt"
	"sort"
	"time"

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
const (
	// tagChainMeta opens a chain-identity (meta) WAL record.
	tagChainMeta byte = 0x01
	// tagChainBlock opens a committed-block WAL record.
	tagChainBlock byte = 0x02
	// tagChainSnapshot opens a state snapshot payload.
	tagChainSnapshot byte = 0x03
)

// encodeWALMeta encodes the chain-identity record.
func encodeWALMeta(m *walMeta) ([]byte, error) {
	dst := []byte{tagChainMeta}
	dst, err := store.AppendTime(dst, m.GenesisTime)
	if err != nil {
		return nil, err
	}
	dst = store.AppendUvarint(dst, uint64(len(m.Authorities)))
	for _, a := range m.Authorities {
		dst = append(dst, a[:]...)
	}
	return dst, nil
}

// encodeWALBlock encodes a committed block plus its net state diff as a
// frame for store.WAL.AppendFrame: the record starts at
// store.RecordHeaderSize, behind the space the log fills in, so the
// largest record the chain writes is built once and never copied.
func encodeWALBlock(b *walBlock) ([]byte, error) {
	dst := make([]byte, store.RecordHeaderSize, store.RecordHeaderSize+blockRecordSizeHint(b))
	dst = append(dst, tagChainBlock)
	dst, err := appendHeader(dst, &b.Header)
	if err != nil {
		return nil, err
	}
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
	return dst, nil
}

// blockRecordSizeHint estimates the encoded size so the hot commit path
// allocates the record buffer once.
func blockRecordSizeHint(b *walBlock) int {
	n := 256
	for _, tx := range b.Txs {
		n += 128 + len(tx.SenderKey) + len(tx.Method) + len(tx.Args) + len(tx.Signature)
	}
	for _, r := range b.Receipts {
		n += 96 + len(r.Err) + len(r.Return)
		for i := range r.Events {
			ev := &r.Events[i]
			n += 80 + len(ev.Topic) + len(ev.Key) + len(ev.Data)
		}
	}
	for i := range b.Diff {
		n += 16 + len(b.Diff[i].K) + len(b.Diff[i].V)
	}
	return n
}

// decodeWALRecord decodes a WAL record payload. A record has one spelling:
// store.Dec.Time also accepts timestamps store.AppendTime never writes —
// nanoseconds that reach a second, the 16-byte form of a whole-minute
// zone — so the parts that hold one, a meta record and a block header,
// must hold a normal time (canonicalTime) and encode back to exactly the
// bytes read.
func decodeWALRecord(payload []byte) (*walRecord, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("chain: empty record")
	}
	d := store.NewDec(payload[1:])
	switch payload[0] {
	case tagChainMeta:
		m := &walMeta{GenesisTime: d.Time()}
		count := d.Count("authorities", uint64(len(payload)/cryptoutil.AddressLen)+1)
		for range count {
			var a cryptoutil.Address
			d.Raw(a[:])
			m.Authorities = append(m.Authorities, a)
		}
		if err := d.Finish(); err != nil {
			return nil, err
		}
		if again, err := encodeWALMeta(m); err != nil || !bytes.Equal(again, payload) || !canonicalTime(m.GenesisTime) {
			return nil, fmt.Errorf("chain: meta record not in canonical form")
		}
		return &walRecord{Meta: m}, nil
	case tagChainBlock:
		b := &walBlock{}
		decodeHeader(d, &b.Header)
		headerEnd := len(payload) - d.Remaining()
		b.Txs = decodeTxs(d, len(payload))
		b.Receipts = decodeReceipts(d, len(payload))
		b.Diff = decodeDeltas(d, len(payload))
		if err := d.Finish(); err != nil {
			return nil, err
		}
		if again, err := appendHeader([]byte{tagChainBlock}, &b.Header); err != nil || !bytes.Equal(again, payload[:headerEnd]) || !canonicalTime(b.Header.Time) {
			return nil, fmt.Errorf("chain: block header not in canonical form")
		}
		return &walRecord{Block: b}, nil
	default:
		return nil, fmt.Errorf("chain: unknown record tag 0x%02x", payload[0])
	}
}

// canonicalTime reports whether t's nanoseconds lie within their second,
// as in every time.Time the encoders are handed. store.Dec.Time decodes
// larger ones too, and AppendTime writes them back as read: a second
// spelling of a later instant.
func canonicalTime(t time.Time) bool { return t.Nanosecond() < 1e9 }

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
	snap.State = make(map[string][]byte, min(count, store.DecodeCapHint))
	for range count {
		k := d.String()
		snap.State[k] = d.Bytes()
		if d.Err() != nil {
			break
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return snap, nil
}

func appendHeader(dst []byte, h *Header) ([]byte, error) {
	dst = store.AppendUvarint(dst, h.Number)
	dst = append(dst, h.ParentHash[:]...)
	dst, err := store.AppendTime(dst, h.Time)
	if err != nil {
		return nil, err
	}
	dst = append(dst, h.Proposer[:]...)
	dst = append(dst, h.TxRoot[:]...)
	dst = append(dst, h.ReceiptRoot[:]...)
	dst = append(dst, h.StateRoot[:]...)
	dst = store.AppendBytes(dst, h.Signature)
	return dst, nil
}

func decodeHeader(d *store.Dec, h *Header) {
	h.Number = d.Uvarint()
	d.Raw(h.ParentHash[:])
	h.Time = d.Time()
	d.Raw(h.Proposer[:])
	d.Raw(h.TxRoot[:])
	d.Raw(h.ReceiptRoot[:])
	d.Raw(h.StateRoot[:])
	h.Signature = d.Bytes()
}

func appendTx(dst []byte, tx *Tx) []byte {
	dst = store.AppendUvarint(dst, tx.Nonce)
	dst = append(dst, tx.From[:]...)
	dst = store.AppendBytes(dst, tx.SenderKey)
	dst = append(dst, tx.Contract[:]...)
	dst = store.AppendString(dst, tx.Method)
	dst = store.AppendBytes(dst, tx.Args)
	dst = store.AppendUvarint(dst, tx.GasLimit)
	dst = store.AppendUvarint(dst, tx.GasPrice)
	dst = store.AppendBytes(dst, tx.Signature)
	return dst
}

func decodeTxs(d *store.Dec, bound int) []*Tx {
	count := d.Count("txs", uint64(bound))
	if d.Err() != nil || count == 0 {
		return nil
	}
	txs := make([]*Tx, 0, min(count, store.DecodeCapHint))
	for range count {
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

func appendReceipt(dst []byte, r *Receipt) []byte {
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
