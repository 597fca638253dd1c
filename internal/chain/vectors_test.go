package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"repro/internal/cryptoutil"
)

// The encodings of Tx, Header and Receipt are consensus bytes:
// transaction and block hashes, receipt roots and every stored signature
// are computed over them. These tests do not trust the encoders to say
// what those bytes are. The ref* functions write the format from its
// description in codec.go with encoding/binary and time.MarshalBinary,
// not with the store helpers the encoders use, and the frozen vectors
// hold both to the bytes they first printed.

// refBytes appends p behind its uvarint length.
func refBytes(b, p []byte) []byte { return append(binary.AppendUvarint(b, uint64(len(p))), p...) }

func refTxSigningBytes(tx *Tx) []byte {
	b := binary.AppendUvarint([]byte{0x05}, tx.Nonce)
	b = append(b, tx.From[:]...)
	b = refBytes(b, tx.SenderKey)
	b = append(b, tx.Contract[:]...)
	b = refBytes(b, []byte(tx.Method))
	b = refBytes(b, tx.Args)
	b = binary.AppendUvarint(b, tx.GasLimit)
	return binary.AppendUvarint(b, tx.GasPrice)
}

func refHeaderSigningBytes(tb testing.TB, h *Header) []byte {
	when, err := h.Time.UTC().MarshalBinary()
	if err != nil || len(when) != 15 {
		tb.Fatalf("marshal %v: %d bytes, %v", h.Time, len(when), err)
	}
	b := binary.AppendUvarint([]byte{0x06}, h.Number)
	b = append(b, h.ParentHash[:]...)
	b = refBytes(b, when)
	b = append(b, h.Proposer[:]...)
	b = append(b, h.TxRoot[:]...)
	b = append(b, h.ReceiptRoot[:]...)
	return append(b, h.StateRoot[:]...)
}

func refReceiptDigest(r *Receipt) cryptoutil.Hash {
	b := append([]byte{0x07}, r.TxHash[:]...)
	b = binary.AppendUvarint(b, uint64(r.Status))
	b = binary.AppendUvarint(b, r.GasUsed)
	b = refBytes(b, []byte(r.Err))
	b = binary.AppendUvarint(b, r.BlockNumber)
	b = refBytes(b, r.Return)
	b = binary.AppendUvarint(b, uint64(len(r.Events)))
	for _, e := range r.Events {
		b = append(b, e.Contract[:]...)
		b = refBytes(b, []byte(e.Topic))
		b = refBytes(b, []byte(e.Key))
		b = refBytes(b, e.Data)
		b = binary.AppendUvarint(b, e.BlockNumber)
		b = append(b, e.TxHash[:]...)
		b = binary.AppendUvarint(b, uint64(e.Index))
	}
	return refHashOf(b)
}

// refHashOf is cryptoutil.HashOf as d71331e had it, minus the pool.
func refHashOf(parts ...[]byte) cryptoutil.Hash {
	var buf []byte
	for _, p := range parts {
		var n [8]byte
		for i, v := 7, uint64(len(p)); i >= 0; i, v = i-1, v>>8 {
			n[i] = byte(v)
		}
		buf = append(append(buf, n[:]...), p...)
	}
	return cryptoutil.Hash(sha256.Sum256(buf))
}

func vecAddr(seed byte) (a cryptoutil.Address) {
	for i := range a {
		a[i] = seed + byte(i)
	}
	return a
}

func vecHash(seed byte) (h cryptoutil.Hash) {
	for i := range h {
		h[i] = seed ^ byte(i*7)
	}
	return h
}

func vecTxs() []*Tx {
	return []*Tx{
		{
			Nonce: 7, From: vecAddr(0x10), SenderKey: []byte{4, 0xde, 0xad, 0xbe, 0xef}, Contract: vecAddr(0xc0),
			Method: "registerPod", Args: []byte(`{"ownerWebID":"https://alice.example/profile#me"}`),
			GasLimit: 200_000, GasPrice: 100, Signature: []byte{0x30, 0x45, 1, 2, 3},
		},
		{
			Nonce: math.MaxUint64, From: vecAddr(0xf0), Contract: vecAddr(0),
			Method: "a|b|ü", GasLimit: math.MaxUint64, GasPrice: math.MaxUint64,
		},
	}
}

func vecHeaders() []*Header {
	return []*Header{
		{
			Number: 42, ParentHash: vecHash(1), Time: time.Unix(1_696_809_600, 123_456_789).UTC(), Proposer: vecAddr(0x20),
			TxRoot: vecHash(2), ReceiptRoot: vecHash(3), StateRoot: vecHash(4), Signature: []byte{0x30, 0x44, 9, 8, 7},
		},
		{Number: math.MaxUint64}, // the zero time
	}
}

func vecReceipts() []*Receipt {
	set := Event{Contract: vecAddr(0xc0), Topic: "Set", Key: "k|1", Data: []byte("v;1"), BlockNumber: 9, TxHash: vecHash(5), Index: 0}
	incr := Event{Contract: vecAddr(0xc1), Topic: "Incr", BlockNumber: math.MaxUint64, Index: 3}
	return []*Receipt{
		{TxHash: vecHash(5), Status: StatusOK, GasUsed: 21_000, BlockNumber: 9},
		{TxHash: vecHash(6), Status: StatusOK, GasUsed: 48_312, BlockNumber: 9, Return: []byte(`{"seq":1}`), Events: []Event{set}},
		{TxHash: vecHash(7), Status: StatusOK, GasUsed: math.MaxUint64, BlockNumber: 10, Events: []Event{set, incr}},
		{TxHash: vecHash(8), Status: StatusReverted, GasUsed: 21_784, Err: "contract: reverted: pod|already registered", BlockNumber: 11},
	}
}

func TestFrozenTxEncoding(t *testing.T) {
	want := []struct{ signing, hash string }{
		{
			"0507101112131415161718191a1b1c1d1e1f202122230504deadbeefc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d30b7265676973746572506f64317b226f776e65725765624944223a2268747470733a2f2f616c6963652e6578616d706c652f70726f66696c65236d65227dc09a0c64",
			"0xd40abdff330a3dee218bfb7935462fb3f6ad82a9b33d1a1d1f2fb4f862739118",
		},
		{
			"05ffffffffffffffffff01f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff0001020300000102030405060708090a0b0c0d0e0f1011121306617c627cc3bc00ffffffffffffffffff01ffffffffffffffffff01",
			"0xa119e93836e47495aebe25936d9f0482aebc4cc71f6ff9c4a13c5dda71cbd9e8",
		},
	}
	for i, tx := range vecTxs() {
		if got := hex.EncodeToString(tx.SigningBytes()); got != want[i].signing {
			t.Errorf("tx %d signing bytes:\n got %s\nwant %s", i, got, want[i].signing)
		}
		if got := hex.EncodeToString(refTxSigningBytes(tx)); got != want[i].signing {
			t.Errorf("tx %d reference signing bytes:\n got %s\nwant %s", i, got, want[i].signing)
		}
		if got := tx.Hash().String(); got != want[i].hash {
			t.Errorf("tx %d hash: got %s, want %s", i, got, want[i].hash)
		}
		if got := refHashOf(refTxSigningBytes(tx), tx.Signature).String(); got != want[i].hash {
			t.Errorf("tx %d reference hash: got %s, want %s", i, got, want[i].hash)
		}
	}
}

func TestFrozenHeaderEncoding(t *testing.T) {
	want := []struct{ signing, hash string }{
		{
			"062a01060f141d222b30393e474c555a636871767f848d929ba0a9aeb7bcc5cad3d80f010000000edcb53980075bcd15ffff202122232425262728292a2b2c2d2e2f3031323302050c171e2128333a3d444f5659606b72757c878e9198a3aaadb4bfc6c9d0db03040d161f2029323b3c454e5758616a73747d868f9099a2abacb5bec7c8d1da04030a1118272e353c3b4249505f666d74737a8188979ea5acabb2b9c0cfd6dd",
			"0xa1fb88efde8576bf0e08021d048cb7aa9ff5170fb8763e284ecf64711fbd5054",
		},
		{
			"06ffffffffffffffffff0100000000000000000000000000000000000000000000000000000000000000000f01000000000000000000000000ffff0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
			"0x2c6f2271e9c25bd88ef8dbadaea9b7e9b999d41d4915adc1efb48ab069193ceb",
		},
	}
	for i, h := range vecHeaders() {
		if got := hex.EncodeToString(h.SigningBytes()); got != want[i].signing {
			t.Errorf("header %d signing bytes:\n got %s\nwant %s", i, got, want[i].signing)
		}
		if got := hex.EncodeToString(refHeaderSigningBytes(t, h)); got != want[i].signing {
			t.Errorf("header %d reference signing bytes:\n got %s\nwant %s", i, got, want[i].signing)
		}
		if got := h.Hash().String(); got != want[i].hash {
			t.Errorf("header %d hash: got %s, want %s", i, got, want[i].hash)
		}
		if got := refHashOf(refHeaderSigningBytes(t, h), h.Signature).String(); got != want[i].hash {
			t.Errorf("header %d reference hash: got %s, want %s", i, got, want[i].hash)
		}
		// The same instant in another zone is the same header.
		h.Time = h.Time.In(time.FixedZone("", 5*3600+45*60))
		if got := h.Hash().String(); got != want[i].hash {
			t.Errorf("header %d at UTC+5:45: hash %s, want %s", i, got, want[i].hash)
		}
	}
}

func TestFrozenReceiptDigest(t *testing.T) {
	want := []string{
		"0x1a57c500e06c8a7654e1c06410e1a1d847898ce1bb679a5a71831a8f6575629c",
		"0xefe3eaacb1690e623d9be8db1534b3361b1015c564d9d93397752c5e515026b4",
		"0x3cd16953e9cdc629e77300edd8e73d36a975685ed7cba17dedd68416333b6ade",
		"0x70cc5fad4e032415d8cd0fbbd91a8c0a6043da21b285fe194ac16d64aad73e9d",
	}
	receipts := vecReceipts()
	for i, r := range receipts {
		if got := r.Digest().String(); got != want[i] {
			t.Errorf("receipt %d (%d events, %s) digest: got %s, want %s", i, len(r.Events), r.Status, got, want[i])
		}
		if got := refReceiptDigest(r).String(); got != want[i] {
			t.Errorf("receipt %d reference digest: got %s, want %s", i, got, want[i])
		}
	}
	const wantRoot = "0xfbd0d965f8897a4589dbd14d7290da9491f9cd1cabb52c423a5565e4a09cc39a"
	if got := receiptRoot(nil, receipts).String(); got != wantRoot {
		t.Errorf("receipt root: got %s, want %s", got, wantRoot)
	}
}
