package chain

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cryptoutil"
)

// The canonical encodings of Tx, Header and Receipt are consensus
// bytes: transaction and block hashes, receipt roots and every stored
// signature are computed over them. These tests do not trust the
// encoders to say what those bytes are. The frozen vectors were printed
// by the fmt-based encoders of commit d71331e (the last to have them);
// the ref* functions are those encoders, kept here only.

func refTxSigningBytes(tx *Tx) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "tx|%d|%s|%x|%s|%s|%x|%d|%d",
		tx.Nonce, tx.From, tx.SenderKey, tx.Contract, tx.Method, tx.Args, tx.GasLimit, tx.GasPrice)
	return []byte(b.String())
}

func refHeaderSigningBytes(h *Header) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "header|%d|%s|%d|%s|%s|%s|%s",
		h.Number, h.ParentHash, h.Time.UnixNano(), h.Proposer, h.TxRoot, h.ReceiptRoot, h.StateRoot)
	return []byte(b.String())
}

func refReceiptDigest(r *Receipt) cryptoutil.Hash {
	var b strings.Builder
	fmt.Fprintf(&b, "receipt|%s|%d|%d|%s|%d|%x|", r.TxHash, r.Status, r.GasUsed, r.Err, r.BlockNumber, r.Return)
	for _, e := range r.Events {
		fmt.Fprintf(&b, "%s;", fmt.Sprintf("%s|%s|%s|%x|%d|%d", e.Contract, e.Topic, e.Key, e.Data, e.BlockNumber, e.Index))
	}
	return refHashOf([]byte(b.String()))
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
		{Number: math.MaxUint64}, // the zero time's UnixNano is negative
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
			"tx|7|0x101112131415161718191a1b1c1d1e1f20212223|04deadbeef|0xc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3|registerPod|7b226f776e65725765624944223a2268747470733a2f2f616c6963652e6578616d706c652f70726f66696c65236d65227d|200000|100",
			"0x9e71214432bd0ae717fb80d73580a7f8be89490b4ea7d4eaf974643cb68f331b",
		},
		{
			"tx|18446744073709551615|0xf0f1f2f3f4f5f6f7f8f9fafbfcfdfeff00010203||0x000102030405060708090a0b0c0d0e0f10111213|a|b|ü||18446744073709551615|18446744073709551615",
			"0x45cdf201d7ce792fcfb804c305b4194786806d1145e26ef0feb396a82e4ad76d",
		},
	}
	for i, tx := range vecTxs() {
		if got := string(tx.SigningBytes()); got != want[i].signing {
			t.Errorf("tx %d signing bytes:\n got %q\nwant %q", i, got, want[i].signing)
		}
		if got := tx.Hash().String(); got != want[i].hash {
			t.Errorf("tx %d hash: got %s, want %s", i, got, want[i].hash)
		}
	}
}

func TestFrozenHeaderEncoding(t *testing.T) {
	want := []struct{ signing, hash string }{
		{
			"header|42|0x01060f141d222b30393e474c555a636871767f848d929ba0a9aeb7bcc5cad3d8|1696809600123456789|0x202122232425262728292a2b2c2d2e2f30313233|0x02050c171e2128333a3d444f5659606b72757c878e9198a3aaadb4bfc6c9d0db|0x03040d161f2029323b3c454e5758616a73747d868f9099a2abacb5bec7c8d1da|0x04030a1118272e353c3b4249505f666d74737a8188979ea5acabb2b9c0cfd6dd",
			"0x99737b222670d6bf2bc52d50bdf8acf4c3a79bd08c87c4b4049aa680268fa10e",
		},
		{
			"header|18446744073709551615|0x0000000000000000000000000000000000000000000000000000000000000000|-6795364578871345152|0x0000000000000000000000000000000000000000|0x0000000000000000000000000000000000000000000000000000000000000000|0x0000000000000000000000000000000000000000000000000000000000000000|0x0000000000000000000000000000000000000000000000000000000000000000",
			"0x2f7985373ddf6bf9da682f43977ba5b6116a7e1a8e229a566eaaff37716f8a04",
		},
	}
	for i, h := range vecHeaders() {
		if got := string(h.SigningBytes()); got != want[i].signing {
			t.Errorf("header %d signing bytes:\n got %q\nwant %q", i, got, want[i].signing)
		}
		if got := h.Hash().String(); got != want[i].hash {
			t.Errorf("header %d hash: got %s, want %s", i, got, want[i].hash)
		}
	}
}

func TestFrozenReceiptDigest(t *testing.T) {
	want := []string{
		"0x49fcbb57b76f439a72baa4a88d284b805a552d06aca882315c37385d62ac741c",
		"0xa31cb588c17bc78b6c404d74f3d9b6d3ab04a2cb3a15df2ae9b1bfbd1d124e0b",
		"0x79a7651099625f2da48638ac12114ffdc626c422d3c385b723b70c39c19dd451",
		"0xd88d091dbe200b164a4beb10c2f3c58913140d5897e5a292891ab9b8d04096c4",
	}
	receipts := vecReceipts()
	for i, r := range receipts {
		if got := r.Digest().String(); got != want[i] {
			t.Errorf("receipt %d (%d events, %s) digest: got %s, want %s", i, len(r.Events), r.Status, got, want[i])
		}
	}
	const wantRoot = "0x50f31b3ad3a0f3779d5f49b34cbf698ecbcba9b38e7d60805f35ce7e8e8bfa1a"
	if got := receiptRoot(receipts).String(); got != wantRoot {
		t.Errorf("receipt root: got %s, want %s", got, wantRoot)
	}
}
