package chain

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/store"
)

// randomWALBlock builds a fully populated block record with r-driven
// content, exercising every field of the schema including empty and
// binary-heavy values.
func randomWALBlock(r *rand.Rand) *walBlock {
	randHash := func() (h cryptoutil.Hash) {
		r.Read(h[:])
		return
	}
	randAddr := func() (a cryptoutil.Address) {
		r.Read(a[:])
		return
	}
	randBytes := func(n int) []byte {
		b := make([]byte, r.Intn(n+1))
		if len(b) == 0 {
			return nil // matches the decoder's nil-for-empty convention
		}
		r.Read(b)
		return b
	}
	b := &walBlock{Header: Header{
		Number:      r.Uint64(),
		ParentHash:  randHash(),
		Time:        time.Unix(r.Int63n(1<<33), r.Int63n(1e9)).UTC(),
		Proposer:    randAddr(),
		TxRoot:      randHash(),
		ReceiptRoot: randHash(),
		StateRoot:   randHash(),
		Signature:   randBytes(80),
	}}
	for range r.Intn(4) {
		b.Txs = append(b.Txs, &Tx{
			Nonce:     r.Uint64(),
			From:      randAddr(),
			SenderKey: randBytes(65),
			Contract:  randAddr(),
			Method:    "method\x00with bytes",
			Args:      randBytes(200),
			GasLimit:  r.Uint64(),
			Signature: randBytes(72),
		})
	}
	for range len(b.Txs) {
		rec := &Receipt{
			TxHash:      randHash(),
			Status:      Status(1 + r.Intn(2)),
			GasUsed:     r.Uint64(),
			Err:         "",
			BlockNumber: b.Header.Number,
			Return:      randBytes(64),
		}
		if rec.Status == StatusReverted {
			rec.Err = "some revert reason"
		}
		for range r.Intn(3) {
			rec.Events = append(rec.Events, Event{
				Contract:    randAddr(),
				Topic:       "Topic",
				Key:         "key/π",
				Data:        randBytes(128),
				BlockNumber: b.Header.Number,
				TxHash:      rec.TxHash,
				Index:       r.Intn(10),
			})
		}
		b.Receipts = append(b.Receipts, rec)
	}
	for i := range r.Intn(6) {
		d := Delta{K: string(rune('a'+i)) + "/key"}
		if r.Intn(3) == 0 {
			d.Del = true
		} else {
			d.V = randBytes(256)
		}
		b.Diff = append(b.Diff, d)
	}
	return b
}

// blockPayload is the record inside encodeWALBlock's frame.
func blockPayload(b *walBlock) []byte { return encodeWALBlock(nil, b)[store.RecordHeaderSize:] }

// TestCodecBlockRecordRoundTrip: binary block records decode back to
// deep-equal structures across randomized content, and the encoding is
// deterministic.
func TestCodecBlockRecordRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := range 50 {
		want := randomWALBlock(r)
		payload := blockPayload(want)
		if again := blockPayload(want); !bytes.Equal(payload, again) {
			t.Fatalf("iteration %d: encoding is not deterministic", i)
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if rec.Block == nil {
			t.Fatalf("iteration %d: decoded as non-block", i)
		}
		requireWALBlockEqual(t, rec.Block, want)
	}
}

// requireWALBlockEqual compares decoded and original block records
// (time fields by instant; everything else deeply).
func requireWALBlockEqual(t *testing.T, got, want *walBlock) {
	t.Helper()
	if !got.Header.Time.Equal(want.Header.Time) {
		t.Fatalf("header time = %v, want %v", got.Header.Time, want.Header.Time)
	}
	gh, wh := got.Header, want.Header
	gh.Time, wh.Time = time.Time{}, time.Time{}
	if !reflect.DeepEqual(gh, wh) {
		t.Fatalf("header = %+v, want %+v", gh, wh)
	}
	if got.Header.Hash() != want.Header.Hash() {
		t.Fatal("header hash changed across the round trip")
	}
	if len(got.Txs) != len(want.Txs) {
		t.Fatalf("%d txs, want %d", len(got.Txs), len(want.Txs))
	}
	for i := range want.Txs {
		if !reflect.DeepEqual(got.Txs[i], want.Txs[i]) {
			t.Fatalf("tx %d = %+v, want %+v", i, got.Txs[i], want.Txs[i])
		}
	}
	if len(got.Receipts) != len(want.Receipts) {
		t.Fatalf("%d receipts, want %d", len(got.Receipts), len(want.Receipts))
	}
	for i := range want.Receipts {
		if got.Receipts[i].Digest() != want.Receipts[i].Digest() {
			t.Fatalf("receipt %d digest differs", i)
		}
	}
	if !reflect.DeepEqual(got.Diff, want.Diff) {
		t.Fatalf("diff = %+v, want %+v", got.Diff, want.Diff)
	}
}

// TestCodecMetaRoundTrip: the chain-identity record survives, zero
// genesis time included.
func TestCodecMetaRoundTrip(t *testing.T) {
	for _, genesis := range []time.Time{chainEpoch, {}} {
		want := &walMeta{
			GenesisTime: genesis,
			Authorities: []cryptoutil.Address{testContractAddr(), {}},
		}
		rec, err := decodeWALRecord(encodeWALMeta(want))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Meta == nil {
			t.Fatal("decoded as non-meta")
		}
		if !rec.Meta.GenesisTime.Equal(want.GenesisTime) {
			t.Fatalf("genesis = %v, want %v", rec.Meta.GenesisTime, want.GenesisTime)
		}
		if !reflect.DeepEqual(rec.Meta.Authorities, want.Authorities) {
			t.Fatalf("authorities = %v", rec.Meta.Authorities)
		}
	}
}

// TestCodecSnapshotRoundTrip: binary snapshots round-trip (empty values
// and binary keys included) and encode deterministically.
func TestCodecSnapshotRoundTrip(t *testing.T) {
	state := map[string][]byte{
		"z/last":        []byte("value"),
		"a/first":       {0, 1, 2, 255},
		"empty":         {},
		"bin\x00ary/k":  []byte("x"),
		"big/" + "kkkk": bytes.Repeat([]byte("p"), 10_000),
	}
	payload := appendChainSnapshot(nil, 99, state)
	if !bytes.Equal(payload, appendChainSnapshot(nil, 99, state)) {
		t.Fatal("snapshot encoding is not deterministic")
	}
	// The snapshot writer reuses one buffer: a smaller state encoded into
	// a truncated, previously larger buffer must come out as if fresh.
	small := map[string][]byte{"a/first": {7}}
	reused := appendChainSnapshot(append([]byte(nil), payload...)[:0], 100, small)
	if !bytes.Equal(reused, appendChainSnapshot(nil, 100, small)) {
		t.Fatal("encoding into a reused buffer differs from a fresh encoding")
	}
	snap, err := decodeChainSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Height != 99 {
		t.Fatalf("height = %d", snap.Height)
	}
	if len(snap.State) != len(state) {
		t.Fatalf("%d keys, want %d", len(snap.State), len(state))
	}
	for i, d := range snap.State {
		if i > 0 && snap.State[i-1].K >= d.K {
			t.Fatalf("keys out of order: %q then %q", snap.State[i-1].K, d.K)
		}
		if v, ok := state[d.K]; !ok || d.Del || !bytes.Equal(d.V, v) {
			t.Fatalf("key %q = %v, want %v", d.K, d.V, v)
		}
	}
}

// TestDecodedStateOwnsItsBytes: recovery moves a decoded snapshot's
// entries and each block's decoded diff into the state without copying
// them, which is sound only because the decoders copy every key and value
// out of the record. Overwriting a record after decoding it must not
// reach what was decoded from it.
func TestDecodedStateOwnsItsBytes(t *testing.T) {
	payload := appendChainSnapshot(nil, 1, map[string][]byte{"k": []byte("snapshot-value")})
	snap, err := decodeChainSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	block := benchWALBlock(2, 16)
	want := block.Diff[0]
	want.V = bytes.Clone(want.V)
	record := encodeWALBlock(nil, block)[store.RecordHeaderSize:]
	wr, err := decodeWALRecord(record)
	if err != nil {
		t.Fatal(err)
	}
	clear(payload)
	clear(record)
	if d := snap.State[0]; d.K != "k" || string(d.V) != "snapshot-value" {
		t.Fatalf("snapshot entry = %+v after its payload was overwritten", d)
	}
	if d := wr.Block.Diff[0]; d.K != want.K || !bytes.Equal(d.V, want.V) {
		t.Fatalf("diff entry = %+v after its record was overwritten, want %+v", d, want)
	}
}

// TestCodecRejectsGarbage: unknown tags, truncation, and trailing bytes
// are decode errors (the recovery loop treats them as the torn tail).
func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := decodeWALRecord(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := decodeWALRecord([]byte{0x7E, 1, 2}); err == nil {
		t.Fatal("unknown tag accepted")
	}
	// '{' is not a tag: a PR 4-era JSON record fails like any other
	// unknown first byte.
	if _, err := decodeWALRecord([]byte(`{"meta":{"genesisTime":"2023-10-09T00:00:00Z","authorities":[]}}`)); err == nil {
		t.Fatal("JSON WAL record accepted")
	}
	if _, err := decodeChainSnapshot([]byte(`{"height":7,"state":{}}`)); err == nil {
		t.Fatal("JSON snapshot accepted")
	}
	good := blockPayload(randomWALBlock(rand.New(rand.NewSource(2))))
	if _, err := decodeWALRecord(good[:len(good)-1]); err == nil {
		t.Fatal("truncated block record accepted")
	}
	if _, err := decodeWALRecord(append(append([]byte(nil), good...), 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := decodeChainSnapshot([]byte{tagChainBlock}); err == nil {
		t.Fatal("wrong-tag snapshot accepted")
	}
	// An element count no valid encoding could produce must poison the
	// decode deterministically, not fall through as an empty list.
	hdr := appendHeader([]byte{tagChainBlock}, &Header{Time: chainEpoch})
	overclaim := store.AppendUvarint(hdr, 1<<40) // absurd tx count
	if _, err := decodeWALRecord(overclaim); err == nil {
		t.Fatal("over-claimed tx count accepted")
	}
}

// TestCodecSizeAdvantage: the binary encoding of a block with real
// binary payloads must be smaller than its JSON encoding (which
// base64-inflates every []byte by 4/3) — the size half of the
// acceptance criterion; BenchmarkCodecEncodeBlock measures the speed
// half.
func TestCodecSizeAdvantage(t *testing.T) {
	block := benchWALBlock(64, 512)
	bin := blockPayload(block)
	js, err := json.Marshal(walRecord{Block: block})
	if err != nil {
		t.Fatal(err)
	}
	if len(bin) >= len(js) {
		t.Fatalf("binary %d bytes >= JSON %d bytes", len(bin), len(js))
	}
	t.Logf("block record: binary %d bytes, JSON %d bytes (%.2fx)",
		len(bin), len(js), float64(len(js))/float64(len(bin)))
}

// benchWALBlock builds a uniform block record with txCount transactions
// of valueSize-byte payloads (shared with BenchmarkCodecEncodeBlock).
func benchWALBlock(txCount, valueSize int) *walBlock {
	r := rand.New(rand.NewSource(9))
	payload := make([]byte, valueSize)
	r.Read(payload)
	b := &walBlock{Header: Header{
		Number:    12345,
		Time:      chainEpoch,
		Proposer:  testContractAddr(),
		Signature: bytes.Repeat([]byte("s"), 72),
	}}
	for i := range txCount {
		b.Txs = append(b.Txs, &Tx{
			Nonce:     uint64(i),
			From:      testContractAddr(),
			SenderKey: bytes.Repeat([]byte("k"), 65),
			Contract:  testContractAddr(),
			Method:    "set",
			Args:      payload,
			GasLimit:  200_000,
			Signature: bytes.Repeat([]byte("g"), 71),
		})
		b.Receipts = append(b.Receipts, &Receipt{
			Status: StatusOK, GasUsed: 21_000, BlockNumber: 12345,
		})
		b.Diff = append(b.Diff, Delta{K: string(rune('a'+i%26)) + "/key", V: payload})
	}
	return b
}
