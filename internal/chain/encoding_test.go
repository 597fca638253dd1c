package chain

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simclock"
	"repro/internal/store"
)

// TestSignedFormsAreWALEncodings drives the encoders over 1 000 seeded
// random objects (empty Args and Return, '|' and ';' in every free-text
// field, non-ASCII text, integers at both ends of their range, the zero
// time, times in other zones) and holds each signed or hashed form to
// what a block record holds: a transaction's and a header's signing bytes
// and signature are their bytes in the record, the record decodes back to
// the objects, and a receipt's digest is the hash of its bytes there.
func TestSignedFormsAreWALEncodings(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	text := func() string {
		alphabet := []string{"", "a", "|", ";", "%", "0x", "ü", "\x00", "\"", "pod", " "}
		var b strings.Builder
		for range r.Intn(6) {
			b.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		return b.String()
	}
	u64 := func() uint64 {
		switch r.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.MaxUint64
		}
		return r.Uint64() >> r.Intn(64)
	}
	blob := func(n int) []byte {
		b := make([]byte, r.Intn(n))
		if len(b) == 0 || r.Intn(4) == 0 {
			return nil // the decoder's nil-for-empty
		}
		r.Read(b)
		return b
	}
	addr := func() (a cryptoutil.Address) { r.Read(a[:]); return a }
	hash := func() (h cryptoutil.Hash) { r.Read(h[:]); return h }
	for i := range 1000 {
		tx := &Tx{
			Nonce: u64(), From: addr(), SenderKey: blob(70), Contract: addr(), Method: text(),
			Args: blob(300), GasLimit: u64(), GasPrice: u64(), Signature: blob(72),
		}
		if h, _ := tx.hashAndVerify(); h != tx.Hash() || h != cryptoutil.HashOf(tx.SigningBytes(), tx.Signature) {
			t.Fatalf("case %d: hashAndVerify hash %s, Tx.Hash %s", i, h, tx.Hash())
		}

		hd := &Header{
			Number: u64(), ParentHash: hash(), Proposer: addr(), TxRoot: hash(), ReceiptRoot: hash(),
			StateRoot: hash(), Signature: blob(72),
		}
		if r.Intn(8) != 0 {
			hd.Time = time.Unix(0, int64(u64())).In(time.FixedZone("", r.Intn(2*86400)-86400))
		}

		rc := &Receipt{
			TxHash: hash(), Status: Status(r.Intn(5) - 1), GasUsed: u64(), Err: text(), BlockNumber: u64(), Return: blob(100),
		}
		for range r.Intn(4) {
			rc.Events = append(rc.Events, Event{
				Contract: addr(), Topic: text(), Key: text(), Data: blob(100), BlockNumber: u64(),
				TxHash: hash(), Index: int(int64(u64())),
			})
		}

		block := &walBlock{Header: *hd, Txs: []*Tx{tx}, Receipts: []*Receipt{rc}}
		record := blockPayload(block)
		want := append([]byte{tagChainBlock}, hd.SigningBytes()...)
		want = store.AppendBytes(want, hd.Signature)
		want = append(append(want, 1), tx.SigningBytes()...)
		want = store.AppendBytes(want, tx.Signature)
		want = appendReceipt(append(want, 1), rc)
		if want = append(want, 0); !bytes.Equal(record, want) {
			t.Fatalf("case %d: block record\n got %x\nwant %x", i, record, want)
		}
		if got := rc.Digest(); got != cryptoutil.HashOf(appendReceipt(nil, rc)) {
			t.Fatalf("case %d: Receipt.Digest %s is not the hash of its encoding", i, got)
		}
		rec, err := decodeWALRecord(record)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		requireWALBlockEqual(t, rec.Block, block)
		if !reflect.DeepEqual(rec.Block.Receipts[0], rc) {
			t.Fatalf("case %d: receipt decodes to %+v, want %+v", i, rec.Block.Receipts[0], rc)
		}
	}

	// Two events and one event whose Key spells the first event's tail
	// and the second's head in the hex-and-'|' text form, which gave both
	// receipts one digest.
	c1, c2 := vecAddr(0xc0), vecAddr(0xd0)
	two := &Receipt{Status: StatusOK, BlockNumber: 5, Events: []Event{
		{Contract: c1, Topic: "Set", Key: "a", Data: []byte{0xab}, BlockNumber: 5},
		{Contract: c2, Topic: "Set", Key: "b", Data: []byte{0xcd}, BlockNumber: 5, Index: 1},
	}}
	one := &Receipt{Status: StatusOK, BlockNumber: 5, Events: []Event{
		{Contract: c1, Topic: "Set", Key: "a|ab|5|0;" + c2.String() + "|Set|b", Data: []byte{0xcd}, BlockNumber: 5, Index: 1},
	}}
	if two.Digest() == one.Digest() {
		t.Errorf("a receipt with two events and one with a single event share digest %s", two.Digest())
	}
}

// TestEncoderAllocCeilings names the layer when an encoder regresses:
// each hash is one sized buffer and nothing else, at the widest values
// its size bound has to hold.
func TestEncoderAllocCeilings(t *testing.T) {
	tx, hd, rc := vecTxs()[1], vecHeaders()[1], vecReceipts()[2]
	tx.SenderKey, tx.Args = make([]byte, 65), make([]byte, 300)
	hd.Time = time.Unix(0, math.MinInt64)
	rc.Status, rc.Events[1].Index = Status(math.MinInt64), math.MinInt64
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Tx.Hash", func() { tx.Hash() }},
		{"Header.Hash", func() { hd.Hash() }},
		{"Receipt.Digest", func() { rc.Digest() }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got > 1 {
			t.Errorf("%s: %.0f allocations per call, want at most 1 (the encoding buffer)", c.name, got)
		}
	}
	key, value := "0x"+strings.Repeat("c0", 20)+"/pod/https://alice.example/profile#me", make([]byte, 300)
	if got := testing.AllocsPerRun(100, func() { leafHash(key, value) }); got != 0 {
		t.Errorf("leafHash: %.0f allocations per call, want 0", got)
	}
	if got, want := leafHash(key, value), refHashOf([]byte(key), value); got != want {
		t.Errorf("leafHash %s, reference %s", got, want)
	}
	if long := strings.Repeat("k", 300); leafHash(long, value) != refHashOf([]byte(long), value) {
		t.Error("leafHash of a key past its stack buffer differs from the reference")
	}
}

// copyDataDir copies testdata/name's wal.log and authority.key into a
// fresh directory and returns it.
func copyDataDir(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	for _, file := range []string{walFileName, "authority.key"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name, file))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, file), raw, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestTextFormWALIsRefused: testdata/text-form-wal is a data dir whose
// transactions and headers were signed and hashed over the hex-and-'|'
// text form, so its blocks no longer link under this format. Opening it
// fails with an error that says to start from an empty directory, and the
// log is left as it was rather than truncated back to genesis.
func TestTextFormWALIsRefused(t *testing.T) {
	dir := copyDataDir(t, "text-form-wal")
	before, err := os.ReadFile(WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	key, err := cryptoutil.LoadOrCreateKeyFile(filepath.Join(dir, "authority.key"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := OpenNode(durableConfig(dir, key, simclock.NewSim(chainEpoch)))
	if err == nil {
		n.Close()
		t.Fatal("a text-form data dir opened")
	}
	if !errors.Is(err, ErrStoreCorrupt) || !strings.Contains(err.Error(), "start from an empty directory") {
		t.Errorf("err = %v, want ErrStoreCorrupt telling to start from an empty directory", err)
	}
	if after, err := os.ReadFile(WALPath(dir)); err != nil || !bytes.Equal(after, before) {
		t.Errorf("the refused log changed (%d bytes, was %d; %v)", len(after), len(before), err)
	}
}

// TestParentWrittenWALStillOpens recovers testdata/parent-wal, a data
// dir written by the first binary of this record format: four blocks —
// two "set"s, a revert beside an "incr", an empty block, an overwrite at
// a high gas price — sealed and signed by testdata's authority key.
// Recovery checks parent-hash linkage and replays every diff against its
// header's state root; the test then re-derives what the log does not
// re-check: each seal and transaction signature, each transaction hash
// against its receipt, and both Merkle roots.
func TestParentWrittenWALStillOpens(t *testing.T) {
	dir := copyDataDir(t, "parent-wal")
	key, err := cryptoutil.LoadOrCreateKeyFile(filepath.Join(dir, "authority.key"))
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.NewSim(chainEpoch.Add(time.Hour))
	n, err := OpenNode(durableConfig(dir, key, clk))
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantHead = "0x60c29d06e3b97312be864ca0b621dd5d3df7327338c5923924a6b0d09ae84db7"
		wantRoot = "0x44bba21dce1f6e2269ce339adb24ba5f9d2d172ba42ef20fd773e2acf2433e0d"
	)
	if got := n.Height(); got != 4 {
		t.Fatalf("recovered height %d, want 4 (a record failed linkage and was truncated)", got)
	}
	if got := n.Head().Hash().String(); got != wantHead {
		t.Errorf("head hash %s, want %s", got, wantHead)
	}
	if got := n.State().Root().String(); got != wantRoot {
		t.Errorf("state root %s, want %s", got, wantRoot)
	}
	txs := 0
	for num := uint64(1); num <= 4; num++ {
		b := n.BlockByNumber(num)
		if err := b.Header.verifySeal(key.PublicBytes()); err != nil {
			t.Errorf("block %d: %v", num, err)
		}
		hashes := txHashes(nil, b.Txs)
		if txRoot(nil, hashes) != b.Header.TxRoot {
			t.Errorf("block %d: tx root does not match the header", num)
		}
		if receiptRoot(nil, b.Receipts) != b.Header.ReceiptRoot {
			t.Errorf("block %d: receipt root does not match the header", num)
		}
		for i, v := range verify(b.Txs) {
			if v.Err != nil || v.Hash != hashes[i] || v.Hash != b.Receipts[i].TxHash {
				t.Errorf("block %d tx %d: verdict %v, hash %s, receipt names %s", num, i, v.Err, v.Hash, b.Receipts[i].TxHash)
			}
			txs++
		}
	}
	if txs != 5 {
		t.Errorf("recovered %d transactions, want 5", txs)
	}
	// The log goes on: a block sealed by this binary extends the parent's.
	sealSet(t, n, key, clk, 5, "pod|3", "carol")
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	n, err = OpenNode(durableConfig(dir, key, clk))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got := n.Height(); got != 5 {
		t.Fatalf("height after reopening the extended log: %d, want 5", got)
	}
}

// TestCheckedEncodesEachTransactionOnce counts encodings by weight, so
// the product carries no counter: a transaction with 1 MiB of arguments
// encodes to just over 1 MiB, which dwarfs everything else the submission
// pipeline allocates, and hashing and verifying must share one such
// buffer. (At d71331e the ratio was above 2: Tx.Hash and
// VerifySignature each encoded, into a builder that grew by doubling.)
func TestCheckedEncodesEachTransactionOnce(t *testing.T) {
	key := cryptoutil.MustGenerateKey()
	txs := make([]*Tx, 4)
	for i := range txs {
		tx, err := NewTx(key, uint64(i), testContractAddr(), "set", []byte(strings.Repeat("a", 1<<20)), 200_000)
		if err != nil {
			t.Fatal(err)
		}
		txs[i] = tx
	}
	encoding := uint64(len(txs[0].SigningBytes()))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := checked(txs, nil)
	runtime.ReadMemStats(&after)
	for i, v := range out {
		if v.Err != nil || v.Hash != txs[i].Hash() {
			t.Fatalf("tx %d: verdict %v, hash %s, want %s", i, v.Err, v.Hash, txs[i].Hash())
		}
	}
	perTx := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(txs)) / float64(encoding)
	if perTx < 1 || perTx >= 1.5 {
		t.Fatalf("checked allocated %.2f encodings' worth of bytes per transaction, want 1", perTx)
	}
}

// TestNewTxTakesOnlyEncodedArgs: NewTx encodes a value through its
// AppendArgs, takes a []byte as it is and nil as no arguments, and refuses
// anything else rather than pick an encoding for it.
func TestNewTxTakesOnlyEncodedArgs(t *testing.T) {
	key := cryptoutil.MustGenerateKey()
	for _, tc := range []struct {
		args any
		want string
	}{
		{setArgs{Key: "k", Value: "v"}, `{"key":"k","value":"v"}`},
		{[]byte{1, 2}, "\x01\x02"},
		{nil, ""},
	} {
		tx, err := NewTx(key, 0, testContractAddr(), "set", tc.args, 100_000)
		if err != nil {
			t.Fatalf("%T: %v", tc.args, err)
		}
		if string(tx.Args) != tc.want {
			t.Errorf("%T: args %q, want %q", tc.args, tx.Args, tc.want)
		}
	}
	for _, args := range []any{struct{}{}, "text", map[string]int{"i": 1}} {
		if _, err := NewTx(key, 0, testContractAddr(), "set", args, 100_000); err == nil {
			t.Errorf("%T accepted as arguments", args)
		}
	}
}
