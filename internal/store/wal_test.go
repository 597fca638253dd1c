package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// AppendRecord appends the framed encoding of payload to dst: the
// tests' statement of the on-disk framing, written without the
// product's in-place path.
func AppendRecord(dst, payload []byte) []byte {
	hdr := recordHeader(payload)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

func openForTest(t *testing.T, path string, opts Options) (*WAL, []Record) {
	t.Helper()
	w, recs, err := OpenWAL(path, opts)
	if err != nil {
		t.Fatalf("OpenWAL(%s): %v", path, err)
	}
	return w, recs
}

func appendAll(t *testing.T, w *WAL, payloads ...[]byte) {
	t.Helper()
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

func payloadsOf(recs []Record) [][]byte {
	out := make([][]byte, len(recs))
	for i, r := range recs {
		out[i] = r.Payload
	}
	return out
}

// TestWALRoundTrip covers the clean-close leg of the recovery matrix:
// everything appended before Close is decoded back in order.
func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, recs := openForTest(t, path, Options{})
	if len(recs) != 0 {
		t.Fatalf("fresh wal decoded %d records", len(recs))
	}
	want := [][]byte{[]byte("one"), {}, []byte("three has more bytes")}
	appendAll(t, w, want...)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, recs2 := openForTest(t, path, Options{})
	defer w2.Close()
	got := payloadsOf(recs2)
	if len(got) != len(want) {
		t.Fatalf("reopened %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	// Appending after recovery extends, not overwrites.
	appendAll(t, w2, []byte("four"))
	w2.Close()
	_, recs3 := openForTest(t, path, Options{})
	if len(recs3) != 4 || string(recs3[3].Payload) != "four" {
		t.Fatalf("after post-recovery append got %d records", len(recs3))
	}
}

// TestWALCrashWithoutClose covers the crash-after-write leg: Abandon
// skips the final fsync but unbuffered writes are still in the file.
func TestWALCrashWithoutClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openForTest(t, path, Options{Sync: SyncNever})
	appendAll(t, w, []byte("survives"), []byte("an abandon"))
	if err := w.Abandon(); err != nil {
		t.Fatalf("Abandon: %v", err)
	}
	_, recs := openForTest(t, path, Options{})
	if len(recs) != 2 || string(recs[1].Payload) != "an abandon" {
		t.Fatalf("recovered %d records", len(recs))
	}
}

// tornCase mutilates a healthy 3-record log and says how many records
// must survive reopening.
type tornCase struct {
	name    string
	mutate  func(t *testing.T, path string)
	survive int
}

// TestWALTornTail covers the three torn-tail legs of the recovery
// matrix: partial length prefix, partial payload, and bad CRC. Each must
// truncate back to the last complete record, and the log must accept
// appends afterwards.
func TestWALTornTail(t *testing.T) {
	chop := func(n int64) func(*testing.T, string) {
		return func(t *testing.T, path string) {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()-n); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []tornCase{
		// Last record payload is 24 bytes ("the third record payload"):
		// chopping 4 leaves a partial payload; chopping 26 cuts into the
		// 8-byte header (partial length prefix); flipping a payload byte
		// breaks the CRC.
		{"partial-payload", chop(4), 2},
		{"partial-length-prefix", chop(26), 2},
		{"bad-crc", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-3] ^= 0xff
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}, 2},
		{"whole-file-garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte{0xff, 0xfe, 0xfd}, 0o644); err != nil {
				t.Fatal(err)
			}
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			w, _ := openForTest(t, path, Options{})
			appendAll(t, w, []byte("first"), []byte("second rec"), []byte("the third record payload"))
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			tc.mutate(t, path)

			w2, recs := openForTest(t, path, Options{})
			if len(recs) != tc.survive {
				t.Fatalf("recovered %d records, want %d", len(recs), tc.survive)
			}
			if tc.survive > 0 && string(recs[tc.survive-1].Payload) != "second rec" {
				t.Fatalf("last surviving record = %q", recs[tc.survive-1].Payload)
			}
			// The truncated log must be appendable and re-decodable.
			appendAll(t, w2, []byte("after recovery"))
			w2.Close()
			_, recs2 := openForTest(t, path, Options{})
			if len(recs2) != tc.survive+1 {
				t.Fatalf("after append recovered %d records, want %d", len(recs2), tc.survive+1)
			}
			if got := string(recs2[len(recs2)-1].Payload); got != "after recovery" {
				t.Fatalf("tail record = %q", got)
			}
		})
	}
}

// TestWALCorruptionMidFile: a bad record in the middle ends the log
// there — later records (possibly overwritten garbage) are dropped too.
func TestWALCorruptionMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openForTest(t, path, Options{})
	appendAll(t, w, []byte("aaaa"), []byte("bbbb"), []byte("cccc"))
	w.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[RecordHeaderSize+4+RecordHeaderSize] ^= 0xff // first payload byte of record 2
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, recs := openForTest(t, path, Options{})
	defer w2.Close()
	if len(recs) != 1 || string(recs[0].Payload) != "aaaa" {
		t.Fatalf("recovered %v, want just aaaa", payloadsOf(recs))
	}
}

// TestWALOversizedLength: a length prefix beyond MaxRecordSize is
// corruption, not an allocation request.
func TestWALOversizedLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	var hdr [RecordHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MaxRecordSize+1)
	if err := os.WriteFile(path, hdr[:], 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs := openForTest(t, path, Options{})
	defer w.Close()
	if len(recs) != 0 {
		t.Fatalf("decoded %d records from an oversized header", len(recs))
	}
	if w.Size() != 0 {
		t.Fatalf("oversized header not truncated: size %d", w.Size())
	}
}

// TestWALSyncPolicies smoke-tests each policy end to end and pins the
// interval policy's fsync cadence: syncEvery+1 appends fsync once under
// it, at every append under SyncAlways and never under SyncNever.
func TestWALSyncPolicies(t *testing.T) {
	want := map[SyncPolicy]uint64{SyncAlways: syncEvery + 1, SyncInterval: 1, SyncNever: 0}
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			m := NewMetrics(obs.NewRegistry())
			w, _ := openForTest(t, path, Options{Sync: policy, Metrics: m})
			for i := range syncEvery + 1 {
				appendAll(t, w, fmt.Appendf(nil, "record-%03d", i))
			}
			if got := m.Fsyncs.Value(); got != want[policy] {
				t.Fatalf("policy %s: %d fsyncs over %d appends, want %d", policy, got, syncEvery+1, want[policy])
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			_, recs := openForTest(t, path, Options{})
			if len(recs) != syncEvery+1 {
				t.Fatalf("policy %s: recovered %d records", policy, len(recs))
			}
		})
	}
}

// TestWALClosedOperations: appends and syncs after Close fail with
// ErrClosed; Close is idempotent.
func TestWALClosedOperations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openForTest(t, path, Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := w.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Close: %v", err)
	}
	if err := w.TruncateTo(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("TruncateTo after Close: %v", err)
	}
}

// TestWALTruncateTo drops records past a reported boundary.
func TestWALTruncateTo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openForTest(t, path, Options{})
	appendAll(t, w, []byte("keep"), []byte("drop"))
	w.Close()
	w2, recs := openForTest(t, path, Options{})
	if err := w2.TruncateTo(recs[0].End); err != nil {
		t.Fatal(err)
	}
	if err := w2.TruncateTo(1 << 30); err == nil {
		t.Fatal("out-of-range TruncateTo accepted")
	}
	appendAll(t, w2, []byte("replacement"))
	w2.Close()
	_, recs2 := openForTest(t, path, Options{})
	if len(recs2) != 2 || string(recs2[1].Payload) != "replacement" {
		t.Fatalf("after TruncateTo got %v", payloadsOf(recs2))
	}
}

// TestDecodeRecordBounds pins the decoder's error contract directly.
func TestDecodeRecordBounds(t *testing.T) {
	if _, _, err := DecodeRecord(nil); !errors.Is(err, ErrPartialRecord) {
		t.Fatalf("empty: %v", err)
	}
	if _, _, err := DecodeRecord([]byte{1, 2, 3}); !errors.Is(err, ErrPartialRecord) {
		t.Fatalf("short header: %v", err)
	}
	framed := AppendRecord(nil, []byte("hello"))
	payload, consumed, err := DecodeRecord(framed)
	if err != nil || string(payload) != "hello" || consumed != len(framed) {
		t.Fatalf("roundtrip: %q %d %v", payload, consumed, err)
	}
	// Decoding from a buffer with a trailing record works and reports the
	// right consumed count.
	double := AppendRecord(framed, []byte("world"))
	p2, c2, err := DecodeRecord(double[consumed:])
	if err != nil || string(p2) != "world" || c2 != len(double)-consumed {
		t.Fatalf("second record: %q %d %v", p2, c2, err)
	}
}

// TestWALManyRecords exercises interval syncing over enough appends to
// cross several sync windows.
func TestWALManyRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openForTest(t, path, Options{Sync: SyncInterval})
	const n = 3*syncEvery + 8
	for i := range n {
		if err := w.Append(fmt.Appendf(nil, "record-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	_, recs := openForTest(t, path, Options{})
	if len(recs) != n {
		t.Fatalf("recovered %d records, want %d", len(recs), n)
	}
	if got, want := string(recs[n-1].Payload), fmt.Sprintf("record-%03d", n-1); got != want {
		t.Fatalf("last record = %q, want %q", got, want)
	}
}

// TestParseSyncPolicy pins the flag-string forms.
func TestParseSyncPolicy(t *testing.T) {
	cases := map[string]SyncPolicy{
		"always": SyncAlways, "never": SyncNever, "interval": SyncInterval, "": SyncInterval,
	}
	for in, want := range cases {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
		if got.String() == "" {
			t.Fatalf("policy %v has empty string form", got)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestWALPathAndSize: Size reflects the open log. (The Path accessor
// it also covered had no caller outside this test and is gone.)
func TestWALPathAndSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openForTest(t, path, Options{})
	defer w.Close()
	if w.Size() != 0 {
		t.Fatalf("empty log Size = %d", w.Size())
	}
	appendAll(t, w, []byte("abc"))
	if w.Size() != int64(RecordHeaderSize+3) {
		t.Fatalf("Size = %d, want %d", w.Size(), RecordHeaderSize+3)
	}
}

// BenchmarkWALAppend measures the append hot path at 1 KiB records under
// each fsync policy — the per-block disk cost a durable validator pays on
// top of sealing.
func BenchmarkWALAppend(b *testing.B) {
	payload := bytes.Repeat([]byte("w"), 1024)
	for _, policy := range []SyncPolicy{SyncNever, SyncInterval, SyncAlways} {
		b.Run("fsync-"+policy.String(), func(b *testing.B) {
			w, _, err := OpenWAL(filepath.Join(b.TempDir(), "wal.log"), Options{Sync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for b.Loop() {
				if err := w.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestWALAppendFrameWritesAppendsBytes: a record framed in place by
// AppendFrame is byte for byte the record Append writes, the two
// interleave in one log, and neither buys more than the one buffer
// Append needs to frame a payload it was handed bare.
func TestWALAppendFrameWritesAppendsBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openForTest(t, path, Options{Sync: SyncNever})
	payloads := [][]byte{[]byte("meta"), bytes.Repeat([]byte{0xab}, 70_000), {}, []byte("tail")}
	var want []byte
	for i, p := range payloads {
		want = AppendRecord(want, p)
		if i%2 == 0 {
			appendAll(t, w, p)
			continue
		}
		frame := append(make([]byte, RecordHeaderSize, RecordHeaderSize+len(p)), p...)
		if err := w.AppendFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("log holds %d bytes (err %v), want the %d bytes of four framed records", len(got), err, len(want))
	}

	payload := bytes.Repeat([]byte{0xcd}, 4096)
	frame := append(make([]byte, RecordHeaderSize), payload...)
	if got := testing.AllocsPerRun(50, func() { _ = w.AppendFrame(frame) }); got != 0 {
		t.Errorf("AppendFrame: %.0f allocations per record, want 0", got)
	}
	if got := testing.AllocsPerRun(50, func() { _ = w.Append(payload) }); got > 1 {
		t.Errorf("Append: %.0f allocations per record, want at most 1 (the frame)", got)
	}
	w.Close()
	if _, recs := openForTest(t, path, Options{}); len(recs) != len(payloads)+102 {
		t.Fatalf("recovered %d records, want %d", len(recs), len(payloads)+102)
	}
}

// TestWALRefusesOversizedRecord: a payload above MaxRecordSize, which
// OpenWAL would read as corruption and truncate from, is refused by
// Append and AppendFrame before anything is written. The log reopens
// with the records before it and takes later appends.
func TestWALRefusesOversizedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openForTest(t, path, Options{Sync: SyncAlways})
	appendAll(t, w, []byte("before"))
	size := w.Size()
	frame := make([]byte, RecordHeaderSize+MaxRecordSize+1)
	if err := w.Append(frame[RecordHeaderSize:]); err == nil {
		t.Fatal("Append took a record above MaxRecordSize")
	}
	if err := w.AppendFrame(frame); err == nil {
		t.Fatal("AppendFrame took a record above MaxRecordSize")
	}
	if w.Size() != size {
		t.Fatalf("refused appends grew the log from %d to %d bytes", size, w.Size())
	}
	appendAll(t, w, []byte("after"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, recs := openForTest(t, path, Options{})
	defer w2.Close()
	if got := payloadsOf(recs); len(got) != 2 || string(got[0]) != "before" || string(got[1]) != "after" {
		t.Fatalf("reopened records %q, want [before after]", got)
	}
	appendAll(t, w2, []byte("later"))
}
