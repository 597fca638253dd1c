package chain

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simclock"
	"repro/internal/store"
)

// FuzzWALRecordDecode feeds arbitrary bytes to the two decoders recovery
// runs on what it reads from disk: decodeWALRecord on every log record and
// decodeChainSnapshot on a snapshot file. Neither may panic, and a record
// decodeWALRecord accepts must encode back to exactly its bytes — a block
// through encodeWALBlock, a chain identity through encodeWALMeta — so that
// no record has a second spelling a replay would read alike. The corpus is
// seeded with the log and a snapshot of a real durable node that sealed
// two blocks.
func FuzzWALRecordDecode(f *testing.F) {
	dir := f.TempDir()
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(chainEpoch)
	n, err := OpenNode(durableConfig(dir, key, clk))
	if err != nil {
		f.Fatal(err)
	}
	for nonce, kv := range []string{"a", "b"} {
		if _, err := submit1(n, mustTx(f, key, uint64(nonce), testContractAddr(), kv, kv+kv)); err != nil {
			f.Fatal(err)
		}
		clk.Advance(time.Second)
		if _, err := n.Seal(); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(appendChainSnapshot(nil, n.Height(), n.State().ExportShared()))
	if err := n.Close(); err != nil {
		f.Fatal(err)
	}
	wal, records, err := store.OpenWAL(WALPath(dir), store.Options{Sync: store.SyncNever})
	if err != nil {
		f.Fatal(err)
	}
	if len(records) != 3 {
		f.Fatalf("%d log records, want the chain identity and two blocks", len(records))
	}
	for _, rec := range records {
		f.Add(rec.Payload)
	}
	if err := wal.Close(); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		if rec, err := decodeWALRecord(payload); err == nil {
			var again []byte
			var at time.Time
			switch {
			case rec.Block != nil:
				again = encodeWALBlock(nil, rec.Block)[store.RecordHeaderSize:]
				at = rec.Block.Header.Time
			case rec.Meta != nil:
				again = encodeWALMeta(rec.Meta)
				at = rec.Meta.GenesisTime
			}
			if !bytes.Equal(again, payload) {
				t.Fatalf("accepted record re-encodes to %x, was %x", again, payload)
			}
			// A time whose nanoseconds reach a second re-encodes as it was
			// read, but it is a second spelling of a later instant.
			if at.Nanosecond() >= 1e9 {
				t.Fatalf("accepted record holds %d ns past its second", at.Nanosecond())
			}
		}
		_, _ = decodeChainSnapshot(payload)
	})
}
