package store

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// FuzzWALDecode feeds the record decoder arbitrary bytes. The decoder
// must never panic or over-consume, must only return payloads that
// re-encode to the consumed prefix (CRC soundness), and torn/corrupt
// classifications must be stable under the documented error contract.
//
// CI smoke-runs this with -fuzz=FuzzWALDecode -fuzztime=30s.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRecord(nil, []byte("a healthy record")))
	f.Add(AppendRecord(AppendRecord(nil, []byte("one")), []byte("two")))
	torn := AppendRecord(nil, []byte("about to be torn"))
	f.Add(torn[:len(torn)-3])
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // oversized length
	f.Add(make([]byte, RecordHeaderSize))             // zero-length record

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, consumed, err := DecodeRecord(data)
		if err != nil {
			if consumed != 0 || payload != nil {
				t.Fatalf("error %v returned payload %v consumed %d", err, payload, consumed)
			}
			if !errors.Is(err, ErrPartialRecord) && !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("undocumented error class: %v", err)
			}
			return
		}
		if consumed < RecordHeaderSize || consumed > len(data) {
			t.Fatalf("consumed %d outside [%d,%d]", consumed, RecordHeaderSize, len(data))
		}
		if len(payload) != consumed-RecordHeaderSize {
			t.Fatalf("payload %d bytes, consumed %d", len(payload), consumed)
		}
		// Round trip: re-encoding the payload must reproduce the consumed
		// prefix bit for bit.
		if re := AppendRecord(nil, payload); !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("re-encoding diverges from input prefix")
		}
	})
}

// FuzzCodecDecode drives the primitive binary codec (the layer the chain
// and pod record schemas are built on) with arbitrary bytes interpreted
// under an arbitrary read schedule. The decoder must never panic,
// over-consume, or return data after its first error, and whatever a
// round of reads produced must re-encode and decode back identically.
//
// CI smoke-runs FuzzWALDecode; this fuzzer shares its corpus style.
func FuzzCodecDecode(f *testing.F) {
	healthy := AppendUvarint(nil, 42)
	healthy = AppendBytes(healthy, []byte("raw \x00 bytes"))
	healthy = AppendString(healthy, "s")
	healthy = AppendBool(healthy, true)
	healthy = AppendUTC(healthy, time.Unix(1_687_000_000, 42))
	f.Add(healthy, []byte{0, 1, 2, 3, 4})
	f.Add([]byte{0x80, 0x00}, []byte{0}) // a padded uvarint
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1}, []byte{1, 1})

	f.Fuzz(func(t *testing.T, data, schedule []byte) {
		d := NewDec(data)
		var replay []byte
		var reads []func(*Dec) bool // re-run the same reads against the re-encoding
		for _, op := range schedule {
			before := d.off
			switch op % 5 {
			case 0:
				v := d.Uvarint()
				if d.err == nil {
					if !bytes.Equal(AppendUvarint(nil, v), data[before:d.off]) {
						t.Fatalf("uvarint %d accepted in a second spelling % x", v, data[before:d.off])
					}
					replay = AppendUvarint(replay, v)
					reads = append(reads, func(r *Dec) bool { return r.Uvarint() == v })
				}
			case 1:
				v := d.Bytes()
				if d.err == nil {
					replay = AppendBytes(replay, v)
					reads = append(reads, func(r *Dec) bool { return bytes.Equal(r.Bytes(), v) })
				}
			case 2:
				v := d.String()
				if d.err == nil {
					replay = AppendString(replay, v)
					reads = append(reads, func(r *Dec) bool { return r.String() == v })
				}
			case 3:
				v := d.Bool()
				if d.err == nil {
					replay = AppendBool(replay, v)
					reads = append(reads, func(r *Dec) bool { return r.Bool() == v })
				}
			case 4:
				v := d.UTC()
				if d.err == nil {
					if !bytes.Equal(AppendUTC(nil, v), data[before:d.off]) {
						t.Fatalf("instant %v accepted in a second spelling % x", v, data[before:d.off])
					}
					replay = AppendUTC(replay, v)
					reads = append(reads, func(r *Dec) bool { return r.UTC() == v })
				}
			}
			// A failing read may have consumed bytes before detecting the
			// problem (e.g. an out-of-range bool value); the contract is
			// only that the offset never goes backwards or past the end,
			// and that the error is sticky.
			if d.off < before || d.off > len(data) {
				t.Fatalf("offset %d outside [%d,%d]", d.off, before, len(data))
			}
			if d.err != nil {
				break
			}
		}
		if d.err != nil && !errors.Is(d.err, ErrCodec) {
			t.Fatalf("undocumented error class: %v", d.err)
		}
		// Round trip: re-encoding what was read must decode to the same
		// values with nothing left over.
		r := NewDec(replay)
		for i, check := range reads {
			if !check(r) {
				t.Fatalf("read %d diverged after re-encoding", i)
			}
		}
		if err := r.Finish(); err != nil {
			t.Fatalf("re-encoded reads did not consume exactly: %v", err)
		}
	})
}
