package store

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// TestCodecRoundTrip: every primitive survives an append/decode cycle in
// schema order, and the decoder consumes the buffer exactly.
func TestCodecRoundTrip(t *testing.T) {
	when := time.Date(2023, 6, 21, 9, 30, 0, 123456789, time.UTC)
	var buf []byte
	buf = AppendUvarint(buf, 0)
	buf = AppendUvarint(buf, 1<<63)
	buf = AppendBytes(buf, nil)
	buf = AppendBytes(buf, []byte{0, 1, 2, 0xff})
	buf = AppendString(buf, "hello κόσμε")
	buf = AppendBool(buf, true)
	buf = AppendBool(buf, false)
	buf = AppendUTC(buf, when)
	buf = AppendUTC(buf, time.Time{})
	buf = append(buf, 0xAA, 0xBB) // fixed-width field

	d := NewDec(buf)
	if v := d.Uvarint(); v != 0 {
		t.Fatalf("uvarint = %d", v)
	}
	if v := d.Uvarint(); v != 1<<63 {
		t.Fatalf("uvarint = %d", v)
	}
	if v := d.Bytes(); v != nil {
		t.Fatalf("empty bytes = %v", v)
	}
	if v := d.Bytes(); !bytes.Equal(v, []byte{0, 1, 2, 0xff}) {
		t.Fatalf("bytes = %v", v)
	}
	if v := d.String(); v != "hello κόσμε" {
		t.Fatalf("string = %q", v)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bools did not round-trip")
	}
	if v := d.UTC(); v != when {
		t.Fatalf("time = %v", v)
	}
	if v := d.UTC(); !v.IsZero() {
		t.Fatalf("zero time decoded as %v", v)
	}
	var fixed [2]byte
	d.Raw(fixed[:])
	if fixed != [2]byte{0xAA, 0xBB} {
		t.Fatalf("raw = %x", fixed)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestCodecDecodedBytesAreCopies: mutating the input buffer after decode
// must not reach through into returned values.
func TestCodecDecodedBytesAreCopies(t *testing.T) {
	buf := AppendBytes(nil, []byte("payload"))
	d := NewDec(buf)
	got := d.Bytes()
	buf[2] ^= 0xff
	if string(got) != "payload" {
		t.Fatalf("decoded bytes alias the input: %q", got)
	}
}

// TestCodecTruncationAndStickyError: a truncated field fails, every
// subsequent read returns zero values, and Finish reports the error.
func TestCodecTruncationAndStickyError(t *testing.T) {
	buf := AppendBytes(nil, bytes.Repeat([]byte("x"), 64))
	d := NewDec(buf[:10]) // length prefix promises 64, only 9 remain
	if v := d.Bytes(); v != nil {
		t.Fatalf("truncated read returned %d bytes", len(v))
	}
	if d.Err() == nil {
		t.Fatal("truncation not detected")
	}
	if v := d.Uvarint(); v != 0 {
		t.Fatal("read after error returned data")
	}
	if v := d.String(); v != "" {
		t.Fatal("read after error returned data")
	}
	if !errors.Is(d.Finish(), ErrCodec) {
		t.Fatalf("Finish = %v, want ErrCodec", d.Finish())
	}
}

// TestCodecTrailingBytes: Finish flags unconsumed input — a schema that
// under-reads is a bug, not a compatible extension.
func TestCodecTrailingBytes(t *testing.T) {
	buf := AppendUvarint(nil, 7)
	buf = append(buf, 0xEE)
	d := NewDec(buf)
	_ = d.Uvarint()
	if !errors.Is(d.Finish(), ErrCodec) {
		t.Fatalf("Finish = %v, want ErrCodec for trailing bytes", d.Finish())
	}
}

// TestCodecInvalidBool: bytes other than 0/1 are malformed, not coerced.
func TestCodecInvalidBool(t *testing.T) {
	d := NewDec([]byte{2})
	_ = d.Bool()
	if !errors.Is(d.Err(), ErrCodec) {
		t.Fatalf("err = %v", d.Err())
	}
}

// TestCodecOneSpellingPerValue: the decoder refuses the encodings the
// encoder never writes — a padded uvarint, and for Dec.UTC a timestamp that
// carries a zone, the 16-byte marshalling or nanoseconds past a second — so
// a record that decodes re-encodes to the same bytes.
func TestCodecOneSpellingPerValue(t *testing.T) {
	when := time.Date(2023, 6, 21, 9, 30, 0, 123456789, time.UTC)
	canon := AppendUTC(nil, when.In(time.FixedZone("", 3600)))
	if len(canon) != 16 {
		t.Fatalf("AppendUTC wrote %d bytes, want 16", len(canon))
	}
	d := NewDec(canon)
	if got := d.UTC(); got != when || d.Finish() != nil {
		t.Fatalf("UTC = %v (err %v), want %v", got, d.Finish(), when)
	}
	zero := NewDec(AppendUTC(nil, time.Time{}))
	if got := zero.UTC(); got != (time.Time{}) || zero.Finish() != nil {
		t.Fatalf("zero time decoded as %#v (err %v)", got, zero.Finish())
	}

	marshalled := func(t time.Time) []byte {
		b, _ := t.MarshalBinary()
		return AppendBytes(nil, b)
	}
	zoned := marshalled(when.In(time.FixedZone("", 3600)))
	seconds := marshalled(when.In(time.FixedZone("", 3601)))
	v2 := append([]byte{16, 2}, canon[2:]...) // the 16-byte marshalling of a UTC instant
	v2 = append(v2, 0)
	nanos := append([]byte(nil), canon...)
	nanos[10] = 0x7f // nanoseconds = 0x7f......
	second := append([]byte(nil), canon...)
	copy(second[10:14], []byte{0x3b, 0x9a, 0xca, 0x00}) // nanoseconds = 1e9: the next second
	for name, b := range map[string][]byte{"zone offset": zoned, "zone offset with seconds": seconds, "16-byte marshalling": v2, "nanoseconds": nanos, "nanoseconds at a second": second} {
		var v time.Time
		if err := v.UnmarshalBinary(b[1:]); err != nil {
			t.Errorf("%s: not a time marshalling (%v), so it does not test Dec.UTC", name, err)
		}
		d := NewDec(b)
		if d.UTC(); !errors.Is(d.Err(), ErrCodec) {
			t.Errorf("%s: Dec.UTC err = %v, want ErrCodec", name, d.Err())
		}
	}

	for _, b := range [][]byte{{0x80, 0x00}, {0xff, 0x80, 0x00}} {
		d := NewDec(b)
		if d.Uvarint(); !errors.Is(d.Err(), ErrCodec) {
			t.Errorf("padded uvarint % x: err = %v, want ErrCodec", b, d.Err())
		}
	}
}

// TestCodecTagAndStrings: Dec.Tag accepts its tag and nothing else; a
// string list round-trips, an empty one to nil.
func TestCodecTagAndStrings(t *testing.T) {
	type word string
	buf := AppendStrings(AppendStrings(append([]byte(nil), 0x21), []word{"a", "", "ü"}), []word{})
	d := NewDec(buf)
	d.Tag(0x21)
	if got := Strings[word](d, "words"); len(got) != 3 || got[0] != "a" || got[1] != "" || got[2] != "ü" {
		t.Fatalf("words = %q", got)
	}
	if got := Strings[word](d, "words"); got != nil || d.Remaining() != 0 || d.Finish() != nil {
		t.Fatalf("empty list = %#v, %d bytes left, err %v", got, d.Remaining(), d.Finish())
	}
	d = NewDec([]byte{'{'})
	if d.Tag(0x21); !errors.Is(d.Err(), ErrCodec) {
		t.Fatalf("Tag on '{': err = %v, want ErrCodec", d.Err())
	}
	// A count no remaining input could hold is refused before any loop.
	if got := Strings[word](NewDec(AppendUvarint(nil, 1<<40)), "words"); got != nil {
		t.Fatalf("over-claimed list decoded to %q", got)
	}
}

// TestCodecAllocations pins what the primitives on the DE App's execution
// path allocate: a timestamp appends into the caller's buffer, a string is
// read straight off the input.
func TestCodecAllocations(t *testing.T) {
	when := time.Date(2023, 6, 21, 9, 30, 0, 123456789, time.FixedZone("", 3600))
	buf := make([]byte, 0, 64)
	if got := testing.AllocsPerRun(100, func() { _ = AppendUTC(buf, when) }); got != 0 {
		t.Errorf("AppendUTC: %.0f allocations, want 0", got)
	}
	in := AppendUTC(AppendString(nil, "https://alice.example/data/hr.ttl"), when)
	var s string
	if got := testing.AllocsPerRun(100, func() {
		d := NewDec(in)
		s = d.String()
		_ = d.UTC()
	}); got != 1 {
		t.Errorf("Dec.String + Dec.UTC: %.0f allocations, want 1 (the string)", got)
	}
	_ = s
}
