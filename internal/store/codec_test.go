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
	var err error
	if buf, err = AppendTime(buf, when); err != nil {
		t.Fatal(err)
	}
	if buf, err = AppendTime(buf, time.Time{}); err != nil {
		t.Fatal(err)
	}
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
	if v := d.Time(); !v.Equal(when) {
		t.Fatalf("time = %v", v)
	}
	if v := d.Time(); !v.IsZero() {
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
