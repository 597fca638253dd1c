package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// This file holds the primitive layer of the binary record codec shared
// by the chain and pod persistence formats: length-prefixed byte strings
// with varint lengths and raw (never base64-inflated) payload bytes.
// Record schemas live with their owning packages; this file only knows
// how to frame primitives.
//
// Framing rules:
//
//   - unsigned integers are encoding/binary uvarints in their shortest
//     form; the decoder refuses a padded one, so a value has one encoding
//   - byte strings are a uvarint length followed by the raw bytes
//   - strings are byte strings of their UTF-8 bytes
//   - booleans are one byte (0 or 1)
//   - timestamps are the byte string of the UTC instant's
//     time.Time.MarshalBinary (AppendUTC): one 16-byte form per instant,
//     zero value included, whatever zone the writer's time carries
//   - fixed-width fields (hashes, addresses) are raw bytes with no
//     length prefix; the schema fixes their width
//
// Every durable record's first byte is a format tag; a payload that opens
// with anything else (the '{' of a PR 4-era JSON record included) fails
// decoding.

// ErrCodec reports a malformed binary record payload (truncated field,
// impossible length, or trailing garbage).
var ErrCodec = errors.New("store: malformed binary record")

// AppendUvarint appends v as a uvarint.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendBytes appends b as a uvarint length followed by the raw bytes.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString appends s as a length-prefixed byte string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendStrings appends a count and then each string; Strings reads them
// back. An empty list and a nil one encode alike.
func AppendStrings[S ~string](dst []byte, ss []S) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = AppendString(dst, string(s))
	}
	return dst
}

// AppendBool appends b as one byte.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendUTC appends the instant t as the byte string of t.UTC()'s binary
// marshalling: the same 16 bytes whatever zone t carries. UTC has no zone
// offset for the marshalling to reject, hence no error.
func AppendUTC(dst []byte, t time.Time) []byte {
	dst, _ = t.UTC().AppendBinary(append(dst, 15))
	return dst
}

// Dec decodes the primitives appended by the Append helpers with a
// sticky error: after the first malformed field every further read
// returns a zero value, so schema decoders can run straight-line and
// check Err once at the end.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a decoder over b. The decoder never mutates b; Bytes
// and String results are copies, safe to retain, and View's are not.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decode error, or nil.
func (d *Dec) Err() error { return d.err }

// Finish returns ErrCodec-wrapped context if decoding failed or left
// trailing bytes.
func (d *Dec) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(d.b)-d.off)
	}
	return nil
}

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrCodec, what, d.off)
	}
}

// DecodeCapHint bounds the slice/map capacity record schemas
// pre-allocate from a decoded element count: even a count that passes
// its bound is a corrupt record's claim, so decoders grow past this
// hint instead of trusting it.
const DecodeCapHint = 4096

// Count reads a uvarint element count and fails the decode when it
// exceeds bound — the most elements any valid encoding of the record
// could hold (typically the payload length, since every element costs
// at least one byte). On over-claim it returns 0, so a following
// `for range` loop is a no-op and Finish reports the poisoned decode.
// Pre-allocate with min(count, DecodeCapHint).
func (d *Dec) Count(what string, bound uint64) uint64 {
	n := d.Uvarint()
	if d.err == nil && n > bound {
		d.fail(fmt.Sprintf("claimed %d %s, bound %d", n, what, bound))
		return 0
	}
	return n
}

// Remaining returns the number of bytes not yet read: the bound Count
// wants from a decoder whose every element costs at least one byte.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

// Consumed returns the input read so far, uncopied, as View does: the
// bytes a run of reads decoded are Consumed()[start:], where start is the
// length of Consumed before them.
func (d *Dec) Consumed() []byte { return d.b[:d.off] }

// Byte reads one raw byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Bool reads one boolean byte.
func (d *Dec) Bool() bool {
	switch d.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid bool")
		return false
	}
}

// Tag reads a record's format tag and fails the decode unless it is want.
func (d *Dec) Tag(want byte) {
	if got := d.Byte(); d.err == nil && got != want {
		d.fail(fmt.Sprintf("record tag 0x%02x, want 0x%02x", got, want))
	}
}

// Uvarint reads a uvarint. A padded encoding (a final zero byte behind a
// continuation) is malformed: the encoder never writes one.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 || (n > 1 && d.b[d.off+n-1] == 0) {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

// View reads a length-prefixed byte string and returns the input bytes it
// announces, uncopied: a view of the decoder's input, valid as long as that
// is, and never to be written through.
func (d *Dec) View() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail(fmt.Sprintf("byte string length %d exceeds remaining %d", n, len(d.b)-d.off))
		return nil
	}
	v := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return v
}

// Bytes reads a length-prefixed byte string, returning a copy (nil for a
// zero length).
func (d *Dec) Bytes() []byte {
	v := d.View()
	if len(v) == 0 {
		return nil
	}
	return append([]byte(nil), v...)
}

// String reads a length-prefixed string.
func (d *Dec) String() string { return string(d.View()) }

// Strings reads a list written by AppendStrings; an empty one is nil.
func Strings[S ~string](d *Dec, what string) []S {
	n := d.Count(what, uint64(d.Remaining()))
	if n == 0 {
		return nil
	}
	out := make([]S, 0, min(n, DecodeCapHint))
	for range n {
		out = append(out, S(d.String()))
		if d.err != nil {
			return nil
		}
	}
	return out
}

// Raw reads exactly n raw bytes into dst (fixed-width fields: hashes,
// addresses).
func (d *Dec) Raw(dst []byte) {
	if d.err != nil {
		return
	}
	if len(dst) > len(d.b)-d.off {
		d.fail(fmt.Sprintf("truncated fixed field of %d bytes", len(dst)))
		return
	}
	copy(dst, d.b[d.off:])
	d.off += len(dst)
}

// UTC reads a timestamp written by AppendUTC and fails on any other
// spelling of it (a zone offset, nanoseconds out of range), so an instant
// has one encoding. The result's location is time.UTC.
func (d *Dec) UTC() time.Time {
	start := d.off
	b := d.View()
	if d.err != nil {
		return time.Time{}
	}
	// Nanoseconds from 1e9 up to 2^30 marshal back as read, but they spell
	// a later instant.
	var t time.Time
	var canon [16]byte
	if t.UnmarshalBinary(b) != nil || t.Nanosecond() >= 1e9 || !bytes.Equal(AppendUTC(canon[:0], t), d.b[start:d.off]) {
		d.fail("timestamp not in UTC form")
		return time.Time{}
	}
	return t
}
