package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// RecordHeaderSize is the fixed per-record framing overhead: a 4-byte
// little-endian payload length followed by the payload's CRC-32 (IEEE).
const RecordHeaderSize = 8

// MaxRecordSize bounds a single record's payload. A decoded length above
// it is treated as corruption (a torn or overwritten header), so a bad
// length prefix can never drive a multi-gigabyte allocation.
const MaxRecordSize = 64 << 20

// Record decoding errors.
var (
	// ErrPartialRecord reports a record cut short by a crash: the buffer
	// ends inside the length prefix or inside the payload. It marks the
	// torn tail of a log.
	ErrPartialRecord = errors.New("store: partial record")
	// ErrCorruptRecord reports a record whose framing is intact but whose
	// content is not trustworthy: CRC mismatch or an impossible length.
	ErrCorruptRecord = errors.New("store: corrupt record")
)

// recordHeader returns the frame header that precedes payload on disk.
func recordHeader(payload []byte) [RecordHeaderSize]byte {
	var hdr [RecordHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	return hdr
}

// DecodeRecord decodes the first record in b. It returns the payload (a
// copy), the number of bytes the record occupies, and an error:
// ErrPartialRecord when b ends mid-record (the torn-tail case) and
// ErrCorruptRecord when the length is impossible or the CRC does not
// match. consumed is 0 on any error.
func DecodeRecord(b []byte) (payload []byte, consumed int, err error) {
	if len(b) < RecordHeaderSize {
		return nil, 0, fmt.Errorf("%w: %d header bytes of %d", ErrPartialRecord, len(b), RecordHeaderSize)
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n > MaxRecordSize {
		return nil, 0, fmt.Errorf("%w: length %d exceeds %d", ErrCorruptRecord, n, MaxRecordSize)
	}
	sum := binary.LittleEndian.Uint32(b[4:8])
	if len(b) < RecordHeaderSize+int(n) {
		return nil, 0, fmt.Errorf("%w: %d payload bytes of %d", ErrPartialRecord, len(b)-RecordHeaderSize, n)
	}
	body := b[RecordHeaderSize : RecordHeaderSize+int(n)]
	if crc32.ChecksumIEEE(body) != sum {
		return nil, 0, fmt.Errorf("%w: CRC mismatch", ErrCorruptRecord)
	}
	payload = make([]byte, n)
	copy(payload, body)
	return payload, RecordHeaderSize + int(n), nil
}
