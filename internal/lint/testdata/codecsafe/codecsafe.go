// Package fixture exercises the codecsafe analyzer: tag constants must
// appear on both codec sides with distinct values, raw Uvarint results
// must not drive loops or allocations, and Count-derived sizes must be
// clamped with min(count, store.DecodeCapHint).
package fixture

import "repro/internal/store"

const (
	tagGood   byte = 0x01
	tagOrphan byte = 0x02 // want "record tag tagOrphan is encoded but has no decode case"
	tagGhost  byte = 0x03 // want "record tag tagGhost is decoded but never encoded"
	tagDead   byte = 0x04 // want "record tag tagDead is neither encoded nor decoded"
	tagDup    byte = 0x01 // want "record tag tagDup duplicates the value of tagGood" "record tag tagDup is encoded but has no decode case"
)

func appendRecord(buf []byte, body []byte) []byte {
	buf = append(buf, tagGood)
	buf = append(buf, tagOrphan)
	buf = append(buf, tagDup)
	return append(buf, body...)
}

func decodeRecord(d *store.Dec) bool {
	switch d.Byte() {
	case tagGood, tagGhost:
		return true
	}
	return false
}

// decodeSeq ranges over a raw Uvarint: a corrupt record's claimed count
// spins this loop unboundedly.
func decodeSeq(d *store.Dec) []uint64 {
	var out []uint64
	for range d.Uvarint() { // want "loop bounded by a raw Uvarint count"
		out = append(out, d.Uvarint())
	}
	return out
}

// decodeRaw sizes an allocation straight from a raw Uvarint.
func decodeRaw(d *store.Dec) []uint64 {
	n := d.Uvarint()
	out := make([]uint64, 0, n) // want "allocation sized by a raw Uvarint count"
	for i := uint64(0); i < n; i++ {
		out = append(out, d.Uvarint())
	}
	return out
}

// decodeUnclamped reads through Count but trusts the claim for sizing.
func decodeUnclamped(d *store.Dec) []uint64 {
	n := d.Count("items", 1<<20)
	out := make([]uint64, 0, n) // want "allocation sized by a decoded count without min"
	for i := uint64(0); i < n; i++ {
		out = append(out, d.Uvarint())
	}
	return out
}

// decodeGood is the sanctioned shape: bounds-checked Count, clamped cap.
func decodeGood(d *store.Dec) []uint64 {
	n := d.Count("items", 1<<20)
	out := make([]uint64, 0, min(n, store.DecodeCapHint))
	for i := uint64(0); i < n; i++ {
		out = append(out, d.Uvarint())
	}
	return out
}

// The DE App's record codec reads its tags through Dec.Tag inside the
// record's decode function. A record with only the append side is one the
// contract can store and nothing can read back.
const (
	tagGrantRecord   byte = 0x24
	tagReceiptRecord byte = 0x29 // want "record tag tagReceiptRecord is encoded but has no decode case"
)

func appendGrantRecord(dst []byte, purpose string) []byte {
	return store.AppendString(append(dst, tagGrantRecord), purpose)
}

func decodeGrantRecord(d *store.Dec) string {
	d.Tag(tagGrantRecord)
	return d.String()
}

func appendReceiptRecord(dst []byte, seq uint64) []byte {
	return store.AppendUvarint(append(dst, tagReceiptRecord), seq)
}
