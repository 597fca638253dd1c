package chain

import (
	"encoding/hex"
	"strconv"
)

// textEnc is the field writer behind the chain's text forms: the bytes a
// Tx or Header signature covers and its hash commits to, and the bytes a
// Receipt digest commits to. An encoder makes one textEnc with the
// capacity its fields need (20 bytes bound any integer) and chains the
// fields onto it, so a form costs one allocation and no reflection.
//
// Every method appends exactly what the fmt verb named beside it prints.
// Those verbs were the first implementation, so the bytes are the wire
// format: transaction and block hashes, receipt roots and every stored
// signature depend on them, and the frozen vectors pin them.
type textEnc []byte

// Str appends s as is: %s, and the literal text of a format.
func (e textEnc) Str(s string) textEnc { return append(e, s...) }

// Sep appends the field separator '|'.
func (e textEnc) Sep() textEnc { return append(e, '|') }

// Uint appends v in decimal: %d.
func (e textEnc) Uint(v uint64) textEnc { return strconv.AppendUint(e, v, 10) }

// Int appends v in decimal: %d.
func (e textEnc) Int(v int64) textEnc { return strconv.AppendInt(e, v, 10) }

// Hex appends b in lower-case hex: %x.
func (e textEnc) Hex(b []byte) textEnc { return hex.AppendEncode(e, b) }

// Hex0x appends "0x" and b in lower-case hex: %s of an Address or a Hash.
func (e textEnc) Hex0x(b []byte) textEnc { return hex.AppendEncode(append(e, '0', 'x'), b) }
