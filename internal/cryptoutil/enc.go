package cryptoutil

import (
	"encoding/hex"
	"strconv"
)

// Enc is the one field writer behind every canonical encoding in the
// repository — the bytes a signature covers or a hash commits to:
// chain's Tx, Header and Receipt, distexchange's Evidence and
// Certificate. An encoder makes one Enc with the capacity its
// fields need (20 bytes bound any integer) and chains the fields onto
// it, so a canonical form costs one allocation and no reflection.
//
// Every method appends exactly what the fmt verb named beside it
// prints. Those verbs were the first implementation, so the bytes are
// the wire format: transaction and block hashes, receipt roots and every
// stored signature depend on them, and the frozen vectors in each
// package's encoding tests pin them.
type Enc []byte

// Str appends s as is: %s, and the literal text of a format.
func (e Enc) Str(s string) Enc { return append(e, s...) }

// Sep appends the field separator '|'.
func (e Enc) Sep() Enc { return append(e, '|') }

// Uint appends v in decimal: %d.
func (e Enc) Uint(v uint64) Enc { return strconv.AppendUint(e, v, 10) }

// Int appends v in decimal: %d.
func (e Enc) Int(v int64) Enc { return strconv.AppendInt(e, v, 10) }

// Bool appends "true" or "false": %t.
func (e Enc) Bool(v bool) Enc { return strconv.AppendBool(e, v) }

// Hex appends b in lower-case hex: %x.
func (e Enc) Hex(b []byte) Enc { return hex.AppendEncode(e, b) }

// Hex0x appends "0x" and b in lower-case hex: %s of an Address or a Hash.
func (e Enc) Hex0x(b []byte) Enc { return hex.AppendEncode(append(e, '0', 'x'), b) }

// Quote appends s as a double-quoted Go string literal: %q.
func (e Enc) Quote(s string) Enc { return strconv.AppendQuote(e, s) }
