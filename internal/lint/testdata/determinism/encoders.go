package fixture

// Consensus encoders — SigningBytes, Digest, Hash and append*/Append*
// functions — may not format by reflection: fmt's formatters, a %v verb
// and the strings.Builder that collects them are findings there and
// nowhere else. The typed-append form and fmt outside an encoder must
// lint clean.

import (
	"fmt"
	"strconv"
	"strings"
)

type record struct {
	seq  uint64
	name string
	raw  []byte
}

// SigningBytes is the fmt one-liner the analyzer exists to keep out.
func (r *record) SigningBytes() []byte {
	var b strings.Builder                                 // want "strings.Builder in consensus encoder SigningBytes"
	fmt.Fprintf(&b, "rec|%d|%s|%x", r.seq, r.name, r.raw) // want "fmt.Fprintf in consensus encoder SigningBytes"
	return []byte(b.String())
}

// Digest formats with %v through a local helper: the verb is the finding.
func (r *record) Digest() string {
	return render("rec|%v|%v", r.seq, r.name) // want "%v in consensus encoder Digest"
}

// Hash reports a fmt call once, not again for the %v inside it.
func (r *record) Hash() string {
	return fmt.Sprintf("%v", r.seq) // want "fmt.Sprintf in consensus encoder Hash"
}

func appendRecord(dst []byte, r *record) []byte {
	return fmt.Appendf(dst, "%d", r.seq) // want "fmt.Appendf in consensus encoder appendRecord"
}

func AppendName(dst []byte, r *record) []byte {
	return append(dst, fmt.Sprint(r.name)...) // want "fmt.Sprint in consensus encoder AppendName"
}

// appendTyped is the sanctioned form: typed appends, no reflection. An
// error built with fmt.Errorf is not part of the encoding.
func appendTyped(dst []byte, r *record) ([]byte, error) {
	if r.name == "" {
		return nil, fmt.Errorf("record %d has no name", r.seq)
	}
	dst = strconv.AppendUint(append(dst, "rec|"...), r.seq, 10)
	return append(append(dst, '|'), r.name...), nil
}

// String is not a consensus encoder: fmt and a builder are fine here.
func (r *record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "record %v", r.seq)
	return b.String()
}

func render(format string, args ...any) string { return fmt.Sprintf(format, args...) }
