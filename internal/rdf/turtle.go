package rdf

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
)

// SerializeTurtle renders the graph as Turtle, grouping triples by subject
// and predicate, using the supplied prefix map (name -> IRI base). Output
// is deterministic.
func SerializeTurtle(g *Graph, prefixes map[string]string) string {
	var b strings.Builder

	names := make([]string, 0, len(prefixes))
	for name := range prefixes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "@prefix %s: <%s> .\n", name, prefixes[name])
	}
	if len(names) > 0 {
		b.WriteByte('\n')
	}

	shorten := func(t Term) string {
		if t.Kind() == KindIRI {
			if t.Value() == RDFType {
				return "a"
			}
			best := ""
			bestName := ""
			for _, name := range names {
				base := prefixes[name]
				if strings.HasPrefix(t.Value(), base) && len(base) > len(best) {
					local := t.Value()[len(base):]
					if isSafeLocal(local) {
						best = base
						bestName = name
					}
				}
			}
			if best != "" {
				return bestName + ":" + t.Value()[len(best):]
			}
		}
		return t.String()
	}

	triples := g.Triples()
	// Group by subject, then predicate, preserving the sorted order that
	// Triples already provides.
	for i := 0; i < len(triples); {
		s := triples[i].S
		fmt.Fprintf(&b, "%s", shorten(s))
		first := true
		for i < len(triples) && triples[i].S == s {
			pTerm := triples[i].P
			if first {
				fmt.Fprintf(&b, " %s ", shorten(pTerm))
				first = false
			} else {
				fmt.Fprintf(&b, " ;\n    %s ", shorten(pTerm))
			}
			firstObj := true
			for i < len(triples) && triples[i].S == s && triples[i].P == pTerm {
				if !firstObj {
					b.WriteString(", ")
				}
				b.WriteString(shorten(triples[i].O))
				firstObj = false
				i++
			}
		}
		b.WriteString(" .\n")
	}
	return b.String()
}

// isSafeLocal reports whether a local name can be emitted as a prefixed
// name without escaping.
func isSafeLocal(local string) bool {
	if local == "" {
		return true
	}
	for _, r := range local {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '-' && r != '_' {
			return false
		}
	}
	return true
}
