// Package rdf provides a minimal RDF data model: IRIs, literals, triples,
// an in-memory graph with pattern matching, and a Turtle serializer.
//
// The package implements exactly what the documents pods store and serve
// need: usage-policy documents, WebID profile documents and container
// listings are small graphs written out as Turtle. Nothing in the system
// reads Turtle back, so there is no parser. It is not a general-purpose
// RDF toolkit.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// TermKind discriminates the dynamic type of a Term.
type TermKind int

// Term kinds. They start at one so the zero value is invalid and cannot be
// mistaken for an IRI.
const (
	KindIRI TermKind = iota + 1
	KindLiteral
)

// String returns a short human-readable kind name.
func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "iri"
	case KindLiteral:
		return "literal"
	default:
		return fmt.Sprintf("termkind(%d)", int(k))
	}
}

// Term is an RDF term: an IRI or a literal.
//
// Terms are immutable value types. Two terms are equal (in the == sense)
// exactly when they denote the same RDF term, so Term values can be used as
// map keys.
type Term struct {
	kind TermKind
	// value holds the IRI string or the literal lexical form depending on
	// kind.
	value string
	// datatype is the datatype IRI for literals ("" means xsd:string).
	datatype string
}

// Common XSD datatype IRIs used by typed literals.
const (
	XSDString   = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger  = "http://www.w3.org/2001/XMLSchema#integer"
	XSDBoolean  = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDateTime = "http://www.w3.org/2001/XMLSchema#dateTime"
)

// IRI returns an IRI term.
func IRI(iri string) Term { return Term{kind: KindIRI, value: iri} }

// Literal returns a plain string literal.
func Literal(lexical string) Term {
	return Term{kind: KindLiteral, value: lexical}
}

// TypedLiteral returns a literal with an explicit datatype IRI.
func TypedLiteral(lexical, datatype string) Term {
	return Term{kind: KindLiteral, value: lexical, datatype: datatype}
}

// Integer returns an xsd:integer literal.
func Integer(v int64) Term {
	return TypedLiteral(strconv.FormatInt(v, 10), XSDInteger)
}

// Boolean returns an xsd:boolean literal.
func Boolean(v bool) Term {
	return TypedLiteral(strconv.FormatBool(v), XSDBoolean)
}

// Kind reports the kind of the term. The zero Term reports 0, which is not
// a valid kind.
func (t Term) Kind() TermKind { return t.kind }

// IsZero reports whether t is the zero Term (no kind).
func (t Term) IsZero() bool { return t.kind == 0 }

// Value returns the IRI string or the literal lexical form.
func (t Term) Value() string { return t.value }

// String renders the term in N-Triples-like syntax.
func (t Term) String() string {
	switch t.kind {
	case KindIRI:
		return "<" + t.value + ">"
	case KindLiteral:
		quoted := quoteLiteral(t.value)
		if t.datatype != "" && t.datatype != XSDString {
			return quoted + "^^<" + t.datatype + ">"
		}
		return quoted
	default:
		return "?"
	}
}

func quoteLiteral(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Triple is an RDF statement.
type Triple struct {
	S, P, O Term
}

// String renders the triple in N-Triples-like syntax.
func (t Triple) String() string {
	return fmt.Sprintf("%s %s %s .", t.S, t.P, t.O)
}

// T is a convenience constructor for a Triple.
func T(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// Well-known vocabulary IRIs used across the Solid substrate.
const (
	RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

	// Solid/LDP vocabulary subset.
	LDPContainer = "http://www.w3.org/ns/ldp#Container"
	LDPContains  = "http://www.w3.org/ns/ldp#contains"
)
