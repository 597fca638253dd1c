package rdf

import (
	"cmp"
	"slices"
	"strings"
	"sync"
)

// Graph is an in-memory RDF graph: its triples, deduplicated and kept in
// the order Triples returns them, so writing a document out sorts nothing.
// Add finds a triple's place by binary search; the documents pods store
// (policies, profiles, container listings) are small or added in order,
// so the shifting stays cheap.
//
// A Graph is safe for concurrent use. The zero value is not usable; create
// graphs with NewGraph.
type Graph struct {
	mu      sync.RWMutex
	triples []Triple // sorted by compareTriples, no two equal
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// Add inserts a triple. It reports whether the triple was not already
// present.
func (g *Graph) Add(t Triple) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	i, _ := slices.BinarySearchFunc(g.triples, t, compareTriples)
	// Distinct terms can order as equal (a NUL in a value meets the
	// separator), so a tie is checked for identity, not just order.
	for j := i; j < len(g.triples) && compareTriples(g.triples[j], t) == 0; j++ {
		if g.triples[j] == t {
			return false
		}
	}
	g.triples = slices.Insert(g.triples, i, t)
	return true
}

// Len returns the number of triples in the graph.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.triples)
}

// Match returns all triples matching the pattern. A zero Term in any
// position is a wildcard. The result is a fresh slice in deterministic
// (sorted) order.
func (g *Graph) Match(s, p, o Term) []Triple {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if s.IsZero() && p.IsZero() && o.IsZero() {
		return slices.Clone(g.triples)
	}
	var out []Triple
	for _, t := range g.triples {
		if (s.IsZero() || t.S == s) && (p.IsZero() || t.P == p) && (o.IsZero() || t.O == o) {
			out = append(out, t)
		}
	}
	return out
}

// Triples returns every triple in deterministic order.
func (g *Graph) Triples() []Triple { return g.Match(Term{}, Term{}, Term{}) }

// compareTerms orders terms by kind + "\x00" + value + "\x00" + datatype,
// the parts compared in place rather than joined: the joined string's
// order, NUL bytes in a value included, without building it.
func compareTerms(a, b Term) int {
	pa := [...]string{a.kind.String(), "\x00", a.value, "\x00", a.datatype}
	pb := [...]string{b.kind.String(), "\x00", b.value, "\x00", b.datatype}
	return compareJoined(pa[:], pb[:])
}

// compareJoined compares the concatenation of a's parts with that of b's,
// as strings.Compare would compare the two joined strings.
func compareJoined(a, b []string) int {
	var x, y string
	for {
		for x == "" && len(a) > 0 {
			x, a = a[0], a[1:]
		}
		for y == "" && len(b) > 0 {
			y, b = b[0], b[1:]
		}
		if x == "" || y == "" {
			// One side is exhausted: it is the smaller unless both are.
			return cmp.Compare(len(x), len(y))
		}
		n := min(len(x), len(y))
		if c := strings.Compare(x[:n], y[:n]); c != 0 {
			return c
		}
		x, y = x[n:], y[n:]
	}
}

// compareTriples orders triples by subject, then predicate, then object.
func compareTriples(a, b Triple) int {
	if c := compareTerms(a.S, b.S); c != 0 {
		return c
	}
	if c := compareTerms(a.P, b.P); c != 0 {
		return c
	}
	return compareTerms(a.O, b.O)
}
