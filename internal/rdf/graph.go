package rdf

import (
	"cmp"
	"sort"
	"strings"
	"sync"
)

// Graph is an in-memory RDF graph with subject/predicate/object indexes.
//
// A Graph is safe for concurrent use. The zero value is not usable; create
// graphs with NewGraph.
type Graph struct {
	mu sync.RWMutex
	// spo is the canonical store: subject -> predicate -> object set.
	spo map[Term]map[Term]map[Term]struct{}
	// pos and osp are secondary indexes used by Match.
	pos map[Term]map[Term]map[Term]struct{}
	osp map[Term]map[Term]map[Term]struct{}
	n   int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		spo: make(map[Term]map[Term]map[Term]struct{}),
		pos: make(map[Term]map[Term]map[Term]struct{}),
		osp: make(map[Term]map[Term]map[Term]struct{}),
	}
}

func addIndex(idx map[Term]map[Term]map[Term]struct{}, a, b, c Term) bool {
	m1, ok := idx[a]
	if !ok {
		m1 = make(map[Term]map[Term]struct{})
		idx[a] = m1
	}
	m2, ok := m1[b]
	if !ok {
		m2 = make(map[Term]struct{})
		m1[b] = m2
	}
	if _, exists := m2[c]; exists {
		return false
	}
	m2[c] = struct{}{}
	return true
}

// Add inserts a triple. It reports whether the triple was not already
// present.
func (g *Graph) Add(t Triple) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !addIndex(g.spo, t.S, t.P, t.O) {
		return false
	}
	addIndex(g.pos, t.P, t.O, t.S)
	addIndex(g.osp, t.O, t.S, t.P)
	g.n++
	return true
}

// Len returns the number of triples in the graph.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.n
}

// Match returns all triples matching the pattern. A zero Term in any
// position is a wildcard. The result is a fresh slice in deterministic
// (sorted) order.
func (g *Graph) Match(s, p, o Term) []Triple {
	g.mu.RLock()
	defer g.mu.RUnlock()

	var out []Triple
	switch {
	case !s.IsZero():
		for pp, objs := range g.spo[s] {
			if !p.IsZero() && pp != p {
				continue
			}
			for oo := range objs {
				if !o.IsZero() && oo != o {
					continue
				}
				out = append(out, Triple{S: s, P: pp, O: oo})
			}
		}
	case !p.IsZero():
		for oo, subs := range g.pos[p] {
			if !o.IsZero() && oo != o {
				continue
			}
			for ss := range subs {
				out = append(out, Triple{S: ss, P: p, O: oo})
			}
		}
	case !o.IsZero():
		for ss, preds := range g.osp[o] {
			for pp := range preds {
				out = append(out, Triple{S: ss, P: pp, O: o})
			}
		}
	default:
		for ss, m1 := range g.spo {
			for pp, objs := range m1 {
				for obj := range objs {
					out = append(out, Triple{S: ss, P: pp, O: obj})
				}
			}
		}
	}
	sortTriples(out)
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

func sortTriples(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := &ts[i], &ts[j]
		if c := compareTerms(a.S, b.S); c != 0 {
			return c < 0
		}
		if c := compareTerms(a.P, b.P); c != 0 {
			return c < 0
		}
		return compareTerms(a.O, b.O) < 0
	})
}
