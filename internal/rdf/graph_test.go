package rdf

import (
	"cmp"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// termSortKey is the joined key compareTerms orders by, built: the
// reference the comparator is checked against.
func termSortKey(t Term) string {
	return strings.Join([]string{t.kind.String(), t.value, t.datatype}, "\x00")
}

func tr(s, p, o string) Triple {
	return T(IRI("http://e/"+s), IRI("http://e/"+p), IRI("http://e/"+o))
}

func TestGraphAdd(t *testing.T) {
	g := NewGraph()
	if g.Len() != 0 {
		t.Fatalf("new graph Len = %d, want 0", g.Len())
	}
	if !g.Add(tr("s", "p", "o")) {
		t.Error("first Add should report true")
	}
	if g.Add(tr("s", "p", "o")) {
		t.Error("duplicate Add should report false")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
}

func TestGraphMatchWildcards(t *testing.T) {
	g := NewGraph()
	for _, t := range []Triple{
		tr("alice", "knows", "bob"),
		tr("alice", "knows", "carol"),
		tr("alice", "name", "a"),
		tr("bob", "knows", "carol"),
	} {
		g.Add(t)
	}

	tests := []struct {
		name    string
		s, p, o Term
		want    int
	}{
		{"all", Term{}, Term{}, Term{}, 4},
		{"by subject", IRI("http://e/alice"), Term{}, Term{}, 3},
		{"by subject+pred", IRI("http://e/alice"), IRI("http://e/knows"), Term{}, 2},
		{"by pred", Term{}, IRI("http://e/knows"), Term{}, 3},
		{"by object", Term{}, Term{}, IRI("http://e/carol"), 2},
		{"by pred+object", Term{}, IRI("http://e/knows"), IRI("http://e/carol"), 2},
		{"exact", IRI("http://e/bob"), IRI("http://e/knows"), IRI("http://e/carol"), 1},
		{"no match", IRI("http://e/zed"), Term{}, Term{}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := g.Match(tt.s, tt.p, tt.o)
			if len(got) != tt.want {
				t.Errorf("Match returned %d triples, want %d: %v", len(got), tt.want, got)
			}
		})
	}
}

func TestGraphMatchDeterministicOrder(t *testing.T) {
	g := NewGraph()
	for i := 9; i >= 0; i-- {
		g.Add(tr(fmt.Sprintf("s%d", i), "p", "o"))
	}
	first := g.Triples()
	for range 10 {
		again := g.Triples()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("non-deterministic order at %d: %v vs %v", i, first[i], again[i])
			}
		}
	}
	for i := 1; i < len(first); i++ {
		if termSortKey(first[i-1].S) > termSortKey(first[i].S) {
			t.Fatalf("triples not sorted: %v before %v", first[i-1], first[i])
		}
	}
}

func TestGraphConcurrentAccess(t *testing.T) {
	g := NewGraph()
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 100 {
				g.Add(tr(fmt.Sprintf("s%d-%d", w, i), "p", "o"))
				g.Match(Term{}, IRI("http://e/p"), Term{})
				g.Len()
			}
		}()
	}
	wg.Wait()
	if g.Len() != 800 {
		t.Fatalf("Len = %d, want 800", g.Len())
	}
}

// TestCompareTermsMatchesJoinedKey checks the in-place comparator against
// the joined key on seeded random terms drawn from a small alphabet that
// holds NUL, so values are often prefixes of one another and a NUL in a
// value meets the separator.
func TestCompareTermsMatchesJoinedKey(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	alphabet := []string{"", "\x00", "a", "b", "\x00a", "a\x00", "ab", "\xff", "literal", "iri"}
	str := func() string {
		var b strings.Builder
		for range rng.Intn(4) {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	term := func() Term {
		if rng.Intn(2) == 0 {
			return IRI(str())
		}
		return TypedLiteral(str(), str())
	}
	cases := [][2]Term{
		{IRI("a"), IRI("ab")},
		{IRI("ab"), IRI("a")},
		{IRI("a\x00"), IRI("a")},
		{TypedLiteral("a", "b"), TypedLiteral("a\x00b", "")},
		{TypedLiteral("a\x00b", ""), TypedLiteral("a", "b")},
		{TypedLiteral("a", "\x00"), TypedLiteral("a\x00", "")},
		{TypedLiteral("", ""), IRI("")},
		{Literal("x"), Literal("x")},
	}
	for range 20000 {
		cases = append(cases, [2]Term{term(), term()})
	}
	for _, c := range cases {
		want := cmp.Compare(termSortKey(c[0]), termSortKey(c[1]))
		if got := compareTerms(c[0], c[1]); got != want {
			t.Fatalf("compareTerms(%q, %q) = %d, want %d", termSortKey(c[0]), termSortKey(c[1]), got, want)
		}
	}
	a, b := TypedLiteral("a\x00b", XSDString), TypedLiteral("a", "b")
	if n := testing.AllocsPerRun(100, func() { compareTerms(a, b) }); n != 0 {
		t.Errorf("compareTerms allocates %.1f times per call, want 0", n)
	}
}
