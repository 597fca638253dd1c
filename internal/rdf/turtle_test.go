package rdf

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// TestSerializeTurtle pins the bytes SerializeTurtle writes: nothing in
// the system parses Turtle back, so the documents pods store are checked
// as text.
func TestSerializeTurtle(t *testing.T) {
	ex := "http://example.org/"
	tests := []struct {
		name     string
		triples  []Triple
		prefixes map[string]string
		want     string
	}{
		{
			// A literal's datatype is written in full whatever the prefixes.
			name: "subjects predicates and object lists",
			triples: []Triple{
				T(IRI(ex+"auth"), IRI(RDFType), IRI(ex+"Authorization")),
				T(IRI(ex+"auth"), IRI(ex+"agent"), IRI("https://alice.example/profile#me")),
				T(IRI(ex+"auth"), IRI(ex+"mode"), IRI(ex+"Read")),
				T(IRI(ex+"auth"), IRI(ex+"mode"), IRI(ex+"Write")),
				T(IRI(ex+"r"), IRI(ex+"count"), Integer(7)),
				T(IRI(ex+"r"), IRI(ex+"done"), Boolean(false)),
			},
			prefixes: map[string]string{"ex": ex, "xsd": "http://www.w3.org/2001/XMLSchema#"},
			want: `@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

ex:auth ex:agent <https://alice.example/profile#me> ;
    ex:mode ex:Read, ex:Write ;
    a ex:Authorization .
ex:r ex:count "7"^^<http://www.w3.org/2001/XMLSchema#integer> ;
    ex:done "false"^^<http://www.w3.org/2001/XMLSchema#boolean> .
`,
		},
		{
			name:    "no prefixes",
			triples: []Triple{T(IRI(ex+"s"), IRI(RDFType), IRI(ex+"T"))},
			want:    "<http://example.org/s> a <http://example.org/T> .\n",
		},
		{
			name: "longest prefix wins",
			triples: []Triple{
				T(IRI(ex+"deep/s"), IRI(ex+"p"), IRI(ex+"deep/o")),
			},
			prefixes: map[string]string{"ex": ex, "deep": ex + "deep/"},
			want: `@prefix deep: <http://example.org/deep/> .
@prefix ex: <http://example.org/> .

deep:s ex:p deep:o .
`,
		},
		{
			// A local name with anything but letters, digits, '-' and '_'
			// is written as a full IRI; an empty local name is safe.
			name: "unsafe local names",
			triples: []Triple{
				T(IRI(ex+"a/b"), IRI(ex+"p"), IRI(ex+"x.ttl")),
				T(IRI(ex+"c#d"), IRI(ex+"p"), IRI(ex)),
				T(IRI(ex+"ok-1_ü"), IRI(ex+"p"), IRI(ex+"with space")),
			},
			prefixes: map[string]string{"ex": ex},
			want: `@prefix ex: <http://example.org/> .

<http://example.org/a/b> ex:p <http://example.org/x.ttl> .
<http://example.org/c#d> ex:p ex: .
ex:ok-1_ü ex:p <http://example.org/with space> .
`,
		},
		{
			name: "literal escapes",
			triples: []Triple{
				T(IRI(ex+"s"), IRI(ex+"quote"), Literal(`say "hi"`)),
				T(IRI(ex+"s"), IRI(ex+"backslash"), Literal(`a\b`)),
				T(IRI(ex+"s"), IRI(ex+"newline"), Literal("line1\nline2\r\n")),
				T(IRI(ex+"s"), IRI(ex+"tab"), Literal("a\tb")),
				T(IRI(ex+"s"), IRI(ex+"unicode"), Literal("żółć ✓")),
				T(IRI(ex+"s"), IRI(ex+"empty"), Literal("")),
				T(IRI(ex+"s"), IRI(ex+"string"), TypedLiteral("s", XSDString)),
			},
			prefixes: map[string]string{"ex": ex},
			want: `@prefix ex: <http://example.org/> .

ex:s ex:backslash "a\\b" ;
    ex:empty "" ;
    ex:newline "line1\nline2\r\n" ;
    ex:quote "say \"hi\"" ;
    ex:string "s" ;
    ex:tab "a\tb" ;
    ex:unicode "żółć ✓" .
`,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := NewGraph()
			for _, tr := range tt.triples {
				g.Add(tr)
			}
			if got := SerializeTurtle(g, tt.prefixes); got != tt.want {
				t.Errorf("SerializeTurtle wrote:\n%s\nwant:\n%s\n(quoted: %q)", got, tt.want, got)
			}
		})
	}
}

func TestSerializeTurtleDeterminism(t *testing.T) {
	g := NewGraph()
	for i := range 20 {
		g.Add(tr(fmt.Sprintf("s%d", i), fmt.Sprintf("p%d", i%3), fmt.Sprintf("o%d", i%5)))
	}
	prefixes := map[string]string{"e": "http://e/"}
	first := SerializeTurtle(g, prefixes)
	for range 5 {
		if again := SerializeTurtle(g, prefixes); again != first {
			t.Fatal("serialization is not deterministic")
		}
	}
}

// TestFrozenTurtleDigest pins the bytes SerializeTurtle writes for seeded
// random graphs: terms of both kinds from a small alphabet, so values
// share prefixes, added in random order with repeats. The digest was
// computed when a graph was three nested indexes sorted on every read, so
// it shows the triple order and the deduplication unchanged.
func TestFrozenTurtleDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	words := []string{"a", "b", "ab", "ba", "p:", "x/y", "ü", "e/"}
	word := func() string {
		var b strings.Builder
		for range 1 + rng.Intn(3) {
			b.WriteString(words[rng.Intn(len(words))])
		}
		return b.String()
	}
	term := func() Term {
		switch rng.Intn(3) {
		case 0:
			return Literal(word())
		case 1:
			return TypedLiteral(word(), "http://e/"+word())
		}
		return IRI("http://e/" + word())
	}
	h := sha256.New()
	for range 200 {
		g := NewGraph()
		var added []Triple
		for range 1 + rng.Intn(40) {
			tr := T(IRI("http://e/"+word()), IRI("http://e/"+word()), term())
			if len(added) > 0 && rng.Intn(4) == 0 {
				tr = added[rng.Intn(len(added))]
			}
			added = append(added, tr)
			g.Add(tr)
		}
		io.WriteString(h, SerializeTurtle(g, map[string]string{"e": "http://e/"}))
	}
	const want = "92923b3336f50463186946c43bed7e3de4de6090b43ea2536ae1eac40cff9c3a"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
