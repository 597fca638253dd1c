package rdf

import (
	"testing"
)

func TestTermConstructorsAndAccessors(t *testing.T) {
	tests := []struct {
		name  string
		term  Term
		kind  TermKind
		value string
	}{
		{"iri", IRI("http://example.org/x"), KindIRI, "http://example.org/x"},
		{"plain literal", Literal("hello"), KindLiteral, "hello"},
		{"typed literal", TypedLiteral("5", XSDInteger), KindLiteral, "5"},
		{"integer", Integer(-42), KindLiteral, "-42"},
		{"boolean", Boolean(true), KindLiteral, "true"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.term.Kind(); got != tt.kind {
				t.Errorf("Kind() = %v, want %v", got, tt.kind)
			}
			if got := tt.term.Value(); got != tt.value {
				t.Errorf("Value() = %q, want %q", got, tt.value)
			}
		})
	}
}

func TestTermZero(t *testing.T) {
	var zero Term
	if !zero.IsZero() {
		t.Error("zero Term should report IsZero")
	}
	if IRI("x").IsZero() {
		t.Error("IRI should not report IsZero")
	}
}

func TestTermEqualityAsMapKey(t *testing.T) {
	m := map[Term]int{}
	m[IRI("http://a")] = 1
	m[IRI("http://a")] = 2
	m[Literal("http://a")] = 3
	m[TypedLiteral("1", XSDInteger)] = 4
	m[Literal("1")] = 5
	if len(m) != 4 {
		t.Fatalf("expected 4 distinct keys, got %d: %v", len(m), m)
	}
	if m[IRI("http://a")] != 2 {
		t.Error("IRI key should have been overwritten")
	}
}

func TestTermString(t *testing.T) {
	tests := []struct {
		term Term
		want string
	}{
		{IRI("http://e/x"), "<http://e/x>"},
		{Literal("hi"), `"hi"`},
		{Literal("say \"hi\"\n"), `"say \"hi\"\n"`},
		{TypedLiteral("3", XSDInteger), `"3"^^<` + XSDInteger + `>`},
		{TypedLiteral("s", XSDString), `"s"`},
	}
	for _, tt := range tests {
		if got := tt.term.String(); got != tt.want {
			t.Errorf("String() = %s, want %s", got, tt.want)
		}
	}
}

func TestTripleString(t *testing.T) {
	tr := T(IRI("http://s"), IRI("http://p"), Literal("o"))
	want := `<http://s> <http://p> "o" .`
	if got := tr.String(); got != want {
		t.Errorf("Triple.String() = %s, want %s", got, want)
	}
}

func TestTermKindString(t *testing.T) {
	if KindIRI.String() != "iri" || KindLiteral.String() != "literal" {
		t.Error("unexpected kind names")
	}
	if TermKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}
