package distexchange

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cryptoutil"
)

// keyCase is one set of key parts.
type keyCase struct {
	iri, pod string
	n, m     uint64
	a        cryptoutil.Address
}

// builtKeys builds every storage key and listing prefix of cs on b, as the
// contract builds them on Env.Key.
func builtKeys(b []byte, cs keyCase) map[string][]byte {
	n := cs.n
	clone := func(k []byte) []byte { return append([]byte(nil), k...) }
	return map[string][]byte{
		"podKey":           clone(podKey(b, cs.pod)),
		"resKey":           clone(resKey(b, cs.iri)),
		"devKey":           clone(devKey(b, cs.a)),
		"grantKey":         clone(grantKey(b, cs.iri, cs.a)),
		"grantPrefix":      clone(grantPrefix(b, cs.iri)),
		"roundSeqKey":      clone(roundSeqKey(b, cs.iri)),
		"evSeqKey":         clone(evSeqKey(b, cs.iri)),
		"violSeqKey":       clone(violSeqKey(b, cs.iri)),
		"roundKey":         clone(roundKey(b, cs.iri, cs.n)),
		"progressKey":      clone(progressKey(b, cs.iri, cs.n)),
		"pendingKey":       clone(pendingKey(b, cs.iri, cs.n, cs.a)),
		"evKey":            clone(evKey(b, cs.iri, cs.n, cs.m)),
		"violKey":          clone(violKey(b, cs.iri, cs.n, cs.m)),
		"ledgerPrefix/ev":  clone(ledgerPrefix(b, "ev", cs.iri, nil)),
		"ledgerPrefix/ev#": clone(ledgerPrefix(b, "ev", cs.iri, &n)),
		"ledgerPrefix/vl#": clone(ledgerPrefix(b, "viol", cs.iri, &n)),
	}
}

// fmtKeys is what the builders returned when they were written with fmt,
// string concatenation and Address.String: the layout the ledger's keys
// were laid down in.
func fmtKeys(cs keyCase) map[string]string {
	return map[string]string{
		"podKey":           "pod/" + cs.pod,
		"resKey":           "res/" + cs.iri,
		"devKey":           "dev/" + cs.a.String(),
		"grantKey":         "grant/" + cs.iri + "|" + cs.a.String(),
		"grantPrefix":      "grant/" + cs.iri + "|",
		"roundSeqKey":      "roundseq/" + cs.iri,
		"evSeqKey":         "evseq/" + cs.iri,
		"violSeqKey":       "violseq/" + cs.iri,
		"roundKey":         fmt.Sprintf("round/%s|%012d", cs.iri, cs.n),
		"progressKey":      fmt.Sprintf("roundprog/%s|%012d", cs.iri, cs.n),
		"pendingKey":       fmt.Sprintf("roundpend/%s|%012d|%s", cs.iri, cs.n, cs.a),
		"evKey":            fmt.Sprintf("ev/%s|%012d|%012d", cs.iri, cs.n, cs.m),
		"violKey":          fmt.Sprintf("viol/%s|%012d|%012d", cs.iri, cs.n, cs.m),
		"ledgerPrefix/ev":  "ev/" + cs.iri + "|",
		"ledgerPrefix/ev#": fmt.Sprintf("%s/%s|%012d|", "ev", cs.iri, cs.n),
		"ledgerPrefix/vl#": fmt.Sprintf("%s/%s|%012d|", "viol", cs.iri, cs.n),
	}
}

// TestKeyBuildersMatchFmtForms: every key builder appends exactly the key
// its fmt form wrote, on an empty buffer and behind a namespace, for the
// numbers at the edges of the zero padding (0, 1, 10¹²−1, 10¹² and
// 2⁶⁴−1), non-ASCII IRIs and WebIDs, and 1 000 seeded random cases.
func TestKeyBuildersMatchFmtForms(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	randAddr := func() (a cryptoutil.Address) {
		rng.Read(a[:])
		return a
	}
	edges := []uint64{0, 1, 999_999_999_999, 1_000_000_000_000, math.MaxUint64}
	iris := []string{
		"https://alice.pod/data/r1.ttl",
		"https://bücher.example/ökologie/daten.ttl",
		"https://例え.jp/データ/1",
		"urn:🙂:é́",
		"",
	}
	var cases []keyCase
	for i, n := range edges {
		for j, m := range edges {
			iri := iris[(i+j)%len(iris)]
			cases = append(cases, keyCase{iri: iri, pod: iris[j%len(iris)], n: n, m: m, a: randAddr()})
		}
	}
	runes := []rune("aZ09/:#.-_éöü日本語🙂́")
	randString := func() string {
		r := make([]rune, rng.Intn(40))
		for i := range r {
			r[i] = runes[rng.Intn(len(runes))]
		}
		return string(r)
	}
	randNum := func() uint64 {
		switch rng.Intn(3) {
		case 0:
			return edges[rng.Intn(len(edges))]
		case 1:
			return uint64(rng.Int63n(1_000_000_000_000))
		default:
			return rng.Uint64()
		}
	}
	for range 1000 {
		cases = append(cases, keyCase{iri: randString(), pod: randString(), n: randNum(), m: randNum(), a: randAddr()})
	}

	ns := "0x" + fmt.Sprintf("%040x", 36) + "/"
	for _, cs := range cases {
		want := fmtKeys(cs)
		for _, prefix := range []string{"", ns} {
			buf := append(make([]byte, 0, 256), prefix...)
			got := builtKeys(buf, cs)
			if len(got) != len(want) {
				t.Fatalf("%d builders checked, %d fmt forms", len(got), len(want))
			}
			for name, w := range want {
				if string(got[name]) != prefix+w {
					t.Fatalf("%s(%+v) on %q = %q, want %q", name, cs, prefix, got[name], prefix+w)
				}
			}
			if string(buf[:len(prefix)]) != prefix {
				t.Fatalf("building on %q changed the namespace to %q", prefix, buf[:len(prefix)])
			}
		}
	}
}

// TestKeyBuildersDoNotAllocate: on a buffer with room for the key, as
// Env.Key hands out, building one allocates nothing.
func TestKeyBuildersDoNotAllocate(t *testing.T) {
	const iri = "https://alice.pod/data/resource-0001.ttl"
	a := cryptoutil.MustGenerateKey().Address()
	buf := make([]byte, 0, 256)
	var round uint64 = 7
	if allocs := testing.AllocsPerRun(100, func() {
		pendingKey(buf, iri, 1<<40, a)
		evKey(buf, iri, round, 123_456)
		grantKey(buf, iri, a)
		ledgerPrefix(buf, "viol", iri, &round)
	}); allocs != 0 {
		t.Fatalf("%.0f allocations building four keys, want 0", allocs)
	}
}
