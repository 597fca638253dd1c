package policy

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/store"
)

func vecPolicies() []*Policy {
	at := time.Unix(1_696_809_600, 0).UTC()
	return []*Policy{
		{
			ID: "https://alice.example/data/hr.ttl#policy", ResourceIRI: "https://alice.example/data/hr.ttl",
			OwnerWebID: "https://alice.example/profile#me", Version: 3, IssuedAt: at,
			AllowedPurposes: []Purpose{PurposeMedicalResearch, PurposeAcademic}, AllowedActions: []Action{ActionUse, ActionRead},
			MaxRetention: 72 * time.Hour, ExpiresAt: at.Add(24 * time.Hour), MaxUses: 5, ProhibitSharing: true,
		},
		// No lists, zero times (negative UnixNano), the widest integers.
		{ID: "a|b", ResourceIRI: "ü", OwnerWebID: ";", Version: math.MaxUint64, MaxRetention: math.MinInt64, MaxUses: math.MaxUint64, NotifyOnUse: true},
	}
}

// randPolicy draws a policy with no regard for validity: separator and
// multi-byte characters in every string, zero times, nil lists, integers of
// every width.
func randPolicy(r *rand.Rand) *Policy {
	text := func() string {
		alphabet := []string{"", "a", "|", ";", ":", "p:", "ü", "\x00", "read", "https://"}
		var b strings.Builder
		for range r.Intn(6) {
			b.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		return b.String()
	}
	when := func() time.Time {
		if r.Intn(4) == 0 {
			return time.Time{}
		}
		return time.Unix(0, r.Int63()-r.Int63()).UTC()
	}
	p := &Policy{
		ID: text(), ResourceIRI: text(), OwnerWebID: text(), Version: r.Uint64() >> r.Intn(64), IssuedAt: when(),
		MaxRetention: time.Duration(r.Int63() - r.Int63()), ExpiresAt: when(), MaxUses: r.Uint64() >> r.Intn(64),
		ProhibitSharing: r.Intn(2) == 0, NotifyOnUse: r.Intn(2) == 0,
	}
	for range r.Intn(4) {
		p.AllowedPurposes = append(p.AllowedPurposes, Purpose(text()))
	}
	for range r.Intn(4) {
		p.AllowedActions = append(p.AllowedActions, Action(text()))
	}
	return p
}

// TestFrozenPolicyRecord pins the record encoding: the DE App's state, its
// gas and its event payloads are made of these bytes.
func TestFrozenPolicyRecord(t *testing.T) {
	want := []string{
		"202868747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c23706f6c6963792168747470733a2f2f616c6963652e6578616d706c652f646174612f68722e74746c2068747470733a2f2f616c6963652e6578616d706c652f70726f66696c65236d65030f010000000edcb5398000000000ffff02106d65646963616c2d72657365617263680861636164656d6963020375736504726561648080b49fdbf73a0f010000000edcb68b0000000000ffff050100",
		"2003617c6202c3bc013bffffffffffffffffff010f01000000000000000000000000ffff0000808080808080808080010f01000000000000000000000000ffffffffffffffffffffff010001",
	}
	for i, p := range vecPolicies() {
		if got := hex.EncodeToString(AppendRecord(nil, p)); got != want[i] {
			t.Errorf("policy %d record:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

// TestPolicyRecordRoundTrip: decode∘append is the identity on policies and
// append∘decode on their encodings, and RecordSize bounds the encoding.
func TestPolicyRecordRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	policies := vecPolicies()
	for range 1000 {
		policies = append(policies, randPolicy(r))
	}
	for i, p := range policies {
		enc := AppendRecord(nil, p)
		if len(enc) > RecordSize(p) {
			t.Fatalf("case %d: %d bytes, RecordSize %d", i, len(enc), RecordSize(p))
		}
		d := store.NewDec(enc)
		back := new(Policy)
		DecodeRecord(d, back)
		if err := d.Finish(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("case %d:\n got %+v\nwant %+v", i, back, p)
		}
		if again := AppendRecord(nil, back); !bytes.Equal(again, enc) {
			t.Fatalf("case %d: re-encoding differs", i)
		}
		// No proper prefix decodes, and neither does a record that opens
		// with another byte than the tag (a JSON policy's '{' included).
		for cut := range len(enc) {
			d := store.NewDec(enc[:cut])
			if DecodeRecord(d, new(Policy)); !errors.Is(d.Finish(), store.ErrCodec) {
				t.Fatalf("case %d: the %d-byte prefix decoded (%v)", i, cut, d.Finish())
			}
		}
		d = store.NewDec(append([]byte{'{'}, enc[1:]...))
		if DecodeRecord(d, new(Policy)); !errors.Is(d.Finish(), store.ErrCodec) {
			t.Fatalf("case %d: a '{'-opening record decoded", i)
		}
	}
}

// TestFrozenPolicyTurtle pins the .policy document the pod manager stores
// beside a resource: Policy.ToGraph written as Turtle under the uc prefix,
// with every optional field set and with none.
func TestFrozenPolicyTurtle(t *testing.T) {
	want := []string{
		`@prefix uc: <https://w3id.org/usagecontrol#> .

<https://bob.pod/medical/ds1.ttl#policy> a uc:UsagePolicy ;
    uc:allowedAction "read", "use" ;
    uc:allowedPurpose "academic", "medical-research" ;
    uc:expiresAt "2024-01-07T12:00:00Z"^^<http://www.w3.org/2001/XMLSchema#dateTime> ;
    uc:issuedAt "2023-10-09T12:00:00Z"^^<http://www.w3.org/2001/XMLSchema#dateTime> ;
    uc:maxRetentionNanos "604800000000000"^^<http://www.w3.org/2001/XMLSchema#integer> ;
    uc:maxUses "100"^^<http://www.w3.org/2001/XMLSchema#integer> ;
    uc:notifyOnUse "true"^^<http://www.w3.org/2001/XMLSchema#boolean> ;
    uc:owner <https://bob.pod/profile#me> ;
    uc:prohibitSharing "true"^^<http://www.w3.org/2001/XMLSchema#boolean> ;
    uc:resource <https://bob.pod/medical/ds1.ttl> ;
    uc:version "1"^^<http://www.w3.org/2001/XMLSchema#integer> .
`,
		`@prefix uc: <https://w3id.org/usagecontrol#> .

<https://bob.pod/medical/ds1.ttl#policy> a uc:UsagePolicy ;
    uc:issuedAt "2023-10-09T12:00:00Z"^^<http://www.w3.org/2001/XMLSchema#dateTime> ;
    uc:owner <https://bob.pod/profile#me> ;
    uc:resource <https://bob.pod/medical/ds1.ttl> ;
    uc:version "1"^^<http://www.w3.org/2001/XMLSchema#integer> .
`,
	}
	for i, p := range []*Policy{fullPolicy(), New("https://bob.pod/medical/ds1.ttl", "https://bob.pod/profile#me", t0)} {
		if got := rdf.SerializeTurtle(p.ToGraph(), map[string]string{"uc": UC}); got != want[i] {
			t.Errorf("policy %d document:\n%s\nwant:\n%s", i, got, want[i])
		}
	}
}
