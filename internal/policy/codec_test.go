package policy

import (
	"encoding/json"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rdf"
	"repro/internal/store"
)

func fullPolicy() *Policy {
	p := New("https://bob.pod/medical/ds1.ttl", "https://bob.pod/profile#me", t0)
	p.AllowedPurposes = []Purpose{PurposeMedicalResearch, PurposeAcademic}
	p.AllowedActions = []Action{ActionRead, ActionUse}
	p.MaxRetention = 7 * 24 * time.Hour
	p.ExpiresAt = t0.Add(90 * 24 * time.Hour)
	p.MaxUses = 100
	p.ProhibitSharing = true
	p.NotifyOnUse = true
	return p
}

// TestJSONRoundTrip: JSON is how a policy travels in transaction arguments.
func TestJSONRoundTrip(t *testing.T) {
	p := fullPolicy()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	back := new(Policy)
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if back.Hash() != p.Hash() {
		t.Fatalf("hash changed across JSON round trip:\n%+v\n%+v", p, back)
	}
	if back.MaxRetention != p.MaxRetention || back.MaxUses != p.MaxUses {
		t.Fatal("fields lost in round trip")
	}
}

func TestHashOrderIndependence(t *testing.T) {
	a := fullPolicy()
	b := fullPolicy()
	b.AllowedPurposes = []Purpose{PurposeAcademic, PurposeMedicalResearch}
	b.AllowedActions = []Action{ActionUse, ActionRead}
	if a.Hash() != b.Hash() {
		t.Fatal("hash depends on slice ordering")
	}
}

func TestHashDiscriminates(t *testing.T) {
	base := fullPolicy()
	mutations := []func(*Policy){
		func(p *Policy) { p.Version++ },
		func(p *Policy) { p.MaxRetention += time.Second },
		func(p *Policy) { p.MaxUses++ },
		func(p *Policy) { p.AllowedPurposes = p.AllowedPurposes[:1] },
		func(p *Policy) { p.ProhibitSharing = false },
		func(p *Policy) { p.NotifyOnUse = false },
		func(p *Policy) { p.ExpiresAt = p.ExpiresAt.Add(time.Minute) },
		func(p *Policy) { p.OwnerWebID = "https://eve.pod/profile#me" },
	}
	for i, mutate := range mutations {
		m := base.Clone()
		mutate(m)
		if m.Hash() == base.Hash() {
			t.Errorf("mutation %d did not change the hash", i)
		}
	}
}

func TestHashDoesNotMutate(t *testing.T) {
	p := fullPolicy()
	// Deliberately unsorted.
	p.AllowedPurposes = []Purpose{PurposeMedicalResearch, PurposeAcademic}
	p.Hash()
	if p.AllowedPurposes[0] != PurposeMedicalResearch {
		t.Fatal("Hash sorted the receiver's slices in place")
	}
}

func TestRDFRoundTrip(t *testing.T) {
	p := fullPolicy()
	g := p.ToGraph()
	back, err := FromGraph(g, p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != p.Hash() {
		t.Fatalf("hash changed across RDF round trip\noriginal: %+v\nback: %+v", p, back)
	}
}

func TestRDFRoundTripViaTurtle(t *testing.T) {
	p := fullPolicy()
	doc := rdf.SerializeTurtle(p.ToGraph(), map[string]string{"uc": UC})
	g, err := rdf.ParseTurtle(doc)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, doc)
	}
	back, err := FromGraph(g, p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != p.Hash() {
		t.Fatalf("hash changed across Turtle round trip:\n%s", doc)
	}
}

func TestFromGraphErrors(t *testing.T) {
	g := rdf.NewGraph()
	if _, err := FromGraph(g, "https://x#policy"); err == nil {
		t.Fatal("FromGraph on empty graph should fail")
	}
	// Wrong-typed version literal.
	id := rdf.IRI("https://x#policy")
	g.Add(rdf.T(id, rdf.IRI(rdf.RDFType), rdf.IRI(UC+"UsagePolicy")))
	g.Add(rdf.T(id, rdf.IRI(UC+"resource"), rdf.IRI("https://x")))
	g.Add(rdf.T(id, rdf.IRI(UC+"owner"), rdf.IRI("https://o")))
	g.Add(rdf.T(id, rdf.IRI(UC+"version"), rdf.Literal("not-a-number")))
	if _, err := FromGraph(g, "https://x#policy"); err == nil {
		t.Fatal("FromGraph should reject a non-integer version")
	}
}

// TestCodecRoundTripProperty: random policies survive JSON, record and RDF
// round trips with identical hashes.
func TestCodecRoundTripProperty(t *testing.T) {
	purposes := []Purpose{PurposeMedicalResearch, PurposeAcademic, PurposeWebAnalytics}
	actions := []Action{ActionRead, ActionUse, ActionStore, ActionShare, ActionModify}
	f := func(purposeMask, actionMask uint8, retentionMin uint16, maxUses uint8, flags uint8) bool {
		p := New("https://e.pod/r1", "https://e.pod/profile#me", t0)
		for i, pu := range purposes {
			if purposeMask&(1<<i) != 0 {
				p.AllowedPurposes = append(p.AllowedPurposes, pu)
			}
		}
		for i, a := range actions {
			if actionMask&(1<<i) != 0 {
				p.AllowedActions = append(p.AllowedActions, a)
			}
		}
		p.MaxRetention = time.Duration(retentionMin) * time.Minute
		p.MaxUses = uint64(maxUses)
		p.ProhibitSharing = flags&1 != 0
		p.NotifyOnUse = flags&2 != 0
		if flags&4 != 0 {
			p.ExpiresAt = t0.Add(time.Duration(retentionMin) * time.Hour)
		}

		data, err := json.Marshal(p)
		if err != nil {
			return false
		}
		viaJSON := new(Policy)
		if err := json.Unmarshal(data, viaJSON); err != nil || viaJSON.Hash() != p.Hash() {
			return false
		}
		d := store.NewDec(AppendRecord(nil, p))
		viaRecord := new(Policy)
		if DecodeRecord(d, viaRecord); d.Finish() != nil || viaRecord.Hash() != p.Hash() {
			return false
		}
		viaRDF, err := FromGraph(p.ToGraph(), p.ID)
		if err != nil || viaRDF.Hash() != p.Hash() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
