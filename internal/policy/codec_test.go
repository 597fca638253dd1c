package policy

import (
	"bytes"
	"encoding/json"
	"testing"
	"testing/quick"
	"time"

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
	if !bytes.Equal(AppendRecord(nil, back), AppendRecord(nil, p)) {
		t.Fatalf("policy changed across JSON round trip:\n%+v\n%+v", p, back)
	}
}

// TestCodecRoundTripProperty: random policies survive JSON and record
// round trips with identical record encodings.
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

		record := AppendRecord(nil, p)
		data, err := json.Marshal(p)
		if err != nil {
			return false
		}
		viaJSON := new(Policy)
		if err := json.Unmarshal(data, viaJSON); err != nil || !bytes.Equal(AppendRecord(nil, viaJSON), record) {
			return false
		}
		d := store.NewDec(record)
		viaRecord := new(Policy)
		DecodeRecord(d, viaRecord)
		return d.Finish() == nil && bytes.Equal(AppendRecord(nil, viaRecord), record)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestVocabularyWordsAreConstants: every action and purpose constant comes
// back from ActionOf and PurposeOf as itself, without allocating.
func TestVocabularyWordsAreConstants(t *testing.T) {
	for _, a := range []Action{ActionRead, ActionUse, ActionStore, ActionShare, ActionModify} {
		b := []byte(a)
		var got Action
		if allocs := testing.AllocsPerRun(100, func() { got = ActionOf(b) }); allocs != 0 || got != a {
			t.Errorf("ActionOf(%q) = %q with %.0f allocations, want the constant and 0", b, got, allocs)
		}
	}
	for _, p := range []Purpose{PurposeMedicalResearch, PurposeAcademic, PurposeWebAnalytics, PurposeMarketing, PurposeAny} {
		b := []byte(p)
		var got Purpose
		if allocs := testing.AllocsPerRun(100, func() { got = PurposeOf(b) }); allocs != 0 || got != p {
			t.Errorf("PurposeOf(%q) = %q with %.0f allocations, want the constant and 0", b, got, allocs)
		}
	}
}

// TestUnknownWordsAreCopies: a word outside the vocabulary decodes as a
// copy of its bytes, directly and inside a policy record, so overwriting
// the input afterwards leaves the decoded words as they were.
func TestUnknownWordsAreCopies(t *testing.T) {
	const word = "exfiltrate"
	b := []byte(word)
	a, p := ActionOf(b), PurposeOf(b)
	clear(b)
	if a != word || p != word {
		t.Errorf("after overwriting the input, ActionOf read %q and PurposeOf %q, want %q", a, p, word)
	}

	pol := fullPolicy()
	pol.AllowedActions = []Action{word, ActionRead}
	pol.AllowedPurposes = []Purpose{word, PurposeAcademic}
	record := AppendRecord(nil, pol)
	var got Policy
	d := store.NewDec(record)
	DecodeRecord(d, &got)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	clear(record)
	if got.AllowedActions[0] != word || got.AllowedPurposes[0] != word {
		t.Errorf("after overwriting the record, its words read %q and %q, want %q", got.AllowedActions[0], got.AllowedPurposes[0], word)
	}
}
