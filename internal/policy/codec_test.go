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
