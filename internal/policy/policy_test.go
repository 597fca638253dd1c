package policy

import (
	"errors"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2023, 10, 9, 12, 0, 0, 0, time.UTC)

// alicePolicy models the paper's internet-browsing dataset policy:
// delete one month after storage.
func alicePolicy() *Policy {
	p := New("https://alice.pod/web/browsing.csv", "https://alice.pod/profile#me", t0)
	p.MaxRetention = 30 * 24 * time.Hour
	return p
}

// bobPolicy models the paper's medical dataset policy: medical purposes only.
func bobPolicy() *Policy {
	p := New("https://bob.pod/medical/ds1.ttl", "https://bob.pod/profile#me", t0)
	p.AllowedPurposes = []Purpose{PurposeMedicalResearch}
	return p
}

func TestNewDefaults(t *testing.T) {
	p := New("https://x/r", "https://x/profile#me", t0)
	if p.Version != 1 {
		t.Errorf("Version = %d, want 1", p.Version)
	}
	if p.ID != "https://x/r#policy" {
		t.Errorf("ID = %q", p.ID)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Policy)
		wantErr error
	}{
		{"valid", func(p *Policy) {}, nil},
		{"no id", func(p *Policy) { p.ID = "" }, ErrNoID},
		{"no resource", func(p *Policy) { p.ResourceIRI = "" }, ErrNoResource},
		{"no owner", func(p *Policy) { p.OwnerWebID = "" }, ErrNoOwner},
		{"zero version", func(p *Policy) { p.Version = 0 }, ErrZeroVersion},
		{"negative retention", func(p *Policy) { p.MaxRetention = -time.Hour }, ErrBadRetention},
		{"empty purpose", func(p *Policy) { p.AllowedPurposes = []Purpose{""} }, ErrEmptyPurpose},
		{"unknown action", func(p *Policy) { p.AllowedActions = []Action{"fly"} }, ErrUnknownAction},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := alicePolicy()
			tt.mutate(p)
			err := p.Validate()
			if tt.wantErr == nil && err != nil {
				t.Fatalf("Validate: %v, want nil", err)
			}
			if tt.wantErr != nil && !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate: %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestPermitsPurpose(t *testing.T) {
	tests := []struct {
		name    string
		allowed []Purpose
		purpose Purpose
		want    bool
	}{
		{"unconstrained", nil, PurposeMarketing, true},
		{"match", []Purpose{PurposeMedicalResearch}, PurposeMedicalResearch, true},
		{"mismatch", []Purpose{PurposeMedicalResearch}, PurposeMarketing, false},
		{"wildcard entry", []Purpose{PurposeAny}, PurposeMarketing, true},
		{"multi", []Purpose{PurposeAcademic, PurposeMedicalResearch}, PurposeAcademic, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := alicePolicy()
			p.AllowedPurposes = tt.allowed
			if got := p.PermitsPurpose(tt.purpose); got != tt.want {
				t.Errorf("PermitsPurpose(%q) = %t, want %t", tt.purpose, got, tt.want)
			}
		})
	}
}

func TestPermitsAction(t *testing.T) {
	p := alicePolicy()
	// Default set.
	for _, a := range []Action{ActionRead, ActionUse, ActionStore} {
		if !p.PermitsAction(a) {
			t.Errorf("default should permit %s", a)
		}
	}
	for _, a := range []Action{ActionShare, ActionModify} {
		if p.PermitsAction(a) {
			t.Errorf("default should not permit %s", a)
		}
	}
	// Explicit set.
	p.AllowedActions = []Action{ActionRead, ActionShare}
	if !p.PermitsAction(ActionShare) || p.PermitsAction(ActionUse) {
		t.Error("explicit action set not honoured")
	}
	// Sharing prohibition dominates.
	p.ProhibitSharing = true
	if p.PermitsAction(ActionShare) {
		t.Error("ProhibitSharing must override AllowedActions")
	}
}

func TestDeleteDeadline(t *testing.T) {
	retrieved := t0
	tests := []struct {
		name      string
		retention time.Duration
		expires   time.Time
		want      time.Time
		wantHas   bool
	}{
		{"none", 0, time.Time{}, time.Time{}, false},
		{"retention only", time.Hour, time.Time{}, retrieved.Add(time.Hour), true},
		{"expiry only", 0, t0.Add(2 * time.Hour), t0.Add(2 * time.Hour), true},
		{"expiry earlier", 5 * time.Hour, t0.Add(time.Hour), t0.Add(time.Hour), true},
		{"retention earlier", time.Hour, t0.Add(5 * time.Hour), retrieved.Add(time.Hour), true},
		{"alice one month", 30 * 24 * time.Hour, time.Time{}, retrieved.Add(30 * 24 * time.Hour), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := alicePolicy()
			p.MaxRetention = tt.retention
			p.ExpiresAt = tt.expires
			got, has := p.DeleteDeadline(retrieved)
			if has != tt.wantHas || (has && !got.Equal(tt.want)) {
				t.Errorf("DeleteDeadline = (%s, %t), want (%s, %t)", got, has, tt.want, tt.wantHas)
			}
		})
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := bobPolicy()
	c := p.Clone()
	c.AllowedPurposes[0] = PurposeMarketing
	if p.AllowedPurposes[0] != PurposeMedicalResearch {
		t.Fatal("Clone shares the purposes slice")
	}
}

func TestNextVersion(t *testing.T) {
	p := alicePolicy()
	next := p.NextVersion(t0.Add(48 * time.Hour))
	if next.Version != 2 {
		t.Errorf("Version = %d, want 2", next.Version)
	}
	if p.Version != 1 {
		t.Error("NextVersion mutated the receiver")
	}
	if !next.IssuedAt.Equal(t0.Add(48 * time.Hour)) {
		t.Error("IssuedAt not set")
	}
}

func TestSummary(t *testing.T) {
	p := bobPolicy()
	p.MaxUses = 3
	p.NotifyOnUse = true
	s := p.Summary()
	for _, want := range []string{"medical-research", "maxUses=3", "notify-on-use"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary %q missing %q", s, want)
		}
	}
	if s2 := New("https://x/r", "o", t0).Summary(); !strings.Contains(s2, "unconstrained") {
		t.Errorf("empty policy summary = %q", s2)
	}
}
