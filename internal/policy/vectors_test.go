package policy

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/cryptoutil"
)

// refCanonical is the canonical form Policy.Hash hashed at commit
// d71331e, where fmt built it; the frozen vectors below were printed
// there. The DE App anchors this hash on chain.
func refCanonical(p *Policy) string {
	c := p.Clone()
	sortPurposes(c.AllowedPurposes)
	sortActions(c.AllowedActions)
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%s|%d|%d|", c.ID, c.ResourceIRI, c.OwnerWebID, c.Version, c.IssuedAt.UnixNano())
	for _, pu := range c.AllowedPurposes {
		fmt.Fprintf(&b, "p:%s;", pu)
	}
	for _, a := range c.AllowedActions {
		fmt.Fprintf(&b, "a:%s;", a)
	}
	fmt.Fprintf(&b, "|%d|%d|%d|%t|%t",
		c.MaxRetention, c.ExpiresAt.UnixNano(), c.MaxUses, c.ProhibitSharing, c.NotifyOnUse)
	return b.String()
}

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

func TestFrozenPolicyHash(t *testing.T) {
	want := []string{
		"0xd3ece7bb83441aa604b7405ac98690579908c96c6f9da3cfdb7da1c402d2373f",
		"0x5890045b5825dd2b028327eb554ce2eae0465136796a47d2c618c64dd96bff65",
	}
	for i, p := range vecPolicies() {
		if got := p.Hash().String(); got != want[i] {
			t.Errorf("policy %d hash: got %s, want %s", i, got, want[i])
		}
	}
}

func TestPolicyHashMatchesFmtReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
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
		return time.Unix(0, r.Int63()-r.Int63())
	}
	for i := range 1000 {
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
		if got, want := p.Hash(), cryptoutil.HashOf([]byte(refCanonical(p))); got != want {
			t.Fatalf("case %d: Policy.Hash %s, reference %s over %q", i, got, want, refCanonical(p))
		}
	}
}
