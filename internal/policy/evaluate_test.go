package policy

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEvaluateScenarios(t *testing.T) {
	month := 30 * 24 * time.Hour
	week := 7 * 24 * time.Hour

	tests := []struct {
		name        string
		policy      func() *Policy
		ctx         UsageContext
		wantAllowed bool
		wantReasons []DenialReason
	}{
		{
			name:   "bob medical purpose ok",
			policy: bobPolicy,
			ctx: UsageContext{Now: t0.Add(time.Hour), Purpose: PurposeMedicalResearch,
				Action: ActionUse, RetrievedAt: t0},
			wantAllowed: true,
		},
		{
			name:   "bob wrong purpose denied",
			policy: bobPolicy,
			ctx: UsageContext{Now: t0.Add(time.Hour), Purpose: PurposeWebAnalytics,
				Action: ActionUse, RetrievedAt: t0},
			wantAllowed: false,
			wantReasons: []DenialReason{DenyPurpose},
		},
		{
			name:   "alice within retention ok",
			policy: alicePolicy,
			ctx: UsageContext{Now: t0.Add(month - time.Hour), Purpose: PurposeWebAnalytics,
				Action: ActionUse, RetrievedAt: t0},
			wantAllowed: true,
		},
		{
			name:   "alice after retention denied",
			policy: alicePolicy,
			ctx: UsageContext{Now: t0.Add(month + time.Hour), Purpose: PurposeWebAnalytics,
				Action: ActionUse, RetrievedAt: t0},
			wantAllowed: false,
			wantReasons: []DenialReason{DenyExpired},
		},
		{
			name: "alice shortened to one week denies at day 8",
			policy: func() *Policy {
				p := alicePolicy()
				p.MaxRetention = week
				p.Version = 2
				return p
			},
			ctx: UsageContext{Now: t0.Add(8 * 24 * time.Hour), Purpose: PurposeWebAnalytics,
				Action: ActionUse, RetrievedAt: t0},
			wantAllowed: false,
			wantReasons: []DenialReason{DenyExpired},
		},
		{
			name: "max uses exhausted",
			policy: func() *Policy {
				p := alicePolicy()
				p.MaxUses = 2
				return p
			},
			ctx: UsageContext{Now: t0.Add(time.Hour), Purpose: PurposeWebAnalytics,
				Action: ActionUse, RetrievedAt: t0, PriorUses: 2},
			wantAllowed: false,
			wantReasons: []DenialReason{DenyUsesSpent},
		},
		{
			name:   "share denied by default action set",
			policy: alicePolicy,
			ctx: UsageContext{Now: t0.Add(time.Hour), Purpose: PurposeWebAnalytics,
				Action: ActionShare, RetrievedAt: t0},
			wantAllowed: false,
			wantReasons: []DenialReason{DenyAction},
		},
		{
			name: "multiple reasons reported together",
			policy: func() *Policy {
				p := bobPolicy()
				p.MaxRetention = time.Hour
				p.MaxUses = 1
				return p
			},
			ctx: UsageContext{Now: t0.Add(2 * time.Hour), Purpose: PurposeMarketing,
				Action: ActionShare, RetrievedAt: t0, PriorUses: 5},
			wantAllowed: false,
			wantReasons: []DenialReason{DenyPurpose, DenyAction, DenyExpired, DenyUsesSpent},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := tt.policy().Evaluate(tt.ctx)
			if d.Allowed != tt.wantAllowed {
				t.Fatalf("Allowed = %t, want %t (%s)", d.Allowed, tt.wantAllowed, d)
			}
			for _, want := range tt.wantReasons {
				if !d.Deny(want) {
					t.Errorf("missing denial reason %s in %v", want, d.Reasons)
				}
			}
			if len(d.Reasons) != len(tt.wantReasons) {
				t.Errorf("Reasons = %v, want %v", d.Reasons, tt.wantReasons)
			}
		})
	}
}

func TestDecisionString(t *testing.T) {
	p := alicePolicy()
	allow := p.Evaluate(UsageContext{Now: t0, Purpose: PurposeAny, Action: ActionUse, RetrievedAt: t0})
	if got := allow.String(); got != "permit" {
		t.Errorf("permit String = %q", got)
	}
	deny := bobPolicy().Evaluate(UsageContext{Now: t0, Purpose: PurposeMarketing, Action: ActionUse, RetrievedAt: t0})
	if got := deny.String(); got != "deny [purpose-not-allowed]" {
		t.Errorf("deny String = %q", got)
	}
}

// TestEvaluateTimeMonotonicity: once a policy with a deadline denies with
// DenyExpired, any later instant also denies. Property-based over random
// offsets.
func TestEvaluateTimeMonotonicity(t *testing.T) {
	p := alicePolicy()
	f := func(offsetMinutes uint16, laterMinutes uint16) bool {
		now := t0.Add(time.Duration(offsetMinutes) * time.Minute)
		later := now.Add(time.Duration(laterMinutes) * time.Minute)
		ctx := UsageContext{Purpose: PurposeAny, Action: ActionUse, RetrievedAt: t0}
		ctx.Now = now
		first := p.Evaluate(ctx)
		ctx.Now = later
		second := p.Evaluate(ctx)
		if first.Deny(DenyExpired) && !second.Deny(DenyExpired) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEvaluatePurposeNarrowingMonotonicity: removing purposes from the
// allowed set never turns a denial into a permit.
func TestEvaluatePurposeNarrowingMonotonicity(t *testing.T) {
	purposes := []Purpose{PurposeMedicalResearch, PurposeAcademic, PurposeWebAnalytics, PurposeMarketing}
	f := func(allowMask, keepMask uint8, purposeIdx uint8) bool {
		var allowed []Purpose
		for i, pu := range purposes {
			if allowMask&(1<<i) != 0 {
				allowed = append(allowed, pu)
			}
		}
		if len(allowed) == 0 {
			return true // unconstrained; narrowing undefined
		}
		var narrowed []Purpose
		for i, pu := range allowed {
			if keepMask&(1<<i) != 0 {
				narrowed = append(narrowed, pu)
			}
		}
		if len(narrowed) == 0 {
			narrowed = allowed[:1]
		}
		ctx := UsageContext{Now: t0, Purpose: purposes[int(purposeIdx)%len(purposes)],
			Action: ActionUse, RetrievedAt: t0}

		wide := alicePolicy()
		wide.MaxRetention = 0
		wide.AllowedPurposes = allowed
		narrow := wide.Clone()
		narrow.AllowedPurposes = narrowed

		wideDecision := wide.Evaluate(ctx)
		narrowDecision := narrow.Evaluate(ctx)
		// If the wide policy denies on purpose, the narrowed one must too.
		return !(wideDecision.Deny(DenyPurpose) && !narrowDecision.Deny(DenyPurpose))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
