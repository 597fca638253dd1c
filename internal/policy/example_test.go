package policy_test

import (
	"fmt"
	"time"

	"repro/internal/policy"
)

// ExamplePolicy_Evaluate shows the paper's running example: Bob's medical
// dataset may only be used for medical purposes.
func ExamplePolicy_Evaluate() {
	issued := time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC)
	p := policy.New("https://bob.pod/medical/ds1", "https://bob.pod/profile#me", issued)
	p.AllowedPurposes = []policy.Purpose{policy.PurposeMedicalResearch}

	ctx := policy.UsageContext{
		Now:         issued.Add(time.Hour),
		Purpose:     policy.PurposeMedicalResearch,
		Action:      policy.ActionUse,
		RetrievedAt: issued,
	}
	fmt.Println(p.Evaluate(ctx))

	ctx.Purpose = policy.PurposeMarketing
	fmt.Println(p.Evaluate(ctx))
	// Output:
	// permit
	// deny [purpose-not-allowed]
}
