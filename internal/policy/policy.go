package policy

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Purpose classifies the declared aim of a data use, e.g. "medical-research".
type Purpose string

// Common purposes used throughout the examples and experiments. The
// vocabulary is open: any non-empty string is a valid purpose.
const (
	PurposeMedicalResearch Purpose = "medical-research"
	PurposeAcademic        Purpose = "academic"
	PurposeWebAnalytics    Purpose = "web-analytics"
	PurposeMarketing       Purpose = "marketing"
	PurposeAny             Purpose = "*"
)

// Action is the operation a consumer performs on a resource copy.
type Action string

// The action vocabulary. ActionStore is implied by retrieval; ActionShare
// covers redistribution to third parties.
const (
	ActionRead   Action = "read"
	ActionUse    Action = "use"
	ActionStore  Action = "store"
	ActionShare  Action = "share"
	ActionModify Action = "modify"
)

// Policy is a usage policy attached to a resource. The zero value is not a
// valid policy; use New and the setters, or fill the fields and call
// Validate.
type Policy struct {
	// ID uniquely identifies the policy (typically "<resource-iri>#policy").
	ID string `json:"id"`
	// ResourceIRI is the resource the policy governs.
	ResourceIRI string `json:"resource"`
	// OwnerWebID identifies the data owner.
	OwnerWebID string `json:"owner"`
	// Version increases by one on every modification. Version numbers are
	// the propagation mechanism of the Fig. 2(5) policy-modification
	// process: TEEs compare versions to detect stale local copies.
	Version uint64 `json:"version"`
	// IssuedAt is the time this version was issued.
	IssuedAt time.Time `json:"issuedAt"`

	// AllowedPurposes restricts usage to the listed purposes. Empty or
	// containing PurposeAny means any purpose is acceptable.
	AllowedPurposes []Purpose `json:"allowedPurposes,omitempty"`
	// AllowedActions restricts the permitted actions. Empty means the
	// default set {read, use, store}.
	AllowedActions []Action `json:"allowedActions,omitempty"`
	// MaxRetention is the maximum duration a copy may be kept after
	// retrieval; 0 means unlimited.
	MaxRetention time.Duration `json:"maxRetentionNanos,omitempty"`
	// ExpiresAt is an absolute deletion deadline; the zero time means none.
	ExpiresAt time.Time `json:"expiresAt,omitempty"`
	// MaxUses caps the number of uses of a copy; 0 means unlimited.
	MaxUses uint64 `json:"maxUses,omitempty"`
	// ProhibitSharing forbids redistribution of the copy.
	ProhibitSharing bool `json:"prohibitSharing,omitempty"`
	// NotifyOnUse obliges the consumer device to log and report every use
	// during policy monitoring.
	NotifyOnUse bool `json:"notifyOnUse,omitempty"`
}

// New returns a version-1 policy for a resource with the default action
// set and no constraints.
func New(resourceIRI, ownerWebID string, issuedAt time.Time) *Policy {
	return &Policy{
		ID:          resourceIRI + "#policy",
		ResourceIRI: resourceIRI,
		OwnerWebID:  ownerWebID,
		Version:     1,
		IssuedAt:    issuedAt,
	}
}

// Validation errors.
var (
	ErrNoID          = errors.New("policy: missing id")
	ErrNoResource    = errors.New("policy: missing resource IRI")
	ErrNoOwner       = errors.New("policy: missing owner")
	ErrZeroVersion   = errors.New("policy: version must be >= 1")
	ErrBadRetention  = errors.New("policy: negative retention")
	ErrEmptyPurpose  = errors.New("policy: empty purpose string")
	ErrUnknownAction = errors.New("policy: unknown action")
)

// actionWords is the closed action vocabulary.
var actionWords = []Action{ActionRead, ActionUse, ActionStore, ActionShare, ActionModify}

// purposeWords are the purpose constants. The vocabulary stays open: they
// only spare PurposeOf a copy.
var purposeWords = []Purpose{PurposeMedicalResearch, PurposeAcademic, PurposeWebAnalytics, PurposeMarketing, PurposeAny}

// Validate checks structural well-formedness.
func (p *Policy) Validate() error {
	if err := checkScalars(len(p.ID), len(p.ResourceIRI), len(p.OwnerWebID), p.Version, p.MaxRetention); err != nil {
		return err
	}
	for _, pu := range p.AllowedPurposes {
		if err := checkPurpose(pu); err != nil {
			return err
		}
	}
	for _, a := range p.AllowedActions {
		if err := checkAction(a); err != nil {
			return err
		}
	}
	return nil
}

// The rules of Validate and PermitsPurpose, field by field, which a Policy
// and a Record apply alike.

// checkScalars is Validate's rule for the fields that are not lists, given
// the lengths of the three strings.
func checkScalars(id, resourceIRI, ownerWebID int, version uint64, maxRetention time.Duration) error {
	switch {
	case id == 0:
		return ErrNoID
	case resourceIRI == 0:
		return ErrNoResource
	case ownerWebID == 0:
		return ErrNoOwner
	case version == 0:
		return ErrZeroVersion
	case maxRetention < 0:
		return ErrBadRetention
	}
	return nil
}

// checkPurpose is Validate's rule for one allowed purpose.
func checkPurpose[S ~string | ~[]byte](pu S) error {
	if len(pu) == 0 {
		return ErrEmptyPurpose
	}
	return nil
}

// checkAction is Validate's rule for one allowed action: the vocabulary is
// closed.
func checkAction[S ~string | ~[]byte](a S) error {
	for _, w := range actionWords {
		if string(w) == string(a) {
			return nil
		}
	}
	return fmt.Errorf("%w: %q", ErrUnknownAction, a)
}

// permits is PermitsPurpose's rule for one allowed purpose of a non-empty
// list.
func permits[S ~string | ~[]byte](allowed S, purpose Purpose) bool {
	return string(allowed) == string(PurposeAny) || string(allowed) == string(purpose)
}

// Clone returns a deep copy.
func (p *Policy) Clone() *Policy {
	c := *p
	c.AllowedPurposes = append([]Purpose(nil), p.AllowedPurposes...)
	c.AllowedActions = append([]Action(nil), p.AllowedActions...)
	return &c
}

// NextVersion returns a clone with Version+1 and the new issue time,
// ready to be mutated by the caller before publication.
func (p *Policy) NextVersion(issuedAt time.Time) *Policy {
	c := p.Clone()
	c.Version++
	c.IssuedAt = issuedAt
	return c
}

// PermitsPurpose reports whether the purpose satisfies the purpose
// constraint.
func (p *Policy) PermitsPurpose(purpose Purpose) bool {
	if len(p.AllowedPurposes) == 0 {
		return true
	}
	for _, allowed := range p.AllowedPurposes {
		if permits(allowed, purpose) {
			return true
		}
	}
	return false
}

// PermitsAction reports whether the action is in the permitted set.
func (p *Policy) PermitsAction(action Action) bool {
	if action == ActionShare && p.ProhibitSharing {
		return false
	}
	if len(p.AllowedActions) == 0 {
		return action == ActionRead || action == ActionUse || action == ActionStore
	}
	for _, allowed := range p.AllowedActions {
		if allowed == action {
			return true
		}
	}
	return false
}

// DeleteDeadline returns the instant by which a copy retrieved at
// retrievedAt must be deleted, and whether such a deadline exists. When
// both a retention bound and an absolute expiry apply, the earlier wins.
func (p *Policy) DeleteDeadline(retrievedAt time.Time) (time.Time, bool) {
	var deadline time.Time
	has := false
	if p.MaxRetention > 0 {
		deadline = retrievedAt.Add(p.MaxRetention)
		has = true
	}
	if !p.ExpiresAt.IsZero() && (!has || p.ExpiresAt.Before(deadline)) {
		deadline = p.ExpiresAt
		has = true
	}
	return deadline, has
}

// Summary renders a short human-readable description, used by example
// binaries and logs.
func (p *Policy) Summary() string {
	var parts []string
	if len(p.AllowedPurposes) > 0 {
		ps := make([]string, len(p.AllowedPurposes))
		for i, pu := range p.AllowedPurposes {
			ps[i] = string(pu)
		}
		sort.Strings(ps)
		parts = append(parts, "purposes="+strings.Join(ps, ","))
	}
	if p.MaxRetention > 0 {
		parts = append(parts, "retention="+p.MaxRetention.String())
	}
	if !p.ExpiresAt.IsZero() {
		parts = append(parts, "expires="+p.ExpiresAt.UTC().Format(time.RFC3339))
	}
	if p.MaxUses > 0 {
		parts = append(parts, fmt.Sprintf("maxUses=%d", p.MaxUses))
	}
	if p.ProhibitSharing {
		parts = append(parts, "no-sharing")
	}
	if p.NotifyOnUse {
		parts = append(parts, "notify-on-use")
	}
	if len(parts) == 0 {
		parts = append(parts, "unconstrained")
	}
	return fmt.Sprintf("policy %s v%d [%s]", p.ID, p.Version, strings.Join(parts, " "))
}
