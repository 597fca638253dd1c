// Package market implements the decentralized data market service of the
// motivating scenario (Section II): account registration with contact and
// subscription details, market-fee payments, and signed payment
// certificates that consumers present to Pod Managers as proof of payment
// during resource access.
package market

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simclock"
)

// Plan is a subscription tier.
type Plan string

// Subscription plans. Pricing is in abstract fee units; the economics are
// out of scope for the paper, so the plans only gate fee amounts.
const (
	PlanBasic   Plan = "basic"
	PlanPremium Plan = "premium"
)

// FeeFor returns the per-access fee for a plan.
func FeeFor(plan Plan) uint64 {
	switch plan {
	case PlanPremium:
		return 1
	default:
		return 5
	}
}

// CertificateTTL is the validity window of payment certificates.
const CertificateTTL = 24 * time.Hour

// Account is a registered market participant.
type Account struct {
	// WebID identifies the participant.
	WebID string
	// Address is the participant's key address; certificates are issued
	// to this key.
	Address cryptoutil.Address
	// Key is the participant's public key bytes.
	Key []byte
	// Contact is the account's contact details (scenario flavour).
	Contact string
	// Plan is the subscription tier ("" until subscribed).
	Plan Plan
	// FeesPaid accumulates paid fees, for the affordability experiment.
	FeesPaid uint64
	// Earned accumulates settlement payouts received as a data owner.
	Earned uint64
}

// Service is the market: an authority that registers accounts, takes fee
// payments, and issues payment certificates.
type Service struct {
	authority *cryptoutil.Authority
	clock     simclock.Clock

	mu             sync.Mutex
	accounts       map[string]*Account
	payments       uint64
	revenue        uint64
	resourceOwners map[string]string
	ownerAccesses  map[string]uint64
}

// Service errors.
var (
	ErrNoAccount      = errors.New("market: account not registered")
	ErrNotSubscribed  = errors.New("market: account has no subscription")
	ErrAlreadyExists  = errors.New("market: account already registered")
	ErrWrongRecipient = errors.New("market: certificate subject mismatch")
)

// NewService creates a market with a fresh signing authority.
func NewService(clock simclock.Clock) (*Service, error) {
	if clock == nil {
		clock = simclock.Real{}
	}
	authority, err := cryptoutil.NewAuthority()
	if err != nil {
		return nil, err
	}
	return &Service{
		authority:      authority,
		clock:          clock,
		accounts:       make(map[string]*Account),
		resourceOwners: make(map[string]string),
		ownerAccesses:  make(map[string]uint64),
	}, nil
}

// PublicBytes returns the market's public key, pinned by pod managers.
func (s *Service) PublicBytes() []byte { return s.authority.PublicBytes() }

// Register creates an account for a WebID bound to a key.
func (s *Service) Register(webID, contact string, addr cryptoutil.Address, key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.accounts[webID]; ok {
		return fmt.Errorf("%w: %s", ErrAlreadyExists, webID)
	}
	s.accounts[webID] = &Account{
		WebID:   webID,
		Address: addr,
		Key:     append([]byte(nil), key...),
		Contact: contact,
	}
	return nil
}

// Subscribe sets the account's plan.
func (s *Service) Subscribe(webID string, plan Plan) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	acct, ok := s.accounts[webID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoAccount, webID)
	}
	acct.Plan = plan
	return nil
}

// PayFee charges the consumer the market fee for a resource and issues a
// payment certificate binding (consumer key, resource) for CertificateTTL.
// This is the certificate Alice presents to Bob's Pod Manager in the
// motivating scenario.
func (s *Service) PayFee(consumerWebID, resourceIRI string) (*cryptoutil.Certificate, error) {
	s.mu.Lock()
	acct, ok := s.accounts[consumerWebID]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoAccount, consumerWebID)
	}
	if acct.Plan == "" {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotSubscribed, consumerWebID)
	}
	fee := FeeFor(acct.Plan)
	acct.FeesPaid += fee
	s.payments++
	s.revenue += fee
	if owner, ok := s.resourceOwners[resourceIRI]; ok {
		s.ownerAccesses[owner]++
	}
	addr, key, plan := acct.Address, acct.Key, acct.Plan
	s.mu.Unlock()

	now := s.clock.Now()
	cert, err := s.authority.IssueForKey(addr, key, map[string]string{
		"feePaid":  resourceIRI,
		"plan":     string(plan),
		"consumer": consumerWebID,
	}, now, now.Add(CertificateTTL))
	if err != nil {
		return nil, err
	}
	return cert, nil
}

// Payments returns the total number of fee payments processed.
func (s *Service) Payments() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.payments
}

// Verifier checks payment certificates against a pinned market identity.
// Pod Managers hold one.
type Verifier struct {
	// MarketKey is the market's public key bytes.
	MarketKey []byte
}

// VerifierFor pins a verifier to a service (convenience for in-process
// wiring; a remote pod manager would pin the key out of band).
func VerifierFor(s *Service) Verifier {
	return Verifier{MarketKey: s.PublicBytes()}
}

// Check validates a payment certificate for a resource access: issuer,
// signature, validity window, fee claim for the exact resource, and that
// the presenting key matches the certificate subject.
func (v Verifier) Check(certRaw []byte, presenterKey []byte, resourceIRI string, now time.Time) error {
	cert, err := cryptoutil.DecodeCertificate(certRaw)
	if err != nil {
		return err
	}
	if err := cert.Verify(v.MarketKey, now); err != nil {
		return err
	}
	if cert.Claims["feePaid"] != resourceIRI {
		return fmt.Errorf("market: certificate pays for %q, not %q", cert.Claims["feePaid"], resourceIRI)
	}
	if string(cert.SubjectKey) != string(presenterKey) {
		return ErrWrongRecipient
	}
	return nil
}
