package market

import (
	"fmt"
	"sort"
)

// Settlement implements the economic mechanism sketched in Section V-4 of
// the paper: "a subscription-based business model could offer an incentive
// mechanism that allows users to overcome the sharing costs and earn a
// remuneration upon access to their data ... a market profit
// redistribution to users, proportionately to the accesses granted to
// their data." The market attributes each paid access to the resource's
// owner and periodically settles accumulated revenue pro rata.

// Payout is one owner's share of a settlement.
type Payout struct {
	// OwnerWebID receives the payout.
	OwnerWebID string
	// Accesses is the number of paid accesses to the owner's resources in
	// the settled period.
	Accesses uint64
	// Amount is the fee units distributed to the owner.
	Amount uint64
}

// SetResourceOwner attributes a resource to an owner so its access fees
// count toward that owner's payouts. Pod managers call this at
// publication time.
func (s *Service) SetResourceOwner(resourceIRI, ownerWebID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resourceOwners[resourceIRI] = ownerWebID
}

// Revenue returns the undistributed fee revenue.
func (s *Service) Revenue() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.revenue
}

// Totals reports the market's money flows in one consistent view:
// feesPaid is every fee ever charged to consumers, earned is every
// settlement payout credited to owner accounts, and revenue is the
// undistributed remainder held by the market. Conservation of funds
// demands feesPaid == earned + revenue at every instant (the market
// mints and burns nothing); the scenario engine checks exactly that.
func (s *Service) Totals() (feesPaid, earned, revenue uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, acct := range s.accounts {
		feesPaid += acct.FeesPaid
		earned += acct.Earned
	}
	return feesPaid, earned, s.revenue
}

// Settle distributes the accumulated revenue to owners proportionally to
// the accesses their resources received, retaining marginPercent for the
// market, and resets the period. Earned amounts are credited to the
// owners' accounts. Rounding residue stays with the market, and so does
// the share of an attributed owner who holds no account.
func (s *Service) Settle(marginPercent uint64) ([]Payout, error) {
	if marginPercent > 100 {
		return nil, fmt.Errorf("market: margin %d%% > 100%%", marginPercent)
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	var totalAccesses uint64
	for _, n := range s.ownerAccesses {
		totalAccesses += n
	}
	if totalAccesses == 0 {
		return nil, nil
	}
	distributable := s.revenue * (100 - marginPercent) / 100

	owners := make([]string, 0, len(s.ownerAccesses))
	for owner := range s.ownerAccesses {
		owners = append(owners, owner)
	}
	sort.Strings(owners)

	payouts := make([]Payout, 0, len(owners))
	var distributed uint64
	for _, owner := range owners {
		n := s.ownerAccesses[owner]
		acct, ok := s.accounts[owner]
		if !ok {
			continue
		}
		amount := distributable * n / totalAccesses
		acct.Earned += amount
		distributed += amount
		payouts = append(payouts, Payout{OwnerWebID: owner, Accesses: n, Amount: amount})
	}
	// The market keeps its margin plus rounding residue.
	s.revenue -= distributed
	s.ownerAccesses = make(map[string]uint64)
	return payouts, nil
}
