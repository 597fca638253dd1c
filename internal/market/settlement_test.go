package market

import (
	"testing"

	"repro/internal/cryptoutil"
)

// settlementFixture registers two owners and one consumer, attributes
// resources, and pays fees: 3 accesses to Alice's resource, 1 to Bob's.
func settlementFixture(t *testing.T) (*Service, string, string) {
	t.Helper()
	svc, _ := newMarket(t)
	alice := "https://alice.pod/profile#me"
	bob := "https://bob.pod/profile#me"
	consumerKey := cryptoutil.MustGenerateKey()
	consumer := "https://carol.example/profile#me"

	for _, webID := range []string{alice, bob} {
		k := cryptoutil.MustGenerateKey()
		if err := svc.Register(webID, "c", k.Address(), k.PublicBytes()); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Register(consumer, "c", consumerKey.Address(), consumerKey.PublicBytes()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Subscribe(consumer, PlanBasic); err != nil {
		t.Fatal(err)
	}

	svc.SetResourceOwner("https://alice.pod/r1", alice)
	svc.SetResourceOwner("https://bob.pod/r1", bob)

	for range 3 {
		if _, err := svc.PayFee(consumer, "https://alice.pod/r1"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.PayFee(consumer, "https://bob.pod/r1"); err != nil {
		t.Fatal(err)
	}
	return svc, alice, bob
}

func TestSettlementProportionalDistribution(t *testing.T) {
	svc, alice, bob := settlementFixture(t)

	fee := FeeFor(PlanBasic)
	if got := svc.Revenue(); got != 4*fee {
		t.Fatalf("Revenue = %d, want %d", got, 4*fee)
	}
	if svc.ownerAccesses[alice] != 3 || svc.ownerAccesses[bob] != 1 {
		t.Fatalf("accesses = %d/%d", svc.ownerAccesses[alice], svc.ownerAccesses[bob])
	}

	payouts, err := svc.Settle(0) // no margin: distribute everything
	if err != nil {
		t.Fatal(err)
	}
	if len(payouts) != 2 {
		t.Fatalf("payouts = %+v", payouts)
	}
	byOwner := map[string]Payout{}
	for _, p := range payouts {
		byOwner[p.OwnerWebID] = p
	}
	total := 4 * fee
	if byOwner[alice].Amount != uint64(total)*3/4 {
		t.Fatalf("alice amount = %d, want %d", byOwner[alice].Amount, uint64(total)*3/4)
	}
	if byOwner[bob].Amount != uint64(total)*1/4 {
		t.Fatalf("bob amount = %d, want %d", byOwner[bob].Amount, uint64(total)/4)
	}

	// Earnings credited to accounts.
	if earned := svc.accounts[alice].Earned; earned != byOwner[alice].Amount {
		t.Fatalf("alice Earned = %d", earned)
	}
	// Period reset.
	if svc.ownerAccesses[alice] != 0 {
		t.Fatal("accesses not reset after settlement")
	}
	if svc.Revenue() != 0 {
		t.Fatalf("undistributed revenue = %d after 0%% margin settle", svc.Revenue())
	}
}

func TestSettlementMargin(t *testing.T) {
	svc, alice, bob := settlementFixture(t)
	fee := FeeFor(PlanBasic)
	payouts, err := svc.Settle(25)
	if err != nil {
		t.Fatal(err)
	}
	var distributed uint64
	for _, p := range payouts {
		distributed += p.Amount
	}
	total := 4 * fee
	distributable := total * 75 / 100
	// Pro-rata integer division leaves at most len(payouts)-1 units of
	// rounding residue with the market.
	if distributed > distributable || distributable-distributed >= uint64(len(payouts)) {
		t.Fatalf("distributed = %d, want within %d of %d", distributed, len(payouts)-1, distributable)
	}
	// Market retains margin + rounding residue.
	if svc.Revenue() != total-distributed {
		t.Fatalf("retained = %d, want %d", svc.Revenue(), total-distributed)
	}
	_, _ = alice, bob
}

func TestSettlementEdgeCases(t *testing.T) {
	svc, _ := newMarket(t)

	t.Run("invalid margin", func(t *testing.T) {
		if _, err := svc.Settle(101); err == nil {
			t.Fatal("margin > 100% accepted")
		}
	})
	t.Run("nothing to settle", func(t *testing.T) {
		payouts, err := svc.Settle(10)
		if err != nil || payouts != nil {
			t.Fatalf("empty settle = %+v, %v", payouts, err)
		}
	})
	t.Run("unattributed resource pays nobody", func(t *testing.T) {
		k := cryptoutil.MustGenerateKey()
		consumer := "https://c.example/profile#me"
		if err := svc.Register(consumer, "c", k.Address(), k.PublicBytes()); err != nil {
			t.Fatal(err)
		}
		if err := svc.Subscribe(consumer, PlanBasic); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.PayFee(consumer, "https://unattributed/r"); err != nil {
			t.Fatal(err)
		}
		payouts, err := svc.Settle(0)
		if err != nil {
			t.Fatal(err)
		}
		if payouts != nil {
			t.Fatalf("payouts for unattributed accesses: %+v", payouts)
		}
		// Revenue remains with the market until attributable.
		if svc.Revenue() == 0 {
			t.Fatal("revenue vanished")
		}
	})
}

// TestSettleConservesFundsForUnregisteredOwner: an owner attributed to a
// resource but holding no account is paid nothing, and their share stays
// in the market's revenue instead of leaving the books.
func TestSettleConservesFundsForUnregisteredOwner(t *testing.T) {
	svc, alice, _ := settlementFixture(t)
	consumer := "https://carol.example/profile#me"
	svc.SetResourceOwner("https://ghost.pod/r1", "https://ghost.pod/profile#me")
	if _, err := svc.PayFee(consumer, "https://ghost.pod/r1"); err != nil {
		t.Fatal(err)
	}
	fee := uint64(FeeFor(PlanBasic))

	payouts, err := svc.Settle(0)
	if err != nil {
		t.Fatal(err)
	}
	var paid uint64
	for _, p := range payouts {
		if p.OwnerWebID == "https://ghost.pod/profile#me" {
			t.Fatalf("payout to an owner without an account: %+v", p)
		}
		paid += p.Amount
	}
	if want := 5 * fee * 4 / 5; paid != want {
		t.Fatalf("registered owners were paid %d, want %d", paid, want)
	}
	if svc.accounts[alice].Earned != 5*fee*3/5 {
		t.Fatalf("alice earned %d, want %d", svc.accounts[alice].Earned, 5*fee*3/5)
	}
	feesPaid, earned, revenue := svc.Totals()
	if feesPaid != earned+revenue {
		t.Fatalf("fees paid %d != earned %d + revenue %d", feesPaid, earned, revenue)
	}
	if revenue != fee {
		t.Fatalf("revenue = %d, want the unregistered owner's share %d", revenue, fee)
	}
}
