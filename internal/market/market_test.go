package market

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simclock"
)

var t0 = time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC)

func newMarket(t *testing.T) (*Service, *simclock.Sim) {
	t.Helper()
	clk := simclock.NewSim(t0)
	svc, err := NewService(clk)
	if err != nil {
		t.Fatal(err)
	}
	return svc, clk
}

func TestRegisterAndSubscribe(t *testing.T) {
	svc, _ := newMarket(t)
	alice := cryptoutil.MustGenerateKey()
	if err := svc.Register("https://alice.pod/profile#me", "alice@example.org", alice.Address(), alice.PublicBytes()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("https://alice.pod/profile#me", "x", alice.Address(), alice.PublicBytes()); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("duplicate register: %v", err)
	}
	if err := svc.Subscribe("https://alice.pod/profile#me", PlanBasic); err != nil {
		t.Fatal(err)
	}
	if err := svc.Subscribe("https://nobody", PlanBasic); !errors.Is(err, ErrNoAccount) {
		t.Fatalf("subscribe unknown: %v", err)
	}
	acct := svc.accounts["https://alice.pod/profile#me"]
	if acct.Plan != PlanBasic || acct.Contact != "alice@example.org" {
		t.Fatalf("account = %+v", acct)
	}
}

func TestPayFeeIssuesValidCertificate(t *testing.T) {
	svc, clk := newMarket(t)
	alice := cryptoutil.MustGenerateKey()
	webID := "https://alice.pod/profile#me"
	resource := "https://bob.pod/medical/ds1.ttl"
	if err := svc.Register(webID, "c", alice.Address(), alice.PublicBytes()); err != nil {
		t.Fatal(err)
	}

	// Fee payment requires a subscription.
	if _, err := svc.PayFee(webID, resource); !errors.Is(err, ErrNotSubscribed) {
		t.Fatalf("unsubscribed PayFee: %v", err)
	}
	if err := svc.Subscribe(webID, PlanBasic); err != nil {
		t.Fatal(err)
	}
	cert, err := svc.PayFee(webID, resource)
	if err != nil {
		t.Fatal(err)
	}

	v := VerifierFor(svc)
	raw := cert.Encode()
	if err := v.Check(raw, alice.PublicBytes(), resource, clk.Now().Add(time.Hour)); err != nil {
		t.Fatalf("certificate check: %v", err)
	}

	// Fees accumulate.
	if acct := svc.accounts[webID]; acct.FeesPaid != FeeFor(PlanBasic) {
		t.Fatalf("FeesPaid = %d", acct.FeesPaid)
	}
	if svc.Payments() != 1 {
		t.Fatalf("Payments = %d", svc.Payments())
	}
}

// TestConcurrentPayFeeUniqueSerials: PayFee issues the certificate after
// releasing the service mutex, so consumers paying at once reach the
// authority's serial counter concurrently. Every certificate must still
// carry its own serial (run with -race: the unguarded counter was a data
// race whose visible effect was duplicate serials).
func TestConcurrentPayFeeUniqueSerials(t *testing.T) {
	svc, _ := newMarket(t)
	const payers, perPayer = 4, 50
	webIDs := make([]string, payers)
	for i := range webIDs {
		key := cryptoutil.MustGenerateKey()
		webIDs[i] = fmt.Sprintf("https://c%d.pod/profile#me", i)
		if err := svc.Register(webIDs[i], "c", key.Address(), key.PublicBytes()); err != nil {
			t.Fatal(err)
		}
		if err := svc.Subscribe(webIDs[i], PlanBasic); err != nil {
			t.Fatal(err)
		}
	}
	serials := make([][]uint64, payers)
	var wg sync.WaitGroup
	for i, webID := range webIDs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perPayer {
				cert, err := svc.PayFee(webID, "https://bob.pod/medical/ds1.ttl")
				if err != nil {
					t.Error(err)
					return
				}
				serials[i] = append(serials[i], cert.Serial)
			}
		}()
	}
	wg.Wait()
	seen := make(map[uint64]bool, payers*perPayer)
	for _, own := range serials {
		for _, s := range own {
			if seen[s] {
				t.Fatalf("certificate serial %d issued twice", s)
			}
			seen[s] = true
		}
	}
	if len(seen) != payers*perPayer {
		t.Fatalf("%d distinct serials, want %d", len(seen), payers*perPayer)
	}
}

func TestVerifierRejections(t *testing.T) {
	svc, clk := newMarket(t)
	alice := cryptoutil.MustGenerateKey()
	webID := "https://alice.pod/profile#me"
	resource := "https://bob.pod/medical/ds1.ttl"
	if err := svc.Register(webID, "c", alice.Address(), alice.PublicBytes()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Subscribe(webID, PlanPremium); err != nil {
		t.Fatal(err)
	}
	cert, err := svc.PayFee(webID, resource)
	if err != nil {
		t.Fatal(err)
	}
	raw := cert.Encode()
	v := VerifierFor(svc)
	now := clk.Now().Add(time.Minute)

	t.Run("wrong resource", func(t *testing.T) {
		if err := v.Check(raw, alice.PublicBytes(), "https://bob.pod/other", now); err == nil {
			t.Fatal("certificate accepted for another resource")
		}
	})
	t.Run("stolen certificate", func(t *testing.T) {
		eve := cryptoutil.MustGenerateKey()
		if err := v.Check(raw, eve.PublicBytes(), resource, now); !errors.Is(err, ErrWrongRecipient) {
			t.Fatalf("stolen certificate: %v", err)
		}
	})
	t.Run("expired certificate", func(t *testing.T) {
		if err := v.Check(raw, alice.PublicBytes(), resource, now.Add(CertificateTTL+time.Hour)); err == nil {
			t.Fatal("expired certificate accepted")
		}
	})
	t.Run("wrong market", func(t *testing.T) {
		other, err := NewService(clk)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifierFor(other).Check(raw, alice.PublicBytes(), resource, now); err == nil {
			t.Fatal("certificate from another market accepted")
		}
	})
	t.Run("garbage certificate", func(t *testing.T) {
		if err := v.Check([]byte("{"), alice.PublicBytes(), resource, now); err == nil {
			t.Fatal("garbage accepted")
		}
	})
}

func TestFeeSchedule(t *testing.T) {
	if FeeFor(PlanPremium) >= FeeFor(PlanBasic) {
		t.Fatal("premium should be cheaper per access than basic")
	}
}
