package core

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
	"repro/internal/podmanager"
	"repro/internal/policy"
	"repro/internal/solid"
	"repro/internal/tee"
)

// The paper's evaluation (§V) is qualitative: verdicts and a gas table,
// not timings. These tests pin those results; how fast anything runs is
// the repo benchmark's question (bash bench/run.sh).

// reverted asserts a DE App revert of the given method for the given
// reason.
func reverted(method, reason string) func(error) bool {
	return func(err error) bool {
		var re *distexchange.RevertError
		return errors.As(err, &re) && re.Method == method && strings.Contains(re.Reason, reason)
	}
}

// forbidden asserts a pod's HTTP 403 carrying the pod manager's reason.
func forbidden(reason error) func(error) bool {
	return func(err error) bool {
		var se *solid.StatusError
		return errors.As(err, &se) && se.Code == 403 && strings.Contains(se.Body, reason.Error())
	}
}

// TestPaperSecurityVerdicts is §V-2: each attack is rejected, and for its
// own reason — a rejection for any other reason would hide a hole.
func TestPaperSecurityVerdicts(t *testing.T) {
	d := newDeployment(t, Config{Validators: 2})
	ctx := context.Background()
	owner, iri := ownerWithResource(d, "owner", 1024, nil)
	consumer := must(d.NewConsumer("reader", policy.PurposeAny))
	must0(owner.Grant(ctx, consumer, "/data/r.bin", policy.PurposeAny))
	must0(consumer.Access(ctx, iri))

	attacks := []struct {
		name     string
		attempt  func() error
		rejected func(error) bool
	}{
		{"tampered evidence content", func() error {
			forged := must(consumer.App.Evidence(iri, 0))
			forged.Evidence.UseCount += 99 // tamper without re-signing
			_, err := consumer.DE.SubmitEvidence(ctx, forged)
			return err
		}, reverted("submitEvidence", "evidence signature invalid")},
		{"policy update by non-owner", func() error {
			v2 := owner.NewPolicy("/data/r.bin")
			v2.Version = 2
			_, err := consumer.DE.UpdatePolicy(ctx, distexchange.UpdatePolicyArgs{ResourceIRI: iri, Policy: v2})
			return err
		}, reverted("updatePolicy", "does not own")},
		{"unattested device registration", func() error {
			// Well formed and naming the pinned manufacturer, but unsigned.
			_, ca, err := cryptoutil.ParsePublicKey(d.Manufacturer.CAPublicBytes())
			must0(err)
			dev, m, now := consumer.Device.Key(), tee.MeasurementOf(TrustedAppIdentity), d.Clock.Now()
			unsigned := &cryptoutil.Certificate{
				Serial: 1, Subject: dev.Address(), SubjectKey: dev.PublicBytes(),
				Claims:    map[string]string{"measurement": hex.EncodeToString(m[:])},
				NotBefore: now.Add(-time.Hour), NotAfter: now.Add(time.Hour), Issuer: ca,
			}
			_, err = consumer.DE.RegisterDevice(ctx, unsigned.Encode())
			return err
		}, reverted("registerDevice", "certificate rejected")},
		{"malformed device certificate", func() error {
			_, err := consumer.DE.RegisterDevice(ctx, []byte(`{"serial":1}`))
			return err
		}, reverted("registerDevice", "decode certificate")},
		{"certificate for wrong resource", func() error {
			wrongCert := must(d.Market.PayFee(string(consumer.WebID), "https://other/resource"))
			client := solid.NewClient(consumer.WebID, consumer.Key, d.Clock)
			client.Decorate = must(podmanager.AttachCertificate(wrongCert))
			_, _, err := client.Get(iri)
			return err
		}, forbidden(podmanager.ErrCertificate)},
		{"anonymous pod write", func() error {
			anon := &solid.Client{Clock: d.Clock}
			return anon.Put(iri, "text/plain", []byte("defaced"))
		}, forbidden(podmanager.ErrPublishedImmutable)},
		{"tampered block", func() error {
			// Signed by an authority, but committing to a state root that
			// execution cannot reproduce.
			return must(d.InjectInvalidBlock(chain.InvalidStateRoot, 0, []int{1}))[1]
		}, func(err error) bool { return errors.Is(err, chain.ErrBadStateRoot) }},
	}
	for _, a := range attacks {
		t.Run(a.name, func(t *testing.T) {
			if err := a.attempt(); !a.rejected(err) {
				t.Fatalf("verdict = %v", err)
			}
		})
	}
}

// TestPaperGasTable is §V-4 affordability: the motivating scenario costs
// each of the eight DE App operations once, and what each costs is exact.
// Gas is the calldata charge (16 per argument byte) plus execution, and
// execution — reads, and 20 or 8 gas per stored or emitted record byte —
// depends on the workload alone, since records are fixed-width binary.
// Arguments are binary too, an address their 20 raw bytes, so their length
// follows from the workload as well, except for an ASN.1 signature, whose
// length varies by a byte or two: registerDevice's certificate and
// submitEvidence's evidence each end with one, so their rows pin the length
// less the signature.
func TestPaperGasTable(t *testing.T) {
	golden := map[string]struct{ exec, argBytes uint64 }{
		"registerPod":       {28_995, 84},
		"registerResource":  {34_415, 344},
		"registerDevice":    {28_700, 221}, // less the signature
		"recordGrant":       {29_060, 99},
		"confirmRetrieval":  {28_860, 45},
		"updatePolicy":      {35_751, 238},
		"requestMonitoring": {39_623, 45},
		"submitEvidence":    {37_091, 155}, // less the signature
	}
	d := newDeployment(t, Config{})
	ctx := context.Background()
	owner, iri := ownerWithResource(d, "alice", 4096, func(p *policy.Policy) {
		p.MaxRetention = 30 * 24 * time.Hour
	})
	consumer := must(d.NewConsumer("bob", policy.PurposeWebAnalytics))
	must0(owner.Grant(ctx, consumer, "/data/r.bin", policy.PurposeWebAnalytics))
	must0(consumer.Access(ctx, iri))
	must(consumer.Use(iri, policy.ActionUse))
	v2 := owner.NewPolicy("/data/r.bin")
	v2.Version = 2
	v2.MaxRetention = 7 * 24 * time.Hour
	must0(owner.ModifyPolicy(ctx, "/data/r.bin", v2))
	must0(consumer.WaitPolicyVersion(iri, 2, 5*time.Second))
	_, _, err := owner.Monitor(ctx, "/data/r.bin")
	must0(err)

	node := d.Nodes[0]
	seen := map[string]bool{}
	var sum uint64
	for n := uint64(1); n <= node.Height(); n++ {
		block := node.BlockByNumber(n)
		for i, tx := range block.Txs {
			want, ok := golden[tx.Method]
			if !ok || seen[tx.Method] {
				t.Fatalf("%s: want each of the eight operations exactly once", tx.Method)
			}
			seen[tx.Method] = true
			gas, argBytes := block.Receipts[i].GasUsed, uint64(len(tx.Args))
			if exec := gas - argBytes*chain.GasPerArgByte; exec != want.exec {
				t.Errorf("%s: %d gas to execute (%d less %d argument bytes), want %d", tx.Method, exec, gas, argBytes, want.exec)
			}
			if tx.Method == "registerDevice" || tx.Method == "submitEvidence" {
				argBytes -= uint64(trailingSignatureLen(t, tx.Args))
			}
			if argBytes != want.argBytes {
				t.Errorf("%s: %d argument bytes, want %d", tx.Method, argBytes, want.argBytes)
			}
			sum += gas
		}
	}
	if len(seen) != len(golden) {
		t.Fatalf("%d operations in the gas table, want %d: %v", len(seen), len(golden), seen)
	}
	if total := node.Costs().TotalSpent(); total != sum {
		t.Fatalf("TOTAL %d != Σ rows %d", total, sum)
	}
}

// trailingSignatureLen is the length of the ASN.1 ECDSA signature that ends
// args behind its one-byte length prefix: a SEQUENCE (0x30) whose length
// byte counts the rest of it.
func trailingSignatureLen(t *testing.T, args []byte) int {
	t.Helper()
	for n := min(73, len(args)-1); n >= 8; n-- {
		at := len(args) - n
		if args[at-1] == byte(n) && args[at] == 0x30 && args[at+1] == byte(n-2) {
			return n
		}
	}
	t.Fatalf("no signature at the end of % x", args)
	return 0
}

// TestPaperGasPerEvidence prices the table's submitEvidence row by the round:
// the pull-in oracle answers a round with one transaction, whose first
// evidence costs the row (37 091 to execute, the 21 000 base charge in it) and
// every further one the row less the base charge, exactly.
func TestPaperGasPerEvidence(t *testing.T) {
	const first, marginal = 37_091, 16_091
	d := newDeployment(t, Config{OracleFanout: true})
	ctx := context.Background()
	owner, iri := ownerWithResource(d, "alice", 4096, nil)
	for i := range 16 {
		// The table's consumer, sixteen times: one logged use each.
		c := must(d.NewConsumer(fmt.Sprintf("bob%02d", i), policy.PurposeWebAnalytics))
		must0(owner.Grant(ctx, c, "/data/r.bin", policy.PurposeWebAnalytics))
		must0(c.Access(ctx, iri))
		must(c.Use(iri, policy.ActionUse))
	}
	evidence, _, err := owner.Monitor(ctx, "/data/r.bin")
	must0(err)
	d.PullIn().Wait()
	if len(evidence) != 16 {
		t.Fatalf("%d evidence records, want 16", len(evidence))
	}
	node := d.Nodes[0]
	answers := 0
	for n := uint64(1); n <= node.Height(); n++ {
		block := node.BlockByNumber(n)
		for i, tx := range block.Txs {
			if tx.Method != "submitEvidence" {
				continue
			}
			answers++
			exec := block.Receipts[i].GasUsed - uint64(len(tx.Args))*chain.GasPerArgByte
			if want := uint64(first + 15*marginal); exec != want {
				t.Errorf("%d gas to execute 16 evidence, want %d + 15 × %d = %d", exec, first, marginal, want)
			}
		}
	}
	if answers != 1 {
		t.Fatalf("%d submitEvidence transactions for one round, want 1", answers)
	}
}

// TestPaperPolicyModificationReachesEveryHolder is Fig. 2-5 at more than
// one copy: a shortened retention reaches every holder, and every copy is
// gone once it expires.
func TestPaperPolicyModificationReachesEveryHolder(t *testing.T) {
	d := newDeployment(t, Config{})
	ctx := context.Background()
	owner, iri := ownerWithResource(d, "owner", 1024, func(p *policy.Policy) {
		p.MaxRetention = 30 * 24 * time.Hour
	})
	holders := holdersOf(t, d, owner, iri, "holder", 4)
	v2 := owner.NewPolicy("/data/r.bin")
	v2.Version = 2
	v2.MaxRetention = 7 * 24 * time.Hour
	must0(owner.ModifyPolicy(ctx, "/data/r.bin", v2))
	for _, c := range holders {
		must0(c.WaitPolicyVersion(iri, 2, 10*time.Second))
	}
	d.Clock.Advance(7*24*time.Hour + time.Minute)
	for i, c := range holders {
		if c.App.Holds(iri) {
			t.Errorf("holder %d still holds its copy after the new deadline", i)
		}
	}
}

// TestPaperRemuneration is the §V-4 economics: market revenue is paid out
// to owners in the order of the accesses their resources received.
func TestPaperRemuneration(t *testing.T) {
	d := newDeployment(t, Config{})
	ratios := []int{6, 3, 1}
	for i, ratio := range ratios {
		owner, iri := ownerWithResource(d, fmt.Sprintf("owner%d", i), 8, nil)
		holdersOf(t, d, owner, iri, fmt.Sprintf("c%d", i), ratio)
	}
	payouts, err := d.Market.Settle(10) // 10% market margin
	must0(err)
	amount := map[uint64]uint64{} // accesses → payout
	for _, p := range payouts {
		amount[p.Accesses] = p.Amount
	}
	if len(payouts) != len(ratios) || !(amount[6] > amount[3] && amount[3] > amount[1] && amount[1] > 0) {
		t.Fatalf("payouts not ordered by access share 6 > 3 > 1: %+v", payouts)
	}
}

// TestPaperRobustness is the §V-2 availability claim: a 4-validator
// cluster keeps committing with f = 0…3 validators down (any live
// authority may seal), and the live ones agree on the chain.
func TestPaperRobustness(t *testing.T) {
	for down := range 4 {
		t.Run(fmt.Sprintf("down=%d", down), func(t *testing.T) {
			d := newDeployment(t, Config{Validators: 4})
			owner := must(d.NewOwner("owner"))
			for i := range down {
				must0(d.FailValidator(1 + i))
			}
			before := d.Nodes[0].Height()
			for i := range 8 {
				must(owner.Manager.DE().RegisterPod(context.Background(), distexchange.RegisterPodArgs{
					OwnerWebID: fmt.Sprintf("%s/profile#p%d", owner.URL(), i),
					Location:   owner.URL() + "/",
				}))
			}
			if d.Nodes[0].Height() == before {
				t.Fatal("nothing committed")
			}
			for i := 1 + down; i < 4; i++ {
				if d.Nodes[i].Head().Hash() != d.Nodes[0].Head().Hash() {
					t.Fatalf("live validator %d diverged", i)
				}
			}
		})
	}
}
