package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"time"

	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
	"repro/internal/obs"
	"repro/internal/podmanager"
	"repro/internal/policy"
	"repro/internal/simclock"
	"repro/internal/solid"
	"repro/internal/store"
	"repro/internal/tee"
)

// Harness runs the experiment suite of EXPERIMENTS.md. Each method boots
// a fresh deployment, drives one experiment, and returns a Table whose
// shape is compared against the paper's qualitative claims.
type Harness struct {
	// Quick shrinks sweep sizes (used by -short tests).
	Quick bool
}

func (h *Harness) sweep(full []int) []int {
	if h.Quick && len(full) > 2 {
		return full[:2]
	}
	return full
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	return v
}

func must0(err error) {
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
}

// newOwnerWithResource boots an owner with one published resource of the
// given size and policy mutator.
func ownerWithResource(d *Deployment, name string, size int, mutate func(*policy.Policy)) (*Owner, string) {
	ctx := context.Background()
	o := must(d.NewOwner(name))
	must0(o.InitializePod(ctx, nil))
	data := bytes.Repeat([]byte("x"), size)
	must0(o.AddResource("/data/r.bin", "application/octet-stream", data))
	pol := o.NewPolicy("/data/r.bin")
	if mutate != nil {
		mutate(pol)
	}
	iri := must(o.Publish(ctx, "/data/r.bin", "exp resource", pol))
	return o, iri
}

// E1PodInitiation measures the Fig. 2(1) process: end-to-end latency and
// gas of registering pods through the push-in oracle.
func (h *Harness) E1PodInitiation() *Table {
	t := &Table{
		Title:  "E1 pod initiation (Fig. 2-1): latency and gas per registration",
		Header: []string{"pods", "avg_latency_us", "avg_gas", "total_gas"},
	}
	for _, n := range h.sweep([]int{1, 8, 32, 128}) {
		d := must(NewDeployment(Config{}))
		ctx := context.Background()
		owners := make([]*Owner, n)
		for i := range n {
			owners[i] = must(d.NewOwner(fmt.Sprintf("owner%d", i)))
		}
		start := time.Now()
		for _, o := range owners {
			must0(o.InitializePod(ctx, nil))
		}
		elapsed := time.Since(start)
		costs := d.Nodes[0].Costs().ByOperation()
		var avgGas, totalGas uint64
		for _, op := range costs {
			if op.Method == "registerPod" {
				avgGas, totalGas = op.AvgGas(), op.TotalGas
			}
		}
		t.Add(n, float64(elapsed.Microseconds())/float64(n), avgGas, totalGas)
		d.Close()
	}
	return t
}

// E2ResourceInitiation measures Fig. 2(2): publication latency and gas as
// the per-pod resource count grows.
func (h *Harness) E2ResourceInitiation() *Table {
	t := &Table{
		Title:  "E2 resource initiation (Fig. 2-2): latency and gas vs resources per pod",
		Header: []string{"resources", "avg_latency_us", "avg_gas", "index_size"},
	}
	for _, n := range h.sweep([]int{1, 16, 64, 256}) {
		d := must(NewDeployment(Config{}))
		ctx := context.Background()
		o := must(d.NewOwner("owner"))
		must0(o.InitializePod(ctx, nil))
		start := time.Now()
		for i := range n {
			path := fmt.Sprintf("/data/r%04d.bin", i)
			must0(o.AddResource(path, "application/octet-stream", []byte("payload")))
			must(o.Publish(ctx, path, "exp", nil))
		}
		elapsed := time.Since(start)
		var avgGas uint64
		for _, op := range d.Nodes[0].Costs().ByOperation() {
			if op.Method == "registerResource" {
				avgGas = op.AvgGas()
			}
		}
		consumer := must(d.NewConsumer("reader", policy.PurposeAny))
		catalog := must(consumer.ListCatalog())
		t.Add(n, float64(elapsed.Microseconds())/float64(n), avgGas, len(catalog))
		d.Close()
	}
	return t
}

// E3ResourceIndexing measures Fig. 2(3): pull-out oracle read latency as
// the on-chain index grows.
func (h *Harness) E3ResourceIndexing() *Table {
	t := &Table{
		Title:  "E3 resource indexing (Fig. 2-3): pull-out read latency vs index size",
		Header: []string{"index_size", "point_lookup_us", "full_listing_us"},
	}
	for _, n := range h.sweep([]int{16, 64, 256, 1024}) {
		d := must(NewDeployment(Config{}))
		ctx := context.Background()
		o := must(d.NewOwner("owner"))
		must0(o.InitializePod(ctx, nil))
		var lastIRI string
		for i := range n {
			path := fmt.Sprintf("/data/r%05d.bin", i)
			must0(o.AddResource(path, "application/octet-stream", []byte("p")))
			lastIRI = must(o.Publish(ctx, path, "exp", nil))
		}
		consumer := must(d.NewConsumer("reader", policy.PurposeAny))

		const lookups = 50
		start := time.Now()
		for range lookups {
			must(consumer.Index(lastIRI))
		}
		point := time.Since(start)

		start = time.Now()
		must(consumer.ListCatalog())
		listing := time.Since(start)

		t.Add(n, float64(point.Microseconds())/lookups, float64(listing.Microseconds()))
		d.Close()
	}
	return t
}

// E4ResourceAccess measures Fig. 2(4): end-to-end access latency
// (index + fee + certificate + HTTP fetch + TEE store + on-chain
// confirmation) against resource size.
func (h *Harness) E4ResourceAccess() *Table {
	t := &Table{
		Title:  "E4 resource access (Fig. 2-4): end-to-end latency vs resource size",
		Header: []string{"size_bytes", "access_latency_ms", "fetch_only_ms"},
	}
	for _, size := range h.sweep([]int{1 << 10, 64 << 10, 1 << 20, 8 << 20}) {
		d := must(NewDeployment(Config{}))
		ctx := context.Background()
		owner, iri := ownerWithResource(d, "owner", size, nil)
		consumer := must(d.NewConsumer("reader", policy.PurposeAny))
		must0(owner.Grant(ctx, consumer, "/data/r.bin", policy.PurposeAny))

		start := time.Now()
		must0(consumer.Access(ctx, iri))
		access := time.Since(start)

		// Fetch-only: plain authorized HTTP GET with a fresh certificate,
		// averaged over a few repetitions to smooth network jitter.
		cert := must(d.Market.PayFee(string(consumer.WebID), iri))
		decorate := must(podmanager.AttachCertificate(cert))
		client := solid.NewClient(consumer.WebID, consumer.Key, d.Clock)
		client.Decorate = podmanager.Decorators(decorate, podmanager.AttachTEEQuote(consumer.Device))
		const fetches = 5
		start = time.Now()
		for range fetches {
			_, _, err := client.Get(iri)
			must0(err)
		}
		fetch := time.Since(start) / fetches

		t.Add(size, float64(access.Microseconds())/1000, float64(fetch.Microseconds())/1000)
		d.Close()
	}
	return t
}

// E5PolicyModification measures Fig. 2(5): update propagation to all
// copy-holders and obligation execution, versus holder count.
func (h *Harness) E5PolicyModification() *Table {
	t := &Table{
		Title:  "E5 policy modification (Fig. 2-5): propagation latency vs copy holders",
		Header: []string{"holders", "propagation_ms", "deleted_after_expiry"},
	}
	for _, n := range h.sweep([]int{1, 4, 16, 64}) {
		d := must(NewDeployment(Config{}))
		ctx := context.Background()
		owner, iri := ownerWithResource(d, "owner", 1024, func(p *policy.Policy) {
			p.MaxRetention = 30 * 24 * time.Hour
		})
		consumers := make([]*Consumer, n)
		for i := range n {
			consumers[i] = must(d.NewConsumer(fmt.Sprintf("c%d", i), policy.PurposeWebAnalytics))
			must0(owner.Grant(ctx, consumers[i], "/data/r.bin", policy.PurposeWebAnalytics))
			must0(consumers[i].Access(ctx, iri))
		}

		v2 := owner.NewPolicy("/data/r.bin")
		v2.Version = 2
		v2.MaxRetention = 7 * 24 * time.Hour
		start := time.Now()
		must0(owner.ModifyPolicy(ctx, "/data/r.bin", v2))
		for _, c := range consumers {
			must0(c.WaitPolicyVersion(iri, 2, 10*time.Second))
		}
		propagation := time.Since(start)

		// Advance past the new deadline; every copy must be gone.
		d.Clock.Advance(7*24*time.Hour + time.Minute)
		deleted := 0
		for _, c := range consumers {
			if !c.App.Holds(iri) {
				deleted++
			}
		}
		t.Add(n, float64(propagation.Microseconds())/1000, fmt.Sprintf("%d/%d", deleted, n))
		d.Close()
	}
	return t
}

// E6PolicyMonitoring measures Fig. 2(6): monitoring round latency and
// evidence volume against the number of copy holders, and — at 16 holders —
// against the number of rounds the resource has been through before: a
// round costs its targets, not the history, so the prior_rounds=50 row must
// not read slower than the =0 row (it reads faster: the first round of a
// deployment also pays its cold start).
func (h *Harness) E6PolicyMonitoring() *Table {
	t := &Table{
		Title:  "E6 policy monitoring (Fig. 2-6): round latency vs holders and vs earlier rounds",
		Header: []string{"devices", "prior_rounds", "round_ms", "evidence", "violations"},
	}
	type monitorCase struct{ devices, prior int }
	var cases []monitorCase
	for _, n := range h.sweep([]int{1, 4, 16, 64}) {
		cases = append(cases, monitorCase{n, 0})
	}
	if !slices.Contains(cases, monitorCase{16, 0}) {
		cases = append(cases, monitorCase{16, 0}) // quick sweeps stop short of it
	}
	cases = append(cases, monitorCase{16, 50})
	for _, c := range cases {
		d := must(NewDeployment(Config{}))
		ctx := context.Background()
		owner, iri := ownerWithResource(d, "owner", 1024, nil)
		for i := range c.devices {
			holder := must(d.NewConsumer(fmt.Sprintf("c%d", i), policy.PurposeAny))
			must0(owner.Grant(ctx, holder, "/data/r.bin", policy.PurposeAny))
			must0(holder.Access(ctx, iri))
			_, err := holder.Use(iri, policy.ActionUse)
			must0(err)
		}
		for range c.prior {
			_, _, err := owner.Monitor(ctx, "/data/r.bin")
			must0(err)
		}
		start := time.Now()
		evidence, violations, err := owner.Monitor(ctx, "/data/r.bin")
		must0(err)
		elapsed := time.Since(start)
		t.Add(c.devices, c.prior, float64(elapsed.Microseconds())/1000, len(evidence), len(violations))
		d.Close()
	}
	return t
}

// E7LocalVsRemote quantifies the §V-1 privacy/latency claim: once the TEE
// holds a copy, local use avoids pod round trips.
func (h *Harness) E7LocalVsRemote() *Table {
	t := &Table{
		Title:  "E7 privacy (§V-1): local TEE use vs remote pod re-fetch",
		Header: []string{"size_bytes", "tee_use_us", "http_refetch_us", "speedup"},
	}
	for _, size := range h.sweep([]int{1 << 10, 64 << 10, 1 << 20}) {
		d := must(NewDeployment(Config{}))
		ctx := context.Background()
		owner, iri := ownerWithResource(d, "owner", size, nil)
		consumer := must(d.NewConsumer("reader", policy.PurposeAny))
		must0(owner.Grant(ctx, consumer, "/data/r.bin", policy.PurposeAny))
		must0(consumer.Access(ctx, iri))

		const reads = 30
		start := time.Now()
		for range reads {
			_, err := consumer.Use(iri, policy.ActionUse)
			must0(err)
		}
		local := time.Since(start)

		cert := must(d.Market.PayFee(string(consumer.WebID), iri))
		decorate := must(podmanager.AttachCertificate(cert))
		client := solid.NewClient(consumer.WebID, consumer.Key, d.Clock)
		client.Decorate = decorate
		start = time.Now()
		for range reads {
			_, _, err := client.Get(iri)
			must0(err)
		}
		remote := time.Since(start)

		localUS := float64(local.Microseconds()) / reads
		remoteUS := float64(remote.Microseconds()) / reads
		t.Add(size, localUS, remoteUS, remoteUS/localUS)
		d.Close()
	}
	return t
}

// E8Security exercises the §V-2 tamper cases end to end and reports that
// each is rejected.
func (h *Harness) E8Security() *Table {
	t := &Table{
		Title:  "E8 security (§V-2): attack rejection",
		Header: []string{"attack", "rejected"},
	}
	d := must(NewDeployment(Config{Validators: 2}))
	defer d.Close()
	ctx := context.Background()
	owner, iri := ownerWithResource(d, "owner", 1024, nil)
	consumer := must(d.NewConsumer("reader", policy.PurposeAny))
	must0(owner.Grant(ctx, consumer, "/data/r.bin", policy.PurposeAny))
	must0(consumer.Access(ctx, iri))

	report := func(name string, err error) { t.Add(name, err != nil) }

	// 1. Forged evidence signature.
	signed, err := consumer.App.Evidence(iri, 0)
	must0(err)
	forged := signed
	forged.Evidence.UseCount += 99 // tamper without re-signing
	_, err = consumer.DE.SubmitEvidence(ctx, forged)
	report("tampered evidence content", err)

	// 2. Policy update by a non-owner.
	v2 := owner.NewPolicy("/data/r.bin")
	v2.Version = 2
	_, err = consumer.DE.UpdatePolicy(ctx, distexchange.UpdatePolicyArgs{ResourceIRI: iri, Policy: v2})
	report("policy update by non-owner", err)

	// 3. Unattested device registration (certificate from the wrong CA).
	_, err = consumer.DE.RegisterDevice(ctx, []byte(`{"serial":1}`))
	report("unattested device registration", err)

	// 4. Pod access with a certificate for another resource.
	wrongCert := must(d.Market.PayFee(string(consumer.WebID), "https://other/resource"))
	decorate := must(podmanager.AttachCertificate(wrongCert))
	client := solid.NewClient(consumer.WebID, consumer.Key, d.Clock)
	client.Decorate = decorate
	_, _, err = client.Get(iri)
	report("certificate for wrong resource", err)

	// 5. Unauthenticated pod write.
	anon := &solid.Client{Clock: d.Clock}
	err = anon.Put(iri, "text/plain", []byte("defaced"))
	report("anonymous pod write", err)

	// 6. Tampered block rejected by a validator.
	head := d.Nodes[0].Head()
	bad := *head
	bad.Header.StateRoot = [32]byte{0xde, 0xad}
	err = d.Nodes[1].ApplyBlock(&bad, nil)
	report("tampered block", err)

	return t
}

// E9Gas reports the §V-4 affordability table: gas per DE App operation
// and cumulative cost of the motivating scenario.
func (h *Harness) E9Gas() *Table {
	t := &Table{
		Title:  "E9 affordability (§V-4): gas per DE App operation",
		Header: []string{"operation", "count", "avg_gas", "total_gas"},
	}
	d := must(NewDeployment(Config{}))
	defer d.Close()
	ctx := context.Background()

	// Run the full motivating scenario once.
	owner, iri := ownerWithResource(d, "alice", 4096, func(p *policy.Policy) {
		p.MaxRetention = 30 * 24 * time.Hour
	})
	consumer := must(d.NewConsumer("bob", policy.PurposeWebAnalytics))
	must0(owner.Grant(ctx, consumer, "/data/r.bin", policy.PurposeWebAnalytics))
	must0(consumer.Access(ctx, iri))
	_, err := consumer.Use(iri, policy.ActionUse)
	must0(err)
	v2 := owner.NewPolicy("/data/r.bin")
	v2.Version = 2
	v2.MaxRetention = 7 * 24 * time.Hour
	must0(owner.ModifyPolicy(ctx, "/data/r.bin", v2))
	must0(consumer.WaitPolicyVersion(iri, 2, 5*time.Second))
	_, _, err = owner.Monitor(ctx, "/data/r.bin")
	must0(err)

	for _, op := range d.Nodes[0].Costs().ByOperation() {
		t.Add(op.Method, op.Count, op.AvgGas(), op.TotalGas)
	}
	t.Add("TOTAL", "-", "-", d.Nodes[0].Costs().TotalSpent())
	return t
}

// E10Overhead compares resource access under the usage-control
// architecture against the plain-Solid baseline (§V-3 integrateability:
// usage control is an overlay whose cost shows up only on governed
// operations).
func (h *Harness) E10Overhead() *Table {
	t := &Table{
		Title:  "E10 overhead vs plain Solid: authorized read latency",
		Header: []string{"accesses", "baseline_us_per_op", "usage_control_us_per_op", "overhead_x"},
	}
	for _, n := range h.sweep([]int{10, 50, 200}) {
		// Baseline: plain Solid pod, WAC only.
		b := NewBaseline(time.Time{})
		bOwner := b.NewOwner("owner")
		must0(bOwner.Add("/data/r.bin", "application/octet-stream", bytes.Repeat([]byte("x"), 4096), b.Clock.Now()))
		bClient, bWebID := b.NewClient("reader")
		must0(bOwner.GrantRead(bWebID, "/data/r.bin"))
		start := time.Now()
		for range n {
			_, _, err := bClient.Get(bOwner.URL() + "/data/r.bin")
			must0(err)
		}
		baseline := time.Since(start)
		b.Close()

		// Usage control: authorized read with certificate on every fetch.
		d := must(NewDeployment(Config{}))
		ctx := context.Background()
		owner, iri := ownerWithResource(d, "owner", 4096, nil)
		consumer := must(d.NewConsumer("reader", policy.PurposeAny))
		must0(owner.Grant(ctx, consumer, "/data/r.bin", policy.PurposeAny))
		cert := must(d.Market.PayFee(string(consumer.WebID), iri))
		decorate := must(podmanager.AttachCertificate(cert))
		client := solid.NewClient(consumer.WebID, consumer.Key, d.Clock)
		client.Decorate = decorate
		start = time.Now()
		for range n {
			_, _, err := client.Get(iri)
			must0(err)
		}
		uc := time.Since(start)
		d.Close()

		baseUS := float64(baseline.Microseconds()) / float64(n)
		ucUS := float64(uc.Microseconds()) / float64(n)
		t.Add(n, baseUS, ucUS, ucUS/baseUS)
	}
	return t
}

// E11Remuneration exercises the §V-4 future-work economics: market
// revenue is redistributed to owners proportionally to the accesses their
// resources received.
func (h *Harness) E11Remuneration() *Table {
	t := &Table{
		Title:  "E11 remuneration (§V-4 future work): access-proportional payout",
		Header: []string{"owner", "accesses", "payout", "share_pct"},
	}
	d := must(NewDeployment(Config{}))
	defer d.Close()
	ctx := context.Background()

	// Three owners with one resource each; consumers access them with a
	// 6:3:1 ratio.
	ratios := []int{6, 3, 1}
	owners := make([]*Owner, len(ratios))
	iris := make([]string, len(ratios))
	for i := range ratios {
		o := must(d.NewOwner(fmt.Sprintf("owner%d", i)))
		must0(o.InitializePod(ctx, nil))
		path := "/data/r.bin"
		must0(o.AddResource(path, "application/octet-stream", []byte("payload")))
		iris[i] = must(o.Publish(ctx, path, "exp", nil))
		owners[i] = o
	}
	consumerIdx := 0
	for i, ratio := range ratios {
		for range ratio {
			c := must(d.NewConsumer(fmt.Sprintf("c%d", consumerIdx), policy.PurposeAny))
			consumerIdx++
			must0(owners[i].Grant(ctx, c, "/data/r.bin", policy.PurposeAny))
			must0(c.Access(ctx, iris[i]))
		}
	}
	revenue := d.Market.Revenue()
	payouts, err := d.Market.Settle(10) // 10% market margin
	must0(err)
	for _, p := range payouts {
		t.Add(p.OwnerWebID, p.Accesses, p.Amount, 100*float64(p.Amount)/float64(revenue))
	}
	return t
}

// E12Robustness measures the §V-2 availability claim quantitatively: a
// 4-validator cluster keeps accepting and executing transactions as
// validators fail, with throughput roughly flat (clique-style fallback:
// any live authority may seal).
func (h *Harness) E12Robustness() *Table {
	t := &Table{
		Title:  "E12 robustness (§V-2): throughput under validator failures",
		Header: []string{"validators_down", "txs", "wall_ms", "tx_per_sec", "live_heights_equal"},
	}
	const txs = 40
	for _, down := range []int{0, 1, 2, 3} {
		d := must(NewDeployment(Config{Validators: 4}))
		ctx := context.Background()
		owner := must(d.NewOwner("owner"))
		for i := range down {
			d.Network.SetDown(d.Nodes[1+i].Address(), true)
		}
		start := time.Now()
		for i := range txs {
			must(owner.Manager.DE().RegisterPod(ctx, distexchange.RegisterPodArgs{
				OwnerWebID: fmt.Sprintf("%s/profile#p%d", owner.URL(), i),
				Location:   owner.URL() + "/",
			}))
		}
		elapsed := time.Since(start)

		// Live nodes must agree on the resulting chain.
		equal := true
		liveHead := d.Nodes[0].Head().Hash()
		for i := 1 + down; i < 4; i++ {
			if d.Nodes[i].Head().Hash() != liveHead {
				equal = false
			}
		}
		t.Add(down, txs, float64(elapsed.Microseconds())/1000,
			float64(txs)/elapsed.Seconds(), equal)
		d.Close()
	}
	return t
}

// AblationBlockInterval measures policy propagation in *simulated* time
// under interval sealing: latency is dominated by the block interval, the
// DESIGN.md ablation 1 claim.
func (h *Harness) AblationBlockInterval() *Table {
	t := &Table{
		Title:  "Ablation: block interval vs policy propagation (simulated time)",
		Header: []string{"interval_ms", "propagation_sim_ms"},
	}
	for _, interval := range []time.Duration{0, 50 * time.Millisecond, 200 * time.Millisecond, time.Second} {
		d := must(NewDeployment(Config{Sealing: SealManually}))
		ctx := context.Background()

		// Drive consensus on a background pump so setup (which waits for
		// receipts) can proceed, sealing a block per interval of simulated
		// time (or continuously for interval 0).
		stop := make(chan struct{})
		pumpDone := make(chan struct{})
		go func() {
			defer close(pumpDone)
			for {
				select {
				case <-stop:
					return
				default:
					if d.Nodes[0].PendingTxs() > 0 {
						if interval > 0 {
							d.Clock.Advance(interval)
						}
						_, _ = d.SealBlock()
					}
					time.Sleep(200 * time.Microsecond)
				}
			}
		}()

		owner, iri := ownerWithResource(d, "owner", 512, nil)
		consumer := must(d.NewConsumer("c", policy.PurposeAny))
		must0(owner.Grant(ctx, consumer, "/data/r.bin", policy.PurposeAny))
		must0(consumer.Access(ctx, iri))

		simStart := d.Clock.Now()
		v2 := owner.NewPolicy("/data/r.bin")
		v2.Version = 2
		v2.MaxRetention = 7 * 24 * time.Hour
		must0(owner.ModifyPolicy(ctx, "/data/r.bin", v2))
		must0(consumer.WaitPolicyVersion(iri, 2, 10*time.Second))
		simElapsed := d.Clock.Now().Sub(simStart)

		close(stop)
		<-pumpDone
		t.Add(interval.Milliseconds(), float64(simElapsed.Microseconds())/1000)
		d.Close()
	}
	return t
}

// AblationOracleFanout compares sequential vs concurrent evidence
// collection in the pull-in oracle (DESIGN.md ablation 2).
func (h *Harness) AblationOracleFanout() *Table {
	t := &Table{
		Title:  "Ablation: pull-in oracle fan-out vs sequential collection",
		Header: []string{"devices", "sequential_ms", "fanout_ms"},
	}
	run := func(n int, fanout bool) float64 {
		d := must(NewDeployment(Config{OracleFanout: fanout}))
		defer d.Close()
		ctx := context.Background()
		owner, iri := ownerWithResource(d, "owner", 512, nil)
		for i := range n {
			c := must(d.NewConsumer(fmt.Sprintf("c%d", i), policy.PurposeAny))
			must0(owner.Grant(ctx, c, "/data/r.bin", policy.PurposeAny))
			must0(c.Access(ctx, iri))
		}
		start := time.Now()
		_, _, err := owner.Monitor(ctx, "/data/r.bin")
		must0(err)
		return float64(time.Since(start).Microseconds()) / 1000
	}
	for _, n := range h.sweep([]int{4, 16, 48}) {
		t.Add(n, run(n, false), run(n, true))
	}
	return t
}

// batchScenario boots a validator cluster with manual sealing, submits n
// uniquely-addressed registerPod transactions from one sender — either
// one at a time or as a single batch — drives consensus until the
// mempool drains, and returns the wall-clock milliseconds for the whole
// ingestion+consensus round.
func batchScenario(n, validators, verifyWorkers int, batch bool) float64 {
	d := must(NewDeployment(Config{
		Validators:    validators,
		Sealing:       SealManually,
		VerifyWorkers: verifyWorkers,
	}))
	defer d.Close()

	key := cryptoutil.MustGenerateKey()
	txs := make([]*chain.Tx, n)
	for i := range n {
		args := distexchange.RegisterPodArgs{
			OwnerWebID: fmt.Sprintf("https://owner%d.example/profile#me", i),
			Location:   fmt.Sprintf("https://owner%d.example/", i),
		}
		txs[i] = must(chain.NewTx(key, uint64(i), d.DEAddr, "registerPod", args, distexchange.DefaultGasLimit))
	}

	start := time.Now()
	if batch {
		must(d.SubmitBatch(txs))
	} else {
		// Seed semantics: every node verifies and admits each transaction
		// independently (what SubmitEverywhere did before verification was
		// hoisted to the network layer).
		for _, tx := range txs {
			for _, n := range d.Nodes {
				must(n.SubmitTx(tx))
			}
		}
	}
	for d.Nodes[0].PendingTxs() > 0 {
		must(d.SealBlock())
	}
	return float64(time.Since(start).Microseconds()) / 1000
}

// AblationBatchSubmit compares per-transaction submission (one signature
// verification per node per transaction, one mempool lock acquisition
// each — the seed's SubmitEverywhere semantics) against batched
// submission (one concurrent verification pass for the cluster, one lock
// acquisition per node) at growing block sizes.
func (h *Harness) AblationBatchSubmit() *Table {
	t := &Table{
		Title:  "Ablation: per-tx vs batched submission (3 validators, manual sealing)",
		Header: []string{"txs", "per_tx_ms", "batch_ms", "speedup"},
	}
	for _, n := range h.sweep([]int{32, 128, 512}) {
		perTx := batchScenario(n, 3, 0, false)
		batched := batchScenario(n, 3, 0, true)
		t.Add(n, perTx, batched, perTx/batched)
	}
	return t
}

// AblationParallelVerify compares sequential signature verification
// (VerifyWorkers=1, the seed behaviour) against the bounded concurrent
// pool (VerifyWorkers=0 → GOMAXPROCS) for whole-batch ingestion and
// block validation on a 3-validator cluster.
func (h *Harness) AblationParallelVerify() *Table {
	t := &Table{
		Title:  "Ablation: sequential vs concurrent signature verification (3 validators)",
		Header: []string{"txs", "sequential_ms", "parallel_ms", "speedup"},
	}
	for _, n := range h.sweep([]int{64, 256, 1024}) {
		seq := batchScenario(n, 3, 1, true)
		par := batchScenario(n, 3, 0, true)
		t.Add(n, seq, par, seq/par)
	}
	return t
}

// durabilityScenario measures the write-ahead-log cost on the ingestion
// hot path and the crash-recovery time it buys: a single durable
// validator ingests n registerPod transactions in batches (sealing until
// drained), closes, and reopens from disk. It returns ingestion and
// reopen wall-clock milliseconds, the recovered height, and the
// snapshots written with their total payload. durable=false runs the
// in-memory baseline (everything past ingestion is then zero).
func durabilityScenario(n int, durable bool, sync store.SyncPolicy) (ingestMS, reopenMS float64, height, snapshots, snapshotBytes uint64) {
	manufacturer := must(tee.NewManufacturer("tee-manufacturer"))
	runtime := contract.NewRuntime()
	deAddr := runtime.Deploy(distexchange.ContractName, distexchange.New(distexchange.Config{
		ManufacturerCAKey: manufacturer.CAPublicBytes(),
		ManufacturerCA:    manufacturer.CAAddress(),
	}))
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(defaultGenesis)
	cfg := chain.Config{
		Key:         key,
		Authorities: []cryptoutil.Address{key.Address()},
		Executor:    runtime,
		Clock:       clk,
		GenesisTime: defaultGenesis,
	}
	if durable {
		dir, err := os.MkdirTemp("", "durability-ablation-*")
		must0(err)
		defer os.RemoveAll(dir)
		cfg.DataDir = dir
		cfg.Persist = store.Options{Sync: sync}
		cfg.Metrics = chain.NewMetrics(obs.NewRegistry())
	}
	node := must(chain.OpenNode(cfg))

	txs := make([]*chain.Tx, n)
	for i := range n {
		args := distexchange.RegisterPodArgs{
			OwnerWebID: fmt.Sprintf("https://owner%d.example/profile#me", i),
			Location:   fmt.Sprintf("https://owner%d.example/", i),
		}
		txs[i] = must(chain.NewTx(key, uint64(i), deAddr, "registerPod", args, distexchange.DefaultGasLimit))
	}
	const batch = 64
	start := time.Now()
	for at := 0; at < n; at += batch {
		end := min(at+batch, n)
		must(node.SubmitBatch(txs[at:end]))
		clk.Advance(time.Second)
		for node.PendingTxs() > 0 {
			must(node.Seal())
		}
	}
	ingestMS = float64(time.Since(start).Microseconds()) / 1000
	must0(node.Close())

	if durable {
		snapshots, snapshotBytes = cfg.Metrics.SnapshotWrite.Count(), cfg.Metrics.SnapshotBytes.Value()
		start = time.Now()
		reopened := must(chain.OpenNode(cfg))
		reopenMS = float64(time.Since(start).Microseconds()) / 1000
		height = reopened.Height()
		must0(reopened.Close())
	}
	return ingestMS, reopenMS, height, snapshots, snapshotBytes
}

// AblationDurability quantifies the durability subsystem: ingestion
// throughput under each WAL fsync policy against the in-memory baseline,
// and the crash-recovery (reopen) time the store buys, at two ledger
// lengths. There is no snapshot cadence to sweep (store.SnapshotDue), so
// the table reports how many were written and how large — none below
// the 1 MiB floor, which the quick lengths never reach.
func (h *Harness) AblationDurability() *Table {
	t := &Table{
		Title:  "Ablation: durability (WAL fsync policy vs ingestion + recovery, 1 validator)",
		Header: []string{"mode", "txs", "ingest_ms", "reopen_ms", "reopened_height", "snapshots", "snapshot_kb"},
	}
	lengths := []int{2048, 8192}
	if h.Quick {
		lengths = []int{96, 192}
	}
	modes := []struct {
		name    string
		durable bool
		sync    store.SyncPolicy
	}{
		{"memory", false, store.SyncNever},
		{"wal-never", true, store.SyncNever},
		{"wal-interval", true, store.SyncInterval},
		{"wal-always", true, store.SyncAlways},
	}
	for _, n := range lengths {
		for _, m := range modes {
			ingest, reopen, height, snaps, snapBytes := durabilityScenario(n, m.durable, m.sync)
			if !m.durable {
				t.Add(m.name, n, ingest, "-", "-", "-", "-")
				continue
			}
			t.Add(m.name, n, ingest, reopen, height, snaps, snapBytes/1024)
		}
	}
	return t
}

// AblationCommitPath quantifies the commit-path overhaul: per-block
// validation cost on the historical Clone() replay versus the
// copy-on-write overlay replay as the ledger grows. Clone cost is
// O(ledger) — it deep-copies every key before executing — while the
// overlay only pays for the keys the block touches, so its column stays
// flat and the speedup column grows with ledger size.
// BenchmarkOverlayApplyBlock, BenchmarkCodecEncodeBlock, and
// BenchmarkCommitLatency cover the same ground under `go test -bench`.
func (h *Harness) AblationCommitPath() *Table {
	// overlay_us leads the latency columns deliberately: BenchRows takes
	// the first one as ns_op, so the tracked perf-trajectory number is
	// the live overlay path, with the clone baseline printed beside it.
	t := &Table{
		Title:  "Ablation: commit path (copy-on-write overlay vs Clone() block validation)",
		Header: []string{"ledger_keys", "touched_keys", "overlay_us", "clone_us", "speedup"},
	}
	const touched = 64
	reps := 20
	if h.Quick {
		reps = 5
	}
	for _, ledger := range h.sweep([]int{1_000, 10_000, 100_000}) {
		st := chain.NewState()
		for i := range ledger {
			st.Set(fmt.Sprintf("seed/%07d", i), []byte(fmt.Sprintf("value-%d", i)))
		}
		st.DiscardJournal()
		workload := func(rw chain.StateRW, rep int) {
			for i := range touched {
				rw.Set(fmt.Sprintf("seed/%07d", (rep*touched+i)%ledger), []byte("updated"))
			}
		}
		start := time.Now()
		for rep := range reps {
			replica := st.Clone()
			workload(replica, rep)
			_ = replica.TakeDiff()
		}
		cloneUs := float64(time.Since(start).Microseconds()) / float64(reps)
		start = time.Now()
		for rep := range reps {
			overlay := chain.NewOverlay(st)
			workload(overlay, rep)
			_ = overlay.TakeDeltas()
		}
		overlayUs := float64(time.Since(start).Microseconds()) / float64(reps)
		speedup := cloneUs
		if overlayUs > 0 {
			speedup = cloneUs / overlayUs
		}
		t.Add(ledger, touched, overlayUs, cloneUs, speedup)
	}
	return t
}

// parexecExecutor is the parallel-execution ablation workload: per
// transaction, a deterministic CPU burn (iterated hashing, standing in
// for contract logic) followed by one read-modify-write of the key in
// the args. Unique keys make a conflict-free block; one shared key makes
// every transaction conflict with its predecessor.
type parexecExecutor struct {
	rounds int
}

type parexecArgs struct {
	Key string `json:"key"`
}

func (e parexecExecutor) ExecuteTx(st chain.StateRW, tx *chain.Tx, bctx chain.BlockContext) *chain.Receipt {
	var args parexecArgs
	if err := json.Unmarshal(tx.Args, &args); err != nil {
		return &chain.Receipt{Status: chain.StatusReverted, Err: err.Error()}
	}
	sum := sha256.Sum256(tx.Args)
	for range e.rounds {
		sum = sha256.Sum256(sum[:])
	}
	key := tx.Contract.String() + "/" + args.Key
	prev, _ := st.Get(key)
	st.Set(key, append(prev[:0:0], sum[:8]...))
	return &chain.Receipt{Status: chain.StatusOK, GasUsed: chain.GasTxBase}
}

func (parexecExecutor) Query(chain.StateRW, cryptoutil.Address, string, []byte, chain.BlockContext) ([]byte, error) {
	return nil, fmt.Errorf("parexec executor serves no queries")
}

// AblationParExec quantifies the parallel intra-block scheduler: block
// execution latency across worker counts on a conflict-free workload
// (expected near-linear scaling with cores; workers=1 is the exact
// serial path) and on a 100%-conflict workload (every optimistic result
// is discarded, so the bar is graceful degradation). On a single-core
// host every worker count collapses to roughly serial cost plus
// scheduler overhead — the speedup column then reads ≈1, not >1.
// BenchmarkParallelExecution covers the same ground under `go test
// -bench`; the differential tests in internal/chain pin that every
// worker count is bit-identical.
func (h *Harness) AblationParExec() *Table {
	// block_us leads the latency columns: BenchRows tracks the scheduled
	// (parallel) path, with the serial baseline printed beside it.
	t := &Table{
		Title:  "Ablation: parallel intra-block execution (read/write-set scheduler)",
		Header: []string{"conflicts", "workers", "txs", "block_us", "serial_us", "speedup"},
	}
	txCount := 1000
	reps := 5
	if h.Quick {
		txCount, reps = 200, 2
	}
	ex := parexecExecutor{rounds: 32}
	key := cryptoutil.MustGenerateKey()
	addr := contract.AddressFor("parexec-ablation")
	st := chain.NewState()
	for i := range 10_000 {
		st.Set(fmt.Sprintf("seed/%07d", i), []byte("seed-value"))
	}
	st.DiscardJournal()
	bctx := chain.BlockContext{Number: 1, Time: defaultGenesis}

	signBlock := func(hotKey string) []*chain.Tx {
		txs := make([]*chain.Tx, txCount)
		for i := range txs {
			k := hotKey
			if k == "" {
				k = fmt.Sprintf("k%04d", i)
			}
			txs[i] = must(chain.NewTx(key, uint64(i), addr, "rmw", parexecArgs{Key: k}, 200_000))
		}
		return txs
	}
	run := func(txs []*chain.Tx, workers int) float64 {
		start := time.Now()
		for range reps {
			_, _ = chain.ReplayBlock(ex, st, txs, bctx, workers)
		}
		return float64(time.Since(start).Microseconds()) / float64(reps)
	}
	for _, wl := range []struct {
		name   string
		hotKey string
	}{
		{"0pct", ""},
		{"100pct", "hot"},
	} {
		txs := signBlock(wl.hotKey)
		serial := run(txs, 1)
		for _, workers := range []int{2, 4, 8} {
			par := run(txs, workers)
			speedup := 0.0
			if par > 0 {
				speedup = serial / par
			}
			t.Add(wl.name, workers, txCount, par, serial, speedup)
		}
	}
	return t
}

// floodScenario drives one validator through `rounds` sealing rounds
// while eight hostile senders spray price-1 transactions at mult× the
// block size each round (mult=0 substitutes honest DefaultGasPrice
// traffic of one block per round, so block sizes — and therefore
// settlement cost — stay comparable across rows). Every round also
// submits one adequately-priced probe and measures its submit→commit
// settlement time: price-ordered selection, the per-sender quota, and
// tail eviction are what keep that probe from starving. Hostile
// traffic is pre-signed so the measured window holds only admission
// and sealing, never signature generation; senders never re-sign after
// an eviction (a flooder doesn't), so an evicted tail leaves that
// sender nonce-gapped and shed thereafter. Returns the probe
// settlement p50/p99 in ms, the admission-shed fraction of hostile
// attempts, and the pool high-water mark as a fraction of its bound.
func floodScenario(mult, rounds int) (p50ms, p99ms, shed, poolUtil float64) {
	const (
		blockTxs = 64
		poolCap  = 256
		quota    = 32
		hostiles = 8
		warmup   = 2
	)
	key := cryptoutil.MustGenerateKey()
	clk := simclock.NewSim(defaultGenesis)
	node := must(chain.OpenNode(chain.Config{
		Key:                 key,
		Authorities:         []cryptoutil.Address{key.Address()},
		Executor:            parexecExecutor{rounds: 4},
		Clock:               clk,
		GenesisTime:         defaultGenesis,
		MaxTxsPerBlock:      blockTxs,
		MempoolCapacity:     poolCap,
		MaxPendingPerSender: quota,
	}))
	defer node.Close()
	addr := contract.AddressFor("mempool-ablation")

	price := uint64(1) // flood traffic prices itself under everything
	if mult == 0 {
		price = chain.DefaultGasPrice
	}
	// Each round offers exactly mult blocks' worth of hostile traffic
	// (the probe takes the last slot of one block), so mult=1 drains
	// fully every round while mult≥2 is genuine overload.
	volume := max(1, mult)*blockTxs - 1
	total := rounds + warmup
	// Pre-signed nonce strip per sender; the index advances only on
	// admission, so a rejected transaction is retried verbatim later.
	stripLen := total*blockTxs/hostiles + quota + blockTxs
	type sender struct {
		strip []*chain.Tx
		next  int
	}
	crowd := make([]*sender, hostiles)
	for i := range crowd {
		k := cryptoutil.MustGenerateKey()
		s := &sender{strip: make([]*chain.Tx, stripLen)}
		for n := range s.strip {
			s.strip[n] = must(chain.NewTxPriced(k, uint64(n), addr, "rmw",
				parexecArgs{Key: fmt.Sprintf("f%d-%05d", i, n)}, 200_000, price))
		}
		crowd[i] = s
	}
	probeKey := cryptoutil.MustGenerateKey()
	const probePrice = 2 * chain.DefaultGasPrice
	probes := make([]*chain.Tx, total)
	for n := range probes {
		probes[n] = must(chain.NewTxPriced(probeKey, uint64(n), addr, "rmw",
			parexecArgs{Key: "probe"}, 200_000, probePrice))
	}

	var attempts, rejected, poolMax int
	lats := make([]time.Duration, 0, rounds)
	for round := range total {
		for i := range volume {
			s := crowd[i%hostiles]
			if s.next >= len(s.strip) {
				continue // strip exhausted: sender falls silent
			}
			attempts++
			if _, err := node.SubmitTx(s.strip[s.next]); err != nil {
				rejected++
				continue
			}
			s.next++
		}
		poolMax = max(poolMax, node.PendingTxs())
		probe := probes[round]
		start := time.Now()
		must(node.SubmitTx(probe))
		poolMax = max(poolMax, node.PendingTxs())
		clk.Advance(time.Second)
		block := must(node.Seal())
		elapsed := time.Since(start)
		committed := false
		for _, btx := range block.Txs {
			if btx.Hash() == probe.Hash() {
				committed = true
				break
			}
		}
		if !committed {
			panic(fmt.Sprintf("harness: flood probe starved at mult=%d (pool %d pending)",
				mult, node.PendingTxs()))
		}
		if round >= warmup {
			lats = append(lats, elapsed)
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50ms = float64(lats[len(lats)/2].Microseconds()) / 1000
	p99ms = float64(lats[len(lats)*99/100].Microseconds()) / 1000
	if attempts > 0 {
		shed = float64(rejected) / float64(attempts)
	}
	poolUtil = float64(poolMax) / poolCap
	return p50ms, p99ms, shed, poolUtil
}

// AblationMempool quantifies the priced-admission layer under overload:
// settlement latency of an adequately-priced probe while hostile
// senders spray cheap traffic at a multiple of the block size. The
// robustness bar: at 10× overload the probe's p99 stays within 25% of
// the unflooded baseline and pool_util_x never exceeds 1.0 (the pool
// bound holds). shed_x and pool_util_x are ratio columns — excluded
// from benchdiff case labels, since the exact shed count depends on
// hash tie-breaks among equal-priced transactions and so varies with
// the generated keys. BenchmarkFloodIngestion covers the admission
// path itself under `go test -bench`.
func (h *Harness) AblationMempool() *Table {
	t := &Table{
		Title:  "Ablation: priced mempool under flood (overload shed at admission)",
		Header: []string{"flood_mult", "rounds", "settle_p50_ms", "settle_p99_ms", "shed_x", "pool_util_x"},
	}
	rounds := 48
	if h.Quick {
		rounds = 12
	}
	for _, mult := range []int{0, 1, 10} {
		p50, p99, shed, util := floodScenario(mult, rounds)
		t.Add(mult, rounds, p50, p99, fmt.Sprintf("%.3f", shed), fmt.Sprintf("%.3f", util))
	}
	return t
}

// AblationObs quantifies the observability subsystem's footprint. The
// per-instrument rows time each hot-path hook in its live and no-op
// (nil-handle) states — the no-op column is what every deployment
// without -debug-addr pays, the live column what a scraped one does.
// The seal-pipeline row is the end-to-end check: the full
// submit→seal→commit path on a metered node versus a bare one, where
// instrument cost must disappear into execution noise. The
// differential tests in internal/chain pin the stronger property that
// metering never changes the blocks themselves.
func (h *Harness) AblationObs() *Table {
	// live_ns leads the latency columns: BenchRows tracks the live
	// instrument cost, with the no-op baseline printed beside it.
	t := &Table{
		Title:  "Ablation: observability (live vs no-op instruments on the hot path)",
		Header: []string{"path", "ops", "live_ns", "noop_ns", "overhead_ns"},
	}
	ops := 2_000_000
	if h.Quick {
		ops = 200_000
	}
	reg := obs.NewRegistry()
	liveCounter := reg.Counter("obs_ablation_counter_total", "ablation workload counter")
	liveHist := reg.Histogram("obs_ablation_hist_ns", "ablation workload histogram")
	var nilCounter *obs.Counter
	var nilHist *obs.Histogram

	perOp := func(f func()) float64 {
		start := time.Now()
		f()
		return float64(time.Since(start).Nanoseconds()) / float64(ops)
	}
	addRow := func(path string, live, noop float64) {
		t.Add(path, ops, live, noop, live-noop)
	}
	addRow("counter-inc",
		perOp(func() {
			for range ops {
				liveCounter.Inc()
			}
		}),
		perOp(func() {
			for range ops {
				nilCounter.Inc()
			}
		}))
	addRow("histogram-observe",
		perOp(func() {
			for i := range ops {
				liveHist.Observe(int64(i))
			}
		}),
		perOp(func() {
			for i := range ops {
				nilHist.Observe(int64(i))
			}
		}))
	addRow("timer-start-stop",
		perOp(func() {
			for range ops {
				tm := liveHist.Start()
				tm.Stop()
			}
		}),
		perOp(func() {
			for range ops {
				tm := nilHist.Start()
				tm.Stop()
			}
		}))

	// End to end: identical workloads through the full node pipeline,
	// metered vs bare, reported as per-transaction cost.
	blocks, txsPerBlock := 10, 200
	if h.Quick {
		blocks, txsPerBlock = 4, 50
	}
	sealRun := func(m *chain.Metrics) float64 {
		key := cryptoutil.MustGenerateKey()
		clk := simclock.NewSim(defaultGenesis)
		node := must(chain.NewNode(chain.Config{
			Key:         key,
			Authorities: []cryptoutil.Address{key.Address()},
			Executor:    parexecExecutor{rounds: 4},
			Clock:       clk,
			GenesisTime: defaultGenesis,
			Metrics:     m,
		}))
		addr := contract.AddressFor("obs-ablation")
		nonce := uint64(0)
		plan := make([][]*chain.Tx, blocks)
		for b := range plan {
			txs := make([]*chain.Tx, txsPerBlock)
			for i := range txs {
				txs[i] = must(chain.NewTx(key, nonce, addr, "rmw",
					parexecArgs{Key: fmt.Sprintf("k%04d", i)}, 200_000))
				nonce++
			}
			plan[b] = txs
		}
		start := time.Now()
		for _, txs := range plan {
			must(node.SubmitBatch(txs))
			clk.Advance(time.Second)
			must(node.Seal())
		}
		return float64(time.Since(start).Nanoseconds()) / float64(blocks*txsPerBlock)
	}
	metered := sealRun(chain.NewMetrics(obs.NewRegistry()))
	bare := sealRun(nil)
	t.Add("seal-pipeline-per-tx", blocks*txsPerBlock, metered, bare, metered-bare)
	return t
}

// ScenarioThroughputFn is installed by internal/scenario's init (the
// scenario engine drives core.Deployment, so a direct call here would be
// an import cycle). Importing repro/internal/scenario — as cmd/ucbench
// and the top-level benchmarks do — wires it up.
var ScenarioThroughputFn func(quick bool) *Table

// AblationScenarioThroughput measures the end-to-end scenario engine's
// step throughput (workload + fault steps + full invariant sweeps) so
// the cost of system-wide checking is a tracked perf number.
func (h *Harness) AblationScenarioThroughput() *Table {
	if ScenarioThroughputFn == nil {
		return &Table{
			Title:  "Ablation: scenario step throughput (engine not linked — import repro/internal/scenario)",
			Header: []string{"steps", "wall_ms", "steps_per_sec"},
		}
	}
	return ScenarioThroughputFn(h.Quick)
}

// ChainStats summarizes ledger shape after a scenario (diagnostic table).
func ChainStats(d *Deployment) *Table {
	t := &Table{
		Title:  "chain statistics",
		Header: []string{"metric", "value"},
	}
	node := d.Nodes[0]
	t.Add("height", node.Height())
	t.Add("state_keys", node.State().Len())
	t.Add("total_gas", node.Costs().TotalSpent())
	t.Add("oracle_in", d.Metrics.In.Load())
	t.Add("oracle_out", d.Metrics.Out.Load())
	t.Add("events_dropped", node.EventsDropped())
	return t
}

// hostScaleOutScenario measures authenticated GET latency against a pod
// population: pods=1 serves the pod directly from a Server; larger
// populations route through one multi-pod Host handler.
func hostScaleOutScenario(pods, requests int) (usPerOp float64) {
	clk := simclock.NewSim(defaultGenesis)
	dir := solid.NewMapDirectory()

	type tenant struct {
		client *solid.Client
		url    string
	}
	tenants := make([]tenant, pods)

	var server *httptest.Server
	if pods == 1 {
		key := cryptoutil.MustGenerateKey()
		owner := solid.WebID("https://owner.example/profile#me")
		dir.Register(owner, key.PublicBytes())
		pod := solid.NewPod(owner, "https://owner.pod")
		server = httptest.NewServer(solid.NewServer(pod, dir, clk, nil))
		must0(pod.Put(owner, "/data/r.bin", "application/octet-stream",
			bytes.Repeat([]byte("x"), 1024), clk.Now()))
		tenants[0] = tenant{solid.NewClient(owner, key, clk), server.URL + "/data/r.bin"}
	} else {
		host := solid.NewHost(dir, clk)
		server = httptest.NewServer(host)
		for i := range pods {
			name := fmt.Sprintf("owner%04d", i)
			key := cryptoutil.MustGenerateKey()
			owner := solid.WebID("https://" + name + ".example/profile#me")
			dir.Register(owner, key.PublicBytes())
			pod := must(host.CreatePod(name, owner, server.URL, nil))
			must0(pod.Put(owner, "/data/r.bin", "application/octet-stream",
				bytes.Repeat([]byte("x"), 1024), clk.Now()))
			tenants[i] = tenant{solid.NewClient(owner, key, clk),
				server.URL + solid.PodRoutePrefix + name + "/data/r.bin"}
		}
	}
	defer server.Close()

	start := time.Now()
	for i := range requests {
		tn := tenants[i%pods]
		_, _, err := tn.client.Get(tn.url)
		must0(err)
	}
	return float64(time.Since(start).Microseconds()) / float64(requests)
}

// AblationHostScaleOut measures the pod-serving layer's scale-out: GET
// latency through one multi-pod Host handler stays flat as the hosted
// pod population grows, and matches serving a single pod directly.
func (h *Harness) AblationHostScaleOut() *Table {
	t := &Table{
		Title:  "Ablation: pod host scale-out (authenticated GET through one handler)",
		Header: []string{"pods", "us_per_request", "vs_single_pod_x"},
	}
	const requests = 300
	single := hostScaleOutScenario(1, requests)
	t.Add(1, single, 1.0)
	for _, pods := range h.sweep([]int{16, 64, 256}) {
		us := hostScaleOutScenario(pods, requests)
		t.Add(pods, us, us/single)
	}
	return t
}

// AblationAuthCache measures the ACL decision cache against the uncached
// ancestor walk at growing resource depth (the deeper the resource under
// its governing ACL, the longer the uncached walk).
func (h *Harness) AblationAuthCache() *Table {
	t := &Table{
		Title:  "Ablation: ACL decision cache vs uncached ancestor walk",
		Header: []string{"depth", "uncached_ns", "cached_ns", "speedup"},
	}
	reader := solid.WebID("https://reader.example/profile#me")
	run := func(depth int, cached bool) float64 {
		owner := solid.WebID("https://owner.example/profile#me")
		pod := solid.NewPod(owner, "https://owner.pod")
		pod.SetAuthCacheEnabled(cached)
		root := solid.NewACL(owner, "/")
		root.Grant("reader", []solid.WebID{reader}, "/", true, solid.ModeRead)
		must0(pod.SetACL(owner, "/", root))
		path := ""
		for i := range depth {
			path += fmt.Sprintf("/d%d", i)
		}
		path += "/r.bin"
		must0(pod.Put(owner, path, "application/octet-stream", []byte("x"), defaultGenesis))
		const ops = 200_000
		start := time.Now()
		for range ops {
			must0(pod.Authorize(reader, path, solid.ModeRead))
		}
		return float64(time.Since(start).Nanoseconds()) / ops
	}
	for _, depth := range h.sweep([]int{2, 4, 8, 16}) {
		uncached := run(depth, false)
		cached := run(depth, true)
		t.Add(depth, uncached, cached, uncached/cached)
	}
	return t
}
