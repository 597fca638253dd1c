// Package repro's top-level benchmarks regenerate the experiment suite of
// EXPERIMENTS.md: one benchmark per Fig. 2 process (E1–E6), one per
// Section V property (E7–E10), and the DESIGN.md ablations. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
	"repro/internal/obs"
	"repro/internal/podmanager"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/simclock"
	"repro/internal/solid"
	"repro/internal/store"
)

func mustB(b *testing.B, err error) {
	if err != nil {
		b.Fatal(err)
	}
}

func newDeploymentB(b *testing.B, cfg core.Config) *core.Deployment {
	b.Helper()
	d, err := core.NewDeployment(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(d.Close)
	return d
}

// ownerWithResourceB publishes one resource of the given size.
func ownerWithResourceB(b *testing.B, d *core.Deployment, size int) (*core.Owner, string) {
	b.Helper()
	ctx := context.Background()
	o, err := d.NewOwner(fmt.Sprintf("owner%d", time.Now().UnixNano()))
	mustB(b, err)
	mustB(b, o.InitializePod(ctx, nil))
	mustB(b, o.AddResource("/data/r.bin", "application/octet-stream", bytes.Repeat([]byte("x"), size)))
	iri, err := o.Publish(ctx, "/data/r.bin", "bench", nil)
	mustB(b, err)
	return o, iri
}

// BenchmarkE1PodInitiation measures the Fig. 2(1) pod initiation process
// (pod manager → push-in oracle → DE App, one consensus round). The pod
// manager identity is reused across iterations so the timed op is exactly
// the on-chain registration round trip.
func BenchmarkE1PodInitiation(b *testing.B) {
	d := newDeploymentB(b, core.Config{})
	ctx := context.Background()
	o, err := d.NewOwner("owner")
	mustB(b, err)
	client := o.Manager.DE()
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		_, err := client.RegisterPod(ctx, distexchangeRegisterPodArgs(i, o.URL()))
		mustB(b, err)
	}
	reportGas(b, d, "registerPod")
}

// BenchmarkE2ResourceInitiation measures the Fig. 2(2) resource
// initiation process.
func BenchmarkE2ResourceInitiation(b *testing.B) {
	d := newDeploymentB(b, core.Config{})
	ctx := context.Background()
	o, err := d.NewOwner("owner")
	mustB(b, err)
	mustB(b, o.InitializePod(ctx, nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		path := fmt.Sprintf("/data/r%08d.bin", i)
		mustB(b, o.AddResource(path, "application/octet-stream", []byte("payload")))
		b.StartTimer()
		_, err := o.Publish(ctx, path, "bench", nil)
		mustB(b, err)
	}
	reportGas(b, d, "registerResource")
}

// BenchmarkE3ResourceIndexing measures the Fig. 2(3) pull-out oracle read
// against index sizes.
func BenchmarkE3ResourceIndexing(b *testing.B) {
	for _, size := range []int{16, 256} {
		b.Run(fmt.Sprintf("index=%d", size), func(b *testing.B) {
			d := newDeploymentB(b, core.Config{})
			ctx := context.Background()
			o, err := d.NewOwner("owner")
			mustB(b, err)
			mustB(b, o.InitializePod(ctx, nil))
			var iri string
			for i := range size {
				path := fmt.Sprintf("/data/r%05d.bin", i)
				mustB(b, o.AddResource(path, "application/octet-stream", []byte("p")))
				iri, err = o.Publish(ctx, path, "bench", nil)
				mustB(b, err)
			}
			c, err := d.NewConsumer("reader", policy.PurposeAny)
			mustB(b, err)
			b.ResetTimer()
			for b.Loop() {
				if _, err := c.Index(iri); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4ResourceAccess measures the Fig. 2(4) end-to-end resource
// access process (index, fee, certificate, HTTP fetch, TEE store,
// on-chain confirmation) by resource size.
func BenchmarkE4ResourceAccess(b *testing.B) {
	for _, size := range []int{1 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			d := newDeploymentB(b, core.Config{})
			ctx := context.Background()
			o, err := d.NewOwner("owner")
			mustB(b, err)
			mustB(b, o.InitializePod(ctx, nil))
			// One consumer accesses a fresh resource per iteration, so no
			// per-iteration device provisioning pollutes the setup.
			c, err := d.NewConsumer("reader", policy.PurposeAny)
			mustB(b, err)
			data := bytes.Repeat([]byte("x"), size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				path := fmt.Sprintf("/data/r%08d.bin", i)
				mustB(b, o.AddResource(path, "application/octet-stream", data))
				iri, err := o.Publish(ctx, path, "bench", nil)
				mustB(b, err)
				mustB(b, o.Grant(ctx, c, path, policy.PurposeAny))
				b.StartTimer()
				mustB(b, c.Access(ctx, iri))
			}
		})
	}
}

// BenchmarkE5PolicyModification measures the Fig. 2(5) policy
// modification process: on-chain update plus push-out propagation to all
// copy holders.
func BenchmarkE5PolicyModification(b *testing.B) {
	for _, holders := range []int{1, 16} {
		b.Run(fmt.Sprintf("holders=%d", holders), func(b *testing.B) {
			d := newDeploymentB(b, core.Config{})
			ctx := context.Background()
			o, iri := ownerWithResourceB(b, d, 1024)
			consumers := make([]*core.Consumer, holders)
			for i := range holders {
				c, err := d.NewConsumer(fmt.Sprintf("c%d", i), policy.PurposeAny)
				mustB(b, err)
				mustB(b, o.Grant(ctx, c, "/data/r.bin", policy.PurposeAny))
				mustB(b, c.Access(ctx, iri))
				consumers[i] = c
			}
			b.ResetTimer()
			for i := 0; b.Loop(); i++ {
				v := o.NewPolicy("/data/r.bin")
				v.Version = uint64(i) + 2
				v.MaxRetention = time.Duration(30+i) * 24 * time.Hour
				mustB(b, o.ModifyPolicy(ctx, "/data/r.bin", v))
				for _, c := range consumers {
					mustB(b, c.WaitPolicyVersion(iri, v.Version, 10*time.Second))
				}
			}
		})
	}
}

// BenchmarkE6PolicyMonitoring measures the Fig. 2(6) policy monitoring
// process: request → pull-in collection → evidence on-chain → collection.
// The prior=50 case starts timing after 50 earlier rounds on the resource:
// a round costs its targets, not the history, so it must not read slower
// than prior=0.
func BenchmarkE6PolicyMonitoring(b *testing.B) {
	for _, c := range []struct{ devices, prior int }{{1, 0}, {16, 0}, {16, 50}} {
		b.Run(fmt.Sprintf("devices=%d/prior=%d", c.devices, c.prior), func(b *testing.B) {
			d := newDeploymentB(b, core.Config{})
			ctx := context.Background()
			o, iri := ownerWithResourceB(b, d, 1024)
			for i := range c.devices {
				holder, err := d.NewConsumer(fmt.Sprintf("c%d", i), policy.PurposeAny)
				mustB(b, err)
				mustB(b, o.Grant(ctx, holder, "/data/r.bin", policy.PurposeAny))
				mustB(b, holder.Access(ctx, iri))
			}
			for range c.prior {
				_, _, err := o.Monitor(ctx, "/data/r.bin")
				mustB(b, err)
			}
			b.ResetTimer()
			for b.Loop() {
				evidence, violations, err := o.Monitor(ctx, "/data/r.bin")
				mustB(b, err)
				if len(evidence) != c.devices || len(violations) != 0 {
					b.Fatalf("evidence=%d violations=%d", len(evidence), len(violations))
				}
			}
			reportGas(b, d, "submitEvidence")
		})
	}
}

// BenchmarkE7LocalVsRemote quantifies the §V-1 latency claim: TEE-local
// use versus re-fetching from the pod.
func BenchmarkE7LocalVsRemote(b *testing.B) {
	const size = 64 << 10
	b.Run("tee-local-use", func(b *testing.B) {
		d := newDeploymentB(b, core.Config{})
		ctx := context.Background()
		o, iri := ownerWithResourceB(b, d, size)
		c, err := d.NewConsumer("reader", policy.PurposeAny)
		mustB(b, err)
		mustB(b, o.Grant(ctx, c, "/data/r.bin", policy.PurposeAny))
		mustB(b, c.Access(ctx, iri))
		b.SetBytes(size)
		b.ResetTimer()
		for b.Loop() {
			if _, err := c.Use(iri, policy.ActionUse); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("remote-pod-fetch", func(b *testing.B) {
		d := newDeploymentB(b, core.Config{})
		ctx := context.Background()
		o, iri := ownerWithResourceB(b, d, size)
		c, err := d.NewConsumer("reader", policy.PurposeAny)
		mustB(b, err)
		mustB(b, o.Grant(ctx, c, "/data/r.bin", policy.PurposeAny))
		cert, err := d.Market.PayFee(string(c.WebID), iri)
		mustB(b, err)
		decorate, err := podmanager.AttachCertificate(cert)
		mustB(b, err)
		client := solid.NewClient(c.WebID, c.Key, d.Clock)
		client.Decorate = decorate
		b.SetBytes(size)
		b.ResetTimer()
		for b.Loop() {
			if _, _, err := client.Get(iri); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE8Verification measures the §V-2 verification primitives on
// the hot path: evidence signatures and payment certificates.
func BenchmarkE8Verification(b *testing.B) {
	b.Run("evidence-signature", func(b *testing.B) {
		key := cryptoutil.MustGenerateKey()
		msg := bytes.Repeat([]byte("evidence"), 64)
		sig, err := key.Sign(msg)
		mustB(b, err)
		b.ResetTimer()
		for b.Loop() {
			if !cryptoutil.Verify(key.Public(), msg, sig) {
				b.Fatal("verify failed")
			}
		}
	})
	b.Run("payment-certificate", func(b *testing.B) {
		ca, err := cryptoutil.NewAuthority("market")
		mustB(b, err)
		subject := cryptoutil.MustGenerateKey()
		epoch := time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC)
		cert, err := ca.Issue(subject, map[string]string{"feePaid": "https://r"}, epoch, epoch.Add(time.Hour))
		mustB(b, err)
		b.ResetTimer()
		for b.Loop() {
			if err := cert.Verify(ca.PublicBytes(), ca.Address(), epoch.Add(time.Minute)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE9Gas runs DE App operations and reports their gas cost (the
// §V-4 affordability table's generator).
func BenchmarkE9Gas(b *testing.B) {
	d := newDeploymentB(b, core.Config{})
	ctx := context.Background()
	o, err := d.NewOwner("owner")
	mustB(b, err)
	mustB(b, o.InitializePod(ctx, nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		path := fmt.Sprintf("/data/r%08d.bin", i)
		mustB(b, o.AddResource(path, "application/octet-stream", []byte("p")))
		b.StartTimer()
		_, err := o.Publish(ctx, path, "bench", nil)
		mustB(b, err)
	}
	b.StopTimer()
	reportGas(b, d, "registerResource")
	reportGas(b, d, "registerPod")
}

// BenchmarkE10Overhead compares an authorized read under plain Solid
// (baseline) and under the usage-control architecture (§V-3).
func BenchmarkE10Overhead(b *testing.B) {
	const size = 4096
	b.Run("baseline-solid", func(b *testing.B) {
		bl := core.NewBaseline(time.Time{})
		b.Cleanup(bl.Close)
		o := bl.NewOwner("owner")
		mustB(b, o.Add("/data/r.bin", "application/octet-stream", bytes.Repeat([]byte("x"), size), bl.Clock.Now()))
		client, webID := bl.NewClient("reader")
		mustB(b, o.GrantRead(webID, "/data/r.bin"))
		b.SetBytes(size)
		b.ResetTimer()
		for b.Loop() {
			if _, _, err := client.Get(o.URL() + "/data/r.bin"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("usage-control", func(b *testing.B) {
		d := newDeploymentB(b, core.Config{})
		ctx := context.Background()
		o, iri := ownerWithResourceB(b, d, size)
		c, err := d.NewConsumer("reader", policy.PurposeAny)
		mustB(b, err)
		mustB(b, o.Grant(ctx, c, "/data/r.bin", policy.PurposeAny))
		cert, err := d.Market.PayFee(string(c.WebID), iri)
		mustB(b, err)
		decorate, err := podmanager.AttachCertificate(cert)
		mustB(b, err)
		client := solid.NewClient(c.WebID, c.Key, d.Clock)
		client.Decorate = decorate
		b.SetBytes(size)
		b.ResetTimer()
		for b.Loop() {
			if _, _, err := client.Get(iri); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationOracleFanout compares sequential vs concurrent pull-in
// evidence collection (DESIGN.md ablation 2).
func BenchmarkAblationOracleFanout(b *testing.B) {
	const devices = 16
	for _, fanout := range []bool{false, true} {
		name := "sequential"
		if fanout {
			name = "fanout"
		}
		b.Run(name, func(b *testing.B) {
			d := newDeploymentB(b, core.Config{OracleFanout: fanout})
			ctx := context.Background()
			o, iri := ownerWithResourceB(b, d, 512)
			for i := range devices {
				c, err := d.NewConsumer(fmt.Sprintf("c%d", i), policy.PurposeAny)
				mustB(b, err)
				mustB(b, o.Grant(ctx, c, "/data/r.bin", policy.PurposeAny))
				mustB(b, c.Access(ctx, iri))
			}
			b.ResetTimer()
			for b.Loop() {
				_, _, err := o.Monitor(ctx, "/data/r.bin")
				mustB(b, err)
			}
		})
	}
}

// BenchmarkAblationPolicyCache compares evaluating the policy on every
// use against reusing a cached decision (DESIGN.md ablation 3; the
// TEE evaluates per use, which this shows is cheap enough to keep).
func BenchmarkAblationPolicyCache(b *testing.B) {
	epoch := time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC)
	pol := policy.New("https://r", "https://o", epoch)
	pol.AllowedPurposes = []policy.Purpose{policy.PurposeMedicalResearch, policy.PurposeAcademic}
	pol.MaxRetention = 30 * 24 * time.Hour
	pol.MaxUses = 1 << 30
	ctx := policy.UsageContext{
		Now: epoch.Add(time.Hour), Purpose: policy.PurposeAcademic,
		Action: policy.ActionUse, RetrievedAt: epoch,
	}
	b.Run("evaluate-per-use", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			ctx.PriorUses = uint64(i)
			if d := pol.Evaluate(ctx); !d.Allowed {
				b.Fatal("denied")
			}
		}
	})
	b.Run("cached-decision", func(b *testing.B) {
		cached := pol.Evaluate(ctx)
		version := pol.Version
		for b.Loop() {
			// Cache hit: only the invalidation checks run.
			if pol.Version != version || !cached.Allowed {
				b.Fatal("cache miss")
			}
		}
	})
}

// BenchmarkAblationEncryptedMetadata measures the §V-1 privacy remedy:
// publishing policy metadata as plaintext JSON vs AES-GCM envelopes
// (DESIGN.md ablation 4).
func BenchmarkAblationEncryptedMetadata(b *testing.B) {
	epoch := time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC)
	pol := policy.New("https://alice.pod/web/browsing.csv", "https://alice.pod/profile#me", epoch)
	pol.MaxRetention = 30 * 24 * time.Hour
	pol.AllowedPurposes = []policy.Purpose{policy.PurposeWebAnalytics}
	key := cryptoutil.DeriveEnvelopeKey([]byte("data-space-shared-secret"), "policy")

	b.Run("plaintext", func(b *testing.B) {
		for b.Loop() {
			if _, err := pol.Encode(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encrypted", func(b *testing.B) {
		for b.Loop() {
			raw, err := pol.Encode()
			if err != nil {
				b.Fatal(err)
			}
			blob, err := cryptoutil.EncryptEnvelope(key, raw)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cryptoutil.DecryptEnvelope(key, blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBlockInterval reports policy propagation latency in
// simulated time under interval sealing (DESIGN.md ablation 1). Wall
// time is meaningless here; read the sim_ms/op metric.
func BenchmarkAblationBlockInterval(b *testing.B) {
	for _, interval := range []time.Duration{0, 50 * time.Millisecond, 200 * time.Millisecond} {
		b.Run(fmt.Sprintf("interval=%s", interval), func(b *testing.B) {
			d := newDeploymentB(b, core.Config{Sealing: core.SealManually})
			ctx := context.Background()

			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
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
						time.Sleep(100 * time.Microsecond)
					}
				}
			}()
			b.Cleanup(func() { close(stop); <-done })

			o, iri := ownerWithResourceB(b, d, 512)
			c, err := d.NewConsumer("c", policy.PurposeAny)
			mustB(b, err)
			mustB(b, o.Grant(ctx, c, "/data/r.bin", policy.PurposeAny))
			mustB(b, c.Access(ctx, iri))

			var simTotal time.Duration
			b.ResetTimer()
			for i := 0; b.Loop(); i++ {
				simStart := d.Clock.Now()
				v := o.NewPolicy("/data/r.bin")
				v.Version = uint64(i) + 2
				mustB(b, o.ModifyPolicy(ctx, "/data/r.bin", v))
				mustB(b, c.WaitPolicyVersion(iri, v.Version, 10*time.Second))
				simTotal += d.Clock.Now().Sub(simStart)
			}
			b.ReportMetric(float64(simTotal.Milliseconds())/float64(b.N), "sim_ms/op")
		})
	}
}

// BenchmarkAblationBatchSubmit compares three ingestion paths at 100+ tx
// block sizes on a 3-validator cluster, each timed as ingest-all +
// seal-to-empty:
//
//   - per-tx-per-node: one SubmitTx per validator per transaction — the
//     seed's SubmitEverywhere semantics (one signature verification per
//     node per tx, one mempool lock acquisition each).
//   - per-tx: today's SubmitEverywhere (verified once per cluster, still
//     one broadcast per transaction).
//   - batch: Deployment.SubmitBatch — the whole batch verified once
//     through the concurrent pool and enqueued under a single mempool
//     lock acquisition per node.
func BenchmarkAblationBatchSubmit(b *testing.B) {
	for _, txs := range []int{100, 400} {
		for _, mode := range []string{"per-tx-per-node", "per-tx", "batch"} {
			b.Run(fmt.Sprintf("txs=%d/%s", txs, mode), func(b *testing.B) {
				d := newDeploymentB(b, core.Config{Validators: 3, Sealing: core.SealManually})
				sender := cryptoutil.MustGenerateKey()
				nonce := uint64(0)
				b.ResetTimer()
				for i := 0; b.Loop(); i++ {
					b.StopTimer()
					batch := make([]*chain.Tx, txs)
					for j := range txs {
						args := distexchangeRegisterPodArgs(int(nonce), "https://bench.example")
						tx, err := chain.NewTx(sender, nonce, d.DEAddr, "registerPod", args, distexchange.DefaultGasLimit)
						mustB(b, err)
						batch[j] = tx
						nonce++
					}
					b.StartTimer()
					switch mode {
					case "batch":
						_, err := d.SubmitBatch(batch)
						mustB(b, err)
					case "per-tx":
						for _, tx := range batch {
							_, err := d.Network.SubmitEverywhere(tx)
							mustB(b, err)
						}
					case "per-tx-per-node":
						for _, tx := range batch {
							for _, n := range d.Nodes {
								_, err := n.SubmitTx(tx)
								mustB(b, err)
							}
						}
					}
					for d.Nodes[0].PendingTxs() > 0 {
						_, err := d.SealBlock()
						mustB(b, err)
					}
				}
				b.ReportMetric(float64(txs), "txs/block")
			})
		}
	}
}

// BenchmarkAblationParallelVerify measures the bounded worker pool that
// batch submission and block validation run signatures through,
// sequential (workers=1, the seed behaviour) vs parallel (GOMAXPROCS).
func BenchmarkAblationParallelVerify(b *testing.B) {
	key := cryptoutil.MustGenerateKey()
	var contractAddr cryptoutil.Address
	copy(contractAddr[:], "benchmark-contract")
	const batch = 256
	txs := make([]*chain.Tx, batch)
	for i := range txs {
		tx, err := chain.NewTx(key, uint64(i), contractAddr, "set", map[string]string{"key": "k"}, 100_000)
		mustB(b, err)
		txs[i] = tx
	}
	b.Run("sequential", func(b *testing.B) {
		for b.Loop() {
			mustB(b, chain.VerifyTxSignatures(txs, 1))
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for b.Loop() {
			mustB(b, chain.VerifyTxSignatures(txs, 0))
		}
	})
}

// distexchangeRegisterPodArgs builds unique pod registration args per
// iteration.
func distexchangeRegisterPodArgs(i int, baseURL string) distexchange.RegisterPodArgs {
	return distexchange.RegisterPodArgs{
		OwnerWebID: fmt.Sprintf("%s/profile#pod%d", baseURL, i),
		Location:   baseURL + "/",
	}
}

// reportGas attaches the average gas of a DE App method as a benchmark
// metric.
func reportGas(b *testing.B, d *core.Deployment, method string) {
	for _, op := range d.Nodes[0].Costs().ByOperation() {
		if op.Method == method {
			b.ReportMetric(float64(op.AvgGas()), "gas/"+method)
		}
	}
}

// --- pod-serving layer (host + authorization cache) ---

// hostFixture builds a multi-pod host with one resource per pod and an
// authenticated client per owner.
func hostFixture(b *testing.B, pods int) (srv *httptest.Server, clients []*solid.Client, urls []string) {
	b.Helper()
	clk := simclock.NewSim(time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC))
	dir := solid.NewMapDirectory()
	host := solid.NewHost(dir, clk)
	srv = httptest.NewServer(host)
	b.Cleanup(srv.Close)

	clients = make([]*solid.Client, pods)
	urls = make([]string, pods)
	for i := range pods {
		name := fmt.Sprintf("owner%04d", i)
		key := cryptoutil.MustGenerateKey()
		owner := solid.WebID("https://" + name + ".example/profile#me")
		dir.Register(owner, key.PublicBytes())
		pod, err := host.CreatePod(name, owner, srv.URL, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := pod.Put(owner, "/data/r.bin", "application/octet-stream",
			bytes.Repeat([]byte("x"), 1024), clk.Now()); err != nil {
			b.Fatal(err)
		}
		clients[i] = solid.NewClient(owner, key, clk)
		urls[i] = srv.URL + "/pods/" + name + "/data/r.bin"
	}
	return srv, clients, urls
}

// BenchmarkSolidHostScaleOut measures authenticated GET latency through
// the pod-serving layer: a single pod served directly vs many pods
// multiplexed through one Host handler. The per-request cost should stay
// flat as the pod count grows (routing is a sharded map lookup).
func BenchmarkSolidHostScaleOut(b *testing.B) {
	b.Run("direct-single-pod", func(b *testing.B) {
		clk := simclock.NewSim(time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC))
		dir := solid.NewMapDirectory()
		key := cryptoutil.MustGenerateKey()
		owner := solid.WebID("https://owner.example/profile#me")
		dir.Register(owner, key.PublicBytes())
		pod := solid.NewPod(owner, "https://owner.pod")
		srv := httptest.NewServer(solid.NewServer(pod, dir, clk, nil))
		b.Cleanup(srv.Close)
		if err := pod.Put(owner, "/data/r.bin", "application/octet-stream",
			bytes.Repeat([]byte("x"), 1024), clk.Now()); err != nil {
			b.Fatal(err)
		}
		client := solid.NewClient(owner, key, clk)
		url := srv.URL + "/data/r.bin"
		b.ResetTimer()
		for b.Loop() {
			if _, _, err := client.Get(url); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, pods := range []int{16, 128} {
		b.Run(fmt.Sprintf("hosted-pods=%d", pods), func(b *testing.B) {
			_, clients, urls := hostFixture(b, pods)
			b.ResetTimer()
			for i := 0; b.Loop(); i++ {
				k := i % pods
				if _, _, err := clients[k].Get(urls[k]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolidAuthorizeCache measures Pod.Authorize on a deep path
// (three ancestor levels between the resource and its governing ACL)
// with the generation-stamped decision cache on and off.
func BenchmarkSolidAuthorizeCache(b *testing.B) {
	setup := func(b *testing.B, cached bool) *solid.Pod {
		b.Helper()
		owner := solid.WebID("https://owner.example/profile#me")
		reader := solid.WebID("https://reader.example/profile#me")
		pod := solid.NewPod(owner, "https://owner.pod")
		pod.SetAuthCacheEnabled(cached)
		root := solid.NewACL(owner, "/")
		root.Grant("reader", []solid.WebID{reader}, "/", true, solid.ModeRead)
		if err := pod.SetACL(owner, "/", root); err != nil {
			b.Fatal(err)
		}
		if err := pod.Put(owner, "/a/b/c/r.bin", "application/octet-stream",
			[]byte("payload"), time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC)); err != nil {
			b.Fatal(err)
		}
		return pod
	}
	reader := solid.WebID("https://reader.example/profile#me")
	b.Run("uncached", func(b *testing.B) {
		pod := setup(b, false)
		b.ResetTimer()
		for b.Loop() {
			if err := pod.Authorize(reader, "/a/b/c/r.bin", solid.ModeRead); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		pod := setup(b, true)
		b.ResetTimer()
		for b.Loop() {
			if err := pod.Authorize(reader, "/a/b/c/r.bin", solid.ModeRead); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSolidConditionalGet compares full re-fetches against
// ETag-revalidated 304 answers for a caching client.
func BenchmarkSolidConditionalGet(b *testing.B) {
	const size = 256 << 10
	run := func(b *testing.B, caching bool) {
		clk := simclock.NewSim(time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC))
		dir := solid.NewMapDirectory()
		key := cryptoutil.MustGenerateKey()
		owner := solid.WebID("https://owner.example/profile#me")
		dir.Register(owner, key.PublicBytes())
		pod := solid.NewPod(owner, "https://owner.pod")
		srv := httptest.NewServer(solid.NewServer(pod, dir, clk, nil))
		b.Cleanup(srv.Close)
		if err := pod.Put(owner, "/data/r.bin", "application/octet-stream",
			bytes.Repeat([]byte("x"), size), clk.Now()); err != nil {
			b.Fatal(err)
		}
		client := solid.NewClient(owner, key, clk)
		if caching {
			client.EnableCaching()
		}
		url := srv.URL + "/data/r.bin"
		b.SetBytes(size)
		b.ResetTimer()
		for b.Loop() {
			if _, _, err := client.Get(url); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("full-fetch", func(b *testing.B) { run(b, false) })
	b.Run("revalidated-304", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationScenarioThroughput measures the end-to-end scenario
// engine (internal/scenario): one iteration runs a full seeded 25-step
// multi-agent workload with fault injection, at both invariant-check
// cadences. This tracks the cost of system-wide invariant checking as a
// first-class perf number.
func BenchmarkAblationScenarioThroughput(b *testing.B) {
	run := func(b *testing.B, checkEvery int) {
		const steps = 25
		seed := int64(7)
		b.ResetTimer()
		for b.Loop() {
			res := scenario.New(scenario.Config{Seed: seed, Steps: steps, CheckEvery: checkEvery}).Run()
			if res.Failure != nil {
				b.Fatalf("scenario failed: %s", res.Failure)
			}
			seed++ // vary the workload across iterations
		}
		b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
	}
	b.Run("check-every-step", func(b *testing.B) { run(b, 1) })
	b.Run("check-every-8", func(b *testing.B) { run(b, 8) })
}

// BenchmarkWALAppend measures the durable store's append hot path at
// 1 KiB records under each fsync policy — the per-block disk cost a
// durable validator pays on top of sealing.
func BenchmarkWALAppend(b *testing.B) {
	payload := bytes.Repeat([]byte("w"), 1024)
	for _, policy := range []store.SyncPolicy{store.SyncNever, store.SyncInterval, store.SyncAlways} {
		b.Run("fsync-"+policy.String(), func(b *testing.B) {
			w, _, err := store.OpenWAL(filepath.Join(b.TempDir(), "wal.log"), store.Options{Sync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for b.Loop() {
				if err := w.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotRecovery measures chain.OpenNode recovery time at two
// ledger lengths under the recovery-cost snapshot rule
// (store.SnapshotDue): one whose whole diff stays below the 1 MiB floor,
// so recovery replays it all, and one that crosses it, so recovery loads
// a snapshot and replays the tail. The snapshots written while ingesting
// and the diff bytes replayed per reopen are reported beside the time.
func BenchmarkSnapshotRecovery(b *testing.B) {
	const perBlock = 64
	for _, blocks := range []int{16, 96} {
		b.Run(fmt.Sprintf("txs=%d", blocks*perBlock), func(b *testing.B) {
			dir := b.TempDir()
			key := cryptoutil.MustGenerateKey()
			clk := simclock.NewSim(time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC))
			runtime := contract.NewRuntime()
			deAddr := runtime.Deploy(distexchange.ContractName, distexchange.New(distexchange.Config{}))
			cfg := chain.Config{
				Key:         key,
				Authorities: []cryptoutil.Address{key.Address()},
				Executor:    runtime,
				Clock:       clk,
				GenesisTime: clk.Now(),
				DataDir:     dir,
				Persist:     store.Options{Sync: store.SyncNever},
				Metrics:     chain.NewMetrics(obs.NewRegistry()),
			}
			node, err := chain.OpenNode(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for i := range blocks {
				txs := make([]*chain.Tx, perBlock)
				for j := range txs {
					id := i*perBlock + j
					args := distexchange.RegisterPodArgs{
						OwnerWebID: fmt.Sprintf("https://owner%d.example/profile#me", id),
						Location:   fmt.Sprintf("https://owner%d.example/", id),
					}
					if txs[j], err = chain.NewTx(key, uint64(id), deAddr, "registerPod", args, distexchange.DefaultGasLimit); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := node.SubmitBatch(txs); err != nil {
					b.Fatal(err)
				}
				clk.Advance(time.Second)
				if _, err := node.Seal(); err != nil {
					b.Fatal(err)
				}
			}
			wantRoot, stateBytes := node.State().Root(), node.State().Bytes()
			if err := node.Close(); err != nil {
				b.Fatal(err)
			}
			snapshots := cfg.Metrics.SnapshotWrite.Count()
			b.ResetTimer()
			for b.Loop() {
				reopened, err := chain.OpenNode(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if reopened.Height() != uint64(blocks) || reopened.State().Root() != wantRoot {
					b.Fatalf("bad recovery: height %d root mismatch", reopened.Height())
				}
				if err := reopened.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(snapshots), "snapshots")
			b.ReportMetric(float64(stateBytes)/(1<<20), "state-MiB")
		})
	}
}

// BenchmarkAblationDurability runs the harness durability table once per
// iteration (quick mode), keeping the WAL-vs-memory ingestion comparison
// a tracked perf number in CI's bench smoke.
func BenchmarkAblationDurability(b *testing.B) {
	h := &core.Harness{Quick: true}
	b.ResetTimer()
	for b.Loop() {
		if table := h.AblationDurability(); len(table.Rows) != 8 {
			b.Fatalf("durability table has %d rows", len(table.Rows))
		}
	}
}
