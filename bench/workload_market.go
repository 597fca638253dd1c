package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/podmanager"
	"repro/internal/policy"
	"repro/internal/solid"
)

// workload is one named set of inputs. setup builds the state the measured
// phase starts from, run executes the fixed op count with closed-loop
// clients, verify checks what the run left behind.
type workload interface {
	setup(ctx context.Context, e *env) error
	run(ctx context.Context, e *env) []clientResult
	verify(e *env) []check
}

// check is one correctness check's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func checkf(name string, ok bool, format string, args ...any) check {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	return c
}

func newWorkload(name string) workload {
	switch name {
	case "market-mix":
		return &marketMix{}
	case "chain-ingest":
		return &chainPipe{hot: false}
	case "chain-hot":
		return &chainPipe{hot: true}
	case "pod-serve":
		return &podServe{}
	case "monitor-round":
		return &monitorRound{}
	}
	return nil
}

const (
	benchPurpose  = policy.PurposeWebAnalytics
	usesPerAccess = 4
	marketOwners  = 32
	marketBuyers  = 8
	modifyEvery   = 4
)

// benchPolicy is the usage policy every published benchmark resource carries:
// a purpose constraint and a retention deadline (which arms a TEE timer).
func benchPolicy(o *core.Owner, path string) *policy.Policy {
	pol := o.NewPolicy(path)
	pol.AllowedPurposes = []policy.Purpose{benchPurpose}
	pol.MaxRetention = 30 * 24 * time.Hour
	return pol
}

// calibratePolicy times policy.Evaluate on the benchmark policy.
func calibratePolicy() float64 {
	now := time.Date(2023, 10, 9, 0, 0, 0, 0, time.UTC)
	pol := policy.New("https://pod.example/data/r", "https://pod.example/profile#me", now)
	pol.AllowedPurposes = []policy.Purpose{benchPurpose}
	pol.MaxRetention = 30 * 24 * time.Hour
	uc := policy.UsageContext{Now: now.Add(time.Hour), Purpose: benchPurpose, Action: policy.ActionUse, RetrievedAt: now}
	const n = 100_000
	allowed := 0
	t0 := time.Now()
	for range n {
		if pol.Evaluate(uc).Allowed {
			allowed++
		}
	}
	ns := float64(time.Since(t0).Nanoseconds()) / n
	if allowed != n {
		return 0
	}
	return ns
}

// lifecycle is one market-mix operation: a resource's whole Fig. 2 chain.
type lifecycle struct {
	owner, buyer int
	path         string
	data         []byte
	modify       bool
}

// marketMix drives lifecycle chains over pre-registered owners and consumers.
type marketMix struct {
	owners []*core.Owner
	buyers []*core.Consumer
	fetch  []*solid.Client // per buyer, for the unrolled access of the traced run
	plans  [][]lifecycle   // per client
}

func (m *marketMix) setup(ctx context.Context, e *env) error {
	for i := range marketOwners {
		o, err := e.d.NewOwner(fmt.Sprintf("owner-%02d", i))
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := o.InitializePod(ctx, nil); err != nil {
			return err
		}
		e.podInitNs = append(e.podInitNs, time.Since(t0).Nanoseconds())
		m.owners = append(m.owners, o)
	}
	for i := range marketBuyers {
		c, err := e.d.NewConsumer(fmt.Sprintf("buyer-%02d", i), benchPurpose)
		if err != nil {
			return err
		}
		m.buyers = append(m.buyers, c)
		m.fetch = append(m.fetch, solid.NewClient(c.WebID, c.Key, e.d.Clock))
	}

	// Owners and buyers are partitioned per client, so one owner (one nonce
	// sequence) and one buyer (one HTTP decorator) never serve two chains at
	// once.
	rng := rand.New(rand.NewSource(e.seed))
	nc := e.spec.Clients
	per := e.ops / nc
	ownersPer, buyersPer := marketOwners/nc, marketBuyers/nc
	m.plans = make([][]lifecycle, nc)
	for c := range nc {
		owners := balanced(rng, per, ownersPer)
		buyers := balanced(rng, per, buyersPer)
		sizes := balanced(rng, per, len(resourceSizes))
		modifies := balanced(rng, per, modifyEvery)
		for i := range per {
			lc := lifecycle{
				owner:  c*ownersPer + owners[i],
				buyer:  c*buyersPer + buyers[i],
				path:   fmt.Sprintf("/data/c%d/r%06d.bin", c, i),
				data:   payload(rng, resourceSizes[sizes[i]]),
				modify: modifies[i] == 0,
			}
			e.note("chain %d/%d owner=%d buyer=%d size=%d modify=%t body=%s",
				c, i, lc.owner, lc.buyer, len(lc.data), lc.modify, digestOf(lc.data))
			m.plans[c] = append(m.plans[c], lc)
		}
	}
	return nil
}

func (m *marketMix) run(ctx context.Context, e *env) []clientResult {
	return runClients(e.spec.Clients, func(client int) clientResult {
		var res clientResult
		rec := e.tr.recorder()
		for i, lc := range m.plans[client] {
			op := int64(client*len(m.plans[client]) + i)
			res.attempted++
			t0 := time.Now()
			err := m.chain(ctx, e, rec, op, lc)
			e.prog.tick(client, 1)
			if err != nil {
				res.fail(1, fmt.Errorf("chain %d: %w", op, err))
				continue
			}
			res.ok(t0)
		}
		return res
	})
}

// chain runs one lifecycle: AddResource → Publish (Fig. 2-2) → Grant → Index
// (2-3) → Access (2-4) → 4× Use, and on every fourth chain ModifyPolicy +
// WaitPolicyVersion (2-5). With a recorder it also records the layer spans
// and unrolls the two façade calls that cross several layers.
func (m *marketMix) chain(ctx context.Context, e *env, rec *recorder, op int64, lc lifecycle) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	o, c := m.owners[lc.owner], m.buyers[lc.buyer]
	root := rec.begin(op, spanRef{}, "op.market-mix")
	defer root.end()

	sp := rec.begin(op, root, "core.add_resource")
	err := o.AddResource(lc.path, "application/octet-stream", lc.data)
	sp.end()
	if err != nil {
		return fmt.Errorf("add resource: %w", err)
	}

	pol := benchPolicy(o, lc.path)
	sp = rec.begin(op, root, "core.publish")
	iri, err := publish(ctx, e, rec, op, sp, o, lc.path, pol)
	sp.end()
	if err != nil {
		return fmt.Errorf("publish: %w", err)
	}

	sp = rec.begin(op, root, "core.grant")
	inner := rec.beginTx(op, sp, "podmanager.grant", o.Key.Address())
	err = o.Grant(ctx, c, lc.path, benchPurpose)
	inner.end()
	sp.end()
	if err != nil {
		return fmt.Errorf("grant: %w", err)
	}

	sp = rec.begin(op, root, "core.index")
	_, err = c.Index(iri)
	sp.end()
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}

	sp = rec.begin(op, root, "core.access")
	if rec == nil {
		err = c.Access(ctx, iri)
	} else {
		err = accessUnrolled(ctx, e, rec, op, sp, c, m.fetch[lc.buyer], iri)
	}
	sp.end()
	if err != nil {
		return fmt.Errorf("access: %w", err)
	}
	if !c.App.Holds(iri) {
		return fmt.Errorf("consumer does not hold %s after access", iri)
	}

	for range usesPerAccess {
		sp = rec.begin(op, root, "core.use")
		inner = rec.begin(op, sp, "tee.use")
		got, err := c.Use(iri, policy.ActionUse)
		inner.end()
		sp.end()
		if err != nil {
			return fmt.Errorf("use: %w", err)
		}
		if !bytes.Equal(got, lc.data) {
			return fmt.Errorf("use of %s returned %d bytes that differ from the original", iri, len(got))
		}
	}

	if lc.modify {
		next := pol.NextVersion(e.d.Clock.Now())
		next.MaxUses = 1000
		sp = rec.begin(op, root, "core.modify")
		inner = rec.beginTx(op, sp, "podmanager.modify", o.Key.Address())
		err = o.ModifyPolicy(ctx, lc.path, next)
		inner.end()
		if err == nil {
			inner = rec.begin(op, sp, "oracle.push_out_wait")
			err = c.WaitPolicyVersion(iri, next.Version, opTimeout)
			inner.end()
		}
		sp.end()
		if err != nil {
			return fmt.Errorf("modify: %w", err)
		}
	}
	return nil
}

// publish is Owner.Publish; the traced run calls the two layers the façade
// crosses (pod manager, then market) itself to time them apart.
func publish(ctx context.Context, e *env, rec *recorder, op int64, parent spanRef, o *core.Owner, path string, pol *policy.Policy) (string, error) {
	if rec == nil {
		return o.Publish(ctx, path, "bench resource", pol)
	}
	sp := rec.beginTx(op, parent, "podmanager.publish", o.Key.Address())
	err := o.Manager.Publish(ctx, o.WebID, path, "bench resource", pol)
	sp.end()
	if err != nil {
		return "", err
	}
	iri := o.Manager.ResourceIRI(path)
	e.d.Market.SetResourceOwner(iri, string(o.WebID))
	return iri, nil
}

// accessUnrolled is Consumer.Access (Fig. 2-4) with a span around each layer
// call, using only the consumer's exported fields: index through the pull-out
// oracle, pay the market fee, fetch from the pod with the certificate and an
// attestation quote, store the copy in the TEE, confirm retrieval on-chain.
func accessUnrolled(ctx context.Context, e *env, rec *recorder, op int64, parent spanRef, c *core.Consumer, fetch *solid.Client, iri string) error {
	sp := rec.begin(op, parent, "distexchange.query")
	record, err := c.Index(iri)
	sp.end()
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	data, err := paidGet(e, rec, op, parent, c, fetch, iri, record.Location)
	if err != nil {
		return err
	}
	sp = rec.begin(op, parent, "tee.store")
	err = c.App.StoreResource(iri, data, record.Policy)
	sp.end()
	if err != nil {
		return err
	}
	sp = rec.beginTx(op, parent, "distexchange.confirm_retrieval", c.Device.Address())
	_, err = c.DE.ConfirmRetrieval(ctx, iri)
	sp.end()
	return err
}

// paidGet pays the market fee for iri and fetches it with the payment
// certificate and a TEE quote attached, as Consumer.Access does.
func paidGet(e *env, rec *recorder, op int64, parent spanRef, c *core.Consumer, fetch *solid.Client, iri, location string) ([]byte, error) {
	sp := rec.begin(op, parent, "market.payfee")
	cert, err := e.d.Market.PayFee(string(c.WebID), iri)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("pay fee: %w", err)
	}
	sp = rec.begin(op, parent, "solid.get")
	defer sp.end()
	decorate, err := podmanager.AttachCertificate(cert)
	if err != nil {
		return nil, err
	}
	fetch.Decorate = podmanager.Decorators(decorate, podmanager.AttachTEEQuote(c.Device))
	data, _, err := fetch.Get(location)
	if err != nil {
		return nil, fmt.Errorf("fetch %s: %w", location, err)
	}
	return data, nil
}

func (m *marketMix) verify(e *env) []check {
	sp := e.tr.recorder().begin(-1, spanRef{}, "market.settle")
	_, err := e.d.Market.Settle(10)
	sp.end()
	fees, earned, revenue := e.d.Market.Totals()
	wantFees := uint64(e.ops) * 5 // one basic-plan fee per chain
	return []check{
		checkf("market.settle", err == nil, "settle: %v", err),
		checkf("market.funds_conserved", fees == earned+revenue && fees == wantFees,
			"fees %d, earned %d + revenue %d, want fees %d", fees, earned, revenue, wantFees),
	}
}
