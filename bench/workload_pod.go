package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/solid"
)

const (
	podOwners        = 8
	podResourcesEach = 16
	podResourceSize  = 4 << 10
	podContainer     = "/data/l1/l2/l3/" // container depth 4
	putEvery         = 10
)

// podTarget is one published resource a consumer may fetch.
type podTarget struct {
	iri      string
	location string
	sum      [sha256.Size]byte
}

// podOp is one pod-serve operation: a paid GET of target, or an owner PUT.
type podOp struct {
	put    bool
	target int // GET: index into targets; PUT: owner index
}

// podServe reads published resources the way a consumer's trusted application
// does — market fee, payment certificate, TEE quote, signed GET — with every
// tenth operation an owner-signed PUT into the same container, which bumps
// that pod's ACL-cache generation. Nothing is committed on-chain while it runs.
type podServe struct {
	owners  []*core.Owner
	buyers  []*core.Consumer
	targets []podTarget
	plans   [][]podOp
	putBody [][]byte

	fetch   []*solid.Client   // per client: the consumer's signed client
	writers [][]*solid.Client // per client, per owner: the owner's signed client
}

func (p *podServe) setup(ctx context.Context, e *env) error {
	rng := rand.New(rand.NewSource(e.seed))
	nc := e.spec.Clients
	for i := range nc {
		c, err := e.d.NewConsumer(fmt.Sprintf("reader-%02d", i), benchPurpose)
		if err != nil {
			return err
		}
		p.buyers = append(p.buyers, c)
	}
	for i := range podOwners {
		o, err := e.d.NewOwner(fmt.Sprintf("host-%02d", i))
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := o.InitializePod(ctx, nil); err != nil {
			return err
		}
		e.podInitNs = append(e.podInitNs, time.Since(t0).Nanoseconds())
		p.owners = append(p.owners, o)
		for r := range podResourcesEach {
			path := fmt.Sprintf("%sres-%02d.bin", podContainer, r)
			body := payload(rng, podResourceSize)
			if err := o.AddResource(path, "application/octet-stream", body); err != nil {
				return err
			}
			iri, err := o.Publish(ctx, path, "bench resource", benchPolicy(o, path))
			if err != nil {
				return err
			}
			for _, c := range p.buyers {
				if err := o.Grant(ctx, c, path, benchPurpose); err != nil {
					return err
				}
			}
			rec, err := p.buyers[0].Index(iri)
			if err != nil {
				return err
			}
			p.targets = append(p.targets, podTarget{iri: iri, location: rec.Location, sum: sha256.Sum256(body)})
		}
	}

	// One HTTP connection per client: two closed-loop agents, two sockets.
	per := e.ops / nc
	p.plans = make([][]podOp, nc)
	for c := range nc {
		hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		fetch := solid.NewClient(p.buyers[c].WebID, p.buyers[c].Key, e.d.Clock)
		fetch.HTTP = hc
		p.fetch = append(p.fetch, fetch)
		var writers []*solid.Client
		for _, o := range p.owners {
			w := solid.NewClient(o.WebID, o.Key, e.d.Clock)
			w.HTTP = hc
			writers = append(writers, w)
		}
		p.writers = append(p.writers, writers)
		p.putBody = append(p.putBody, payload(rng, podResourceSize))

		puts := per / putEvery
		gets := balanced(rng, per-puts, len(p.targets))
		putOwners := balanced(rng, puts, podOwners)
		for i := range per {
			var op podOp
			if i%putEvery == putEvery-1 {
				op, putOwners = podOp{put: true, target: putOwners[0]}, putOwners[1:]
			} else {
				op, gets = podOp{target: gets[0]}, gets[1:]
			}
			e.note("pod %d/%d put=%t target=%d", c, i, op.put, op.target)
			p.plans[c] = append(p.plans[c], op)
		}
	}
	return nil
}

func (p *podServe) run(_ context.Context, e *env) []clientResult {
	return runClients(e.spec.Clients, func(client int) clientResult {
		var res clientResult
		rec := e.tr.recorder()
		for i, op := range p.plans[client] {
			id := int64(client*len(p.plans[client]) + i)
			res.attempted++
			t0 := time.Now()
			err := p.serve(e, rec, id, client, op)
			e.prog.tick(client, 1)
			if err != nil {
				res.fail(1, fmt.Errorf("pod op %d: %w", id, err))
				continue
			}
			res.ok(t0)
		}
		return res
	})
}

func (p *podServe) serve(e *env, rec *recorder, id int64, client int, op podOp) error {
	root := rec.begin(id, spanRef{}, "op.pod-serve")
	defer root.end()
	if op.put {
		o := p.owners[op.target]
		url := o.URL() + fmt.Sprintf("%sscratch-c%d.bin", podContainer, client)
		sp := rec.begin(id, root, "solid.put")
		defer sp.end()
		return p.writers[client][op.target].Put(url, "application/octet-stream", p.putBody[client])
	}
	t := p.targets[op.target]
	data, err := paidGet(e, rec, id, root, p.buyers[client], p.fetch[client], t.iri, t.location)
	if err != nil {
		return err
	}
	if sha256.Sum256(data) != t.sum {
		return fmt.Errorf("body of %s does not hash to the published bytes", t.iri)
	}
	return nil
}

func (p *podServe) verify(*env) []check { return nil }
