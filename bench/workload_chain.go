package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
	"repro/internal/policy"
)

// batchSize is the SubmitBatch size of the chain-* pipelines; one latency
// sample is one batch, from submit to its last receipt.
const batchSize = 256

// chainPipe is chain-ingest (hot=false: registerPod on disjoint keys, no tx
// conflicts with another) and chain-hot (hot=true: every tx bumps the policy
// version of its submitter's one resource, so each conflicts with its
// predecessor). Two submitters, each with its own sender account, push
// pre-signed batches and wait for every receipt.
type chainPipe struct {
	hot     bool
	senders []*cryptoutil.KeyPair
	batches [][][]*chain.Tx // per submitter
}

func (p *chainPipe) setup(ctx context.Context, e *env) error {
	rng := rand.New(rand.NewSource(e.seed))
	per := e.ops / e.spec.Clients
	now := e.d.Clock.Now()
	for s := range e.spec.Clients {
		key := cryptoutil.MustGenerateKey()
		p.senders = append(p.senders, key)
		nonce := uint64(0)
		var webID, iri string
		var pol *policy.Policy
		if p.hot {
			// The submitter owns one pod with one published resource; the
			// measured transactions all rewrite that resource's policy.
			webID = fmt.Sprintf("https://hot-%d.example/profile#me", s)
			iri = fmt.Sprintf("https://hot-%d.example/data/hot.bin", s)
			pol = policy.New(iri, webID, now)
			de := distexchange.NewClient(e.d.PushInOracle(), key, e.d.DEAddr)
			if _, err := de.RegisterPod(ctx, distexchange.RegisterPodArgs{OwnerWebID: webID, Location: fmt.Sprintf("https://hot-%d.example/", s)}); err != nil {
				return err
			}
			if _, err := de.RegisterResource(ctx, distexchange.RegisterResourceArgs{
				ResourceIRI: iri, PodWebID: webID, Location: iri, Description: "hot resource", Policy: pol,
			}); err != nil {
				return err
			}
			nonce = 2
		}
		txs := make([]*chain.Tx, 0, per)
		for i := range per {
			var method string
			var args any
			if p.hot {
				pol = pol.NextVersion(now)
				pol.MaxUses = uint64(1000 + rng.Intn(9000)) // four digits: constant calldata size
				method, args = "updatePolicy", distexchange.UpdatePolicyArgs{ResourceIRI: iri, Policy: pol}
				e.note("hot %d/%d v=%d maxUses=%d", s, i, pol.Version, pol.MaxUses)
			} else {
				pod := fmt.Sprintf("https://pod-%016x.example", rng.Uint64())
				method, args = "registerPod", distexchange.RegisterPodArgs{OwnerWebID: pod + "/profile#me", Location: pod + "/"}
				e.note("ingest %d/%d %s", s, i, pod)
			}
			tx, err := chain.NewTx(key, nonce, e.d.DEAddr, method, args, distexchange.DefaultGasLimit)
			if err != nil {
				return err
			}
			nonce++
			txs = append(txs, tx)
		}
		var batches [][]*chain.Tx
		for len(txs) > 0 {
			n := min(batchSize, len(txs))
			batches = append(batches, txs[:n])
			txs = txs[n:]
		}
		p.batches = append(p.batches, batches)
	}
	return nil
}

func (p *chainPipe) run(ctx context.Context, e *env) []clientResult {
	return runClients(e.spec.Clients, func(client int) clientResult {
		var res clientResult
		rec := e.tr.recorder()
		sender := p.senders[client].Address()
		for b, batch := range p.batches[client] {
			op := int64(client*len(p.batches[client]) + b)
			res.attempted += len(batch)
			t0 := time.Now()
			err := submitAndWait(ctx, e, rec, op, sender, batch)
			e.prog.tick(client, len(batch))
			if err != nil {
				res.fail(len(batch), fmt.Errorf("batch %d: %w", op, err))
				continue
			}
			res.ok(t0)
		}
		return res
	})
}

// submitAndWait pushes one pre-signed batch through Deployment.SubmitBatch and
// waits on validator 0 for every receipt, each of which must be StatusOK.
func submitAndWait(ctx context.Context, e *env, rec *recorder, op int64, sender cryptoutil.Address, batch []*chain.Tx) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	root := rec.beginTx(op, spanRef{}, "op.batch", sender)
	defer root.end()
	sp := rec.beginTx(op, root, "chain.submit", sender)
	hashes, err := e.d.SubmitBatch(batch)
	sp.end()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	sp = rec.beginTx(op, root, "chain.receipt_wait", sender)
	defer sp.end()
	node := e.d.Nodes[0]
	for _, h := range hashes {
		r, err := node.WaitForReceipt(ctx, h)
		if err != nil {
			return fmt.Errorf("wait %s: %w", h.Short(), err)
		}
		if !r.Succeeded() {
			return fmt.Errorf("tx %s reverted: %s", h.Short(), r.Err)
		}
	}
	return nil
}

func (p *chainPipe) verify(*env) []check { return nil }
