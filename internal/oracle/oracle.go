// Package oracle implements the four foundational blockchain oracle
// patterns the architecture uses to connect the on-chain DE App with the
// off-chain Pod Managers and TEEs: push-in, push-out, pull-in, and
// pull-out, each split into an on-chain and an off-chain component as in
// the paper (Section III-D).
//
// Mapping onto the substrate:
//
//   - The on-chain oracle components are the DE App's transaction methods
//     (inbox) and its event log (outbox), provided by packages contract
//     and chain.
//   - The off-chain components live here: PushIn relays signed
//     transactions into the chain; PushOut subscribes to events and
//     dispatches them to off-chain handlers; PullOut serves read-only
//     queries of on-chain state; PullIn watches on-chain data requests
//     (monitoring rounds), collects answers from off-chain sources (TEEs),
//     and pushes them back on-chain, one transaction per round.
package oracle

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
	"repro/internal/obs"
)

// Node is a distexchange.Backend — the transaction/query access the
// push-in and pull-out oracles relay — that additionally exposes event
// subscriptions, needed by the push-out and pull-in oracles; *chain.Node
// satisfies it.
type Node interface {
	distexchange.Backend
	SubscribeEvents(filter chain.EventFilter, buffer int) *chain.Subscription
}

var _ Node = (*chain.Node)(nil)

// Metrics counts oracle traffic and holds the pull-in oracle's obs
// instruments. The zero value counts traffic and leaves the instruments
// on the no-op path.
type Metrics struct {
	// In counts off-chain → on-chain messages (push-in + pull-in answers).
	In atomic.Uint64
	// Out counts on-chain → off-chain messages (push-out + pull-out reads).
	Out atomic.Uint64

	// PullInRound times one monitoring round in the pull-in oracle, from
	// the MonitoringRequested event to the receipt of its answer.
	PullInRound *obs.Histogram
	// Evidence* count the pull-in oracle's per-target outcomes.
	EvidenceSubmitted   *obs.Counter // relayed and accepted by the DE App
	EvidenceSourceError *obs.Counter // the source returned an error
	EvidenceReverted    *obs.Counter // relayed, but refused or never included
}

// NewMetrics registers the oracle series on reg. A nil reg yields no-op
// instruments; the traffic counters work either way.
func NewMetrics(reg *obs.Registry) *Metrics {
	evidence := func(result string) *obs.Counter {
		return reg.Counter("oracle_pullin_evidence_total", "pull-in evidence per target by outcome", obs.L("result", result))
	}
	return &Metrics{
		PullInRound:         reg.Histogram("oracle_pullin_round_ns", "pull-in monitoring round: request event to the answer's receipt"),
		EvidenceSubmitted:   evidence("submitted"),
		EvidenceSourceError: evidence("source_error"),
		EvidenceReverted:    evidence("reverted"),
	}
}

// PushIn is the off-chain component of the push-in oracle: off-chain
// entities push data to the blockchain by relaying transactions. It
// implements distexchange.Backend, so a distexchange.Client can run on
// top of it transparently.
type PushIn struct {
	node    distexchange.Backend
	metrics *Metrics
}

// NewPushIn builds a push-in oracle over a chain backend. metrics may be
// nil.
func NewPushIn(node distexchange.Backend, metrics *Metrics) *PushIn {
	return &PushIn{node: node, metrics: metrics}
}

// Submit relays signed transactions on-chain, one push-in message each.
func (o *PushIn) Submit(txs []*chain.Tx) []chain.TxVerdict {
	if o.metrics != nil {
		o.metrics.In.Add(uint64(len(txs)))
	}
	return o.node.Submit(txs)
}

// WaitForReceipt waits for inclusion.
func (o *PushIn) WaitForReceipt(ctx context.Context, txHash cryptoutil.Hash) (*chain.Receipt, error) {
	return o.node.WaitForReceipt(ctx, txHash)
}

// Query delegates read-only queries (a push-in oracle is usually paired
// with pull-out reads by the same component).
func (o *PushIn) Query(contract cryptoutil.Address, method string, args []byte) ([]byte, error) {
	if o.metrics != nil {
		o.metrics.Out.Add(1)
	}
	return o.node.Query(contract, method, args)
}

// NonceFor returns the next nonce for an address.
func (o *PushIn) NonceFor(addr cryptoutil.Address) uint64 { return o.node.NonceFor(addr) }

// PullOut is the off-chain component of the pull-out oracle: off-chain
// entities pull data from the blockchain with read-only queries (used by
// TEEs for resource indexing, Fig. 2(3)).
type PullOut struct {
	node    distexchange.Backend
	metrics *Metrics
}

// NewPullOut builds a pull-out oracle. metrics may be nil.
func NewPullOut(node distexchange.Backend, metrics *Metrics) *PullOut {
	return &PullOut{node: node, metrics: metrics}
}

// Query reads on-chain state.
func (o *PullOut) Query(contract cryptoutil.Address, method string, args []byte) ([]byte, error) {
	if o.metrics != nil {
		o.metrics.Out.Add(1)
	}
	return o.node.Query(contract, method, args)
}

// Handler consumes a pushed-out event.
type Handler func(ev chain.Event)

// PushOut is the off-chain component of the push-out oracle: it subscribes
// to contract events and pushes them to off-chain handlers (used to notify
// TEEs of policy updates and pod managers of gathered evidence).
type PushOut struct {
	node    Node
	metrics *Metrics

	mu      sync.Mutex
	subs    map[*chain.Subscription]struct{} // live registrations; guarded by mu
	wg      sync.WaitGroup
	stopped bool // guarded by mu
}

// NewPushOut builds a push-out oracle. metrics may be nil.
func NewPushOut(node Node, metrics *Metrics) *PushOut {
	return &PushOut{node: node, metrics: metrics, subs: make(map[*chain.Subscription]struct{})}
}

// On registers a handler for events matching the filter. Handlers run on a
// dedicated goroutine per registration, in event order. Returns an
// unsubscribe function, after which the oracle holds nothing of the
// registration: a caller may register per wait for the life of a
// deployment.
func (o *PushOut) On(filter chain.EventFilter, handler Handler) (cancel func()) {
	sub := o.node.SubscribeEvents(filter, 256)
	o.mu.Lock()
	if o.stopped {
		o.mu.Unlock()
		sub.Cancel()
		return func() {}
	}
	o.subs[sub] = struct{}{}
	o.wg.Add(1)
	o.mu.Unlock()

	go func() {
		defer o.wg.Done()
		for ev := range sub.C {
			if o.metrics != nil {
				o.metrics.Out.Add(1)
			}
			handler(ev)
		}
	}()
	return func() {
		o.mu.Lock()
		delete(o.subs, sub)
		o.mu.Unlock()
		sub.Cancel()
	}
}

// Close cancels all subscriptions and waits for handlers to drain.
func (o *PushOut) Close() {
	o.mu.Lock()
	o.stopped = true
	subs := o.subs
	o.subs = nil
	o.mu.Unlock()
	for s := range subs {
		s.Cancel()
	}
	o.wg.Wait()
}
