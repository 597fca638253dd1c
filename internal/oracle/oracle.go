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
//     transactions into the chain; PushOut registers off-chain handlers
//     that the node calls with each matching committed event, in commit
//     order, as its block commits — nothing is queued, so nothing is
//     dropped; PullOut serves read-only queries of on-chain state; PullIn
//     registers on a PushOut for on-chain data requests (monitoring
//     rounds), collects answers from off-chain sources (TEEs), and pushes
//     them back on-chain, one transaction per round.
//
// A push-out handler runs on the committing goroutine, so it returns
// promptly: the pull-in oracle's handler hands the round to a goroutine
// of its own, a TEE's applies a policy update in place, and that of a pod
// manager waiting for evidence marks a one-slot channel.
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
	return &PushIn{node: node, metrics: orZero(metrics)}
}

// orZero returns metrics, or counters of the oracle's own when it is nil.
func orZero(metrics *Metrics) *Metrics {
	if metrics == nil {
		return &Metrics{}
	}
	return metrics
}

// Submit relays signed transactions on-chain, one push-in message each.
func (o *PushIn) Submit(txs []*chain.Tx) []chain.TxVerdict {
	o.metrics.In.Add(uint64(len(txs)))
	return o.node.Submit(txs)
}

// WaitForReceipt waits for inclusion.
func (o *PushIn) WaitForReceipt(ctx context.Context, txHash cryptoutil.Hash) (*chain.Receipt, error) {
	return o.node.WaitForReceipt(ctx, txHash)
}

// Query delegates read-only queries (a push-in oracle is usually paired
// with pull-out reads by the same component).
func (o *PushIn) Query(contract cryptoutil.Address, method string, args []byte) ([]byte, error) {
	o.metrics.Out.Add(1)
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
	return &PullOut{node: node, metrics: orZero(metrics)}
}

// Query reads on-chain state.
func (o *PullOut) Query(contract cryptoutil.Address, method string, args []byte) ([]byte, error) {
	o.metrics.Out.Add(1)
	return o.node.Query(contract, method, args)
}

// Handler consumes a pushed-out event.
type Handler func(ev chain.Event)

// PushOut is the off-chain component of the push-out oracle: it hands
// contract events to off-chain handlers (used to notify TEEs of policy
// updates, the pull-in oracle of monitoring requests and pod managers of
// gathered evidence). A deployment has one, over the validator its
// oracles observe.
type PushOut struct {
	node    *chain.Node
	metrics *Metrics

	mu      sync.Mutex
	nextID  int            // guarded by mu
	cancels map[int]func() // live registrations; nil once closed; guarded by mu
}

// NewPushOut builds a push-out oracle over node. metrics may be nil.
func NewPushOut(node *chain.Node, metrics *Metrics) *PushOut {
	return &PushOut{node: node, metrics: orZero(metrics), cancels: make(map[int]func())}
}

// On registers a handler for events matching the filter. The node calls
// it on the goroutine that commits the event's block, in commit order,
// before that commit returns, so a handler must return promptly and must
// not seal, wait for a receipt, register or cancel (chain.Node's
// SubscribeEvents). Returns an unsubscribe function; once it returns the
// handler is not running, never runs again, and the oracle holds nothing
// of the registration: a caller may register per wait for the life of a
// deployment.
func (o *PushOut) On(filter chain.EventFilter, handler Handler) (cancel func()) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.cancels == nil {
		return func() {}
	}
	stop := o.node.SubscribeEvents(filter, func(ev chain.Event) {
		o.metrics.Out.Add(1)
		handler(ev)
	})
	o.nextID++
	id := o.nextID
	o.cancels[id] = stop
	return func() {
		o.mu.Lock()
		delete(o.cancels, id)
		o.mu.Unlock()
		stop()
	}
}

// Close cancels every registration; once it returns no handler is running
// and none runs again. On after Close registers nothing.
func (o *PushOut) Close() {
	o.mu.Lock()
	cancels := o.cancels
	o.cancels = nil
	o.mu.Unlock()
	for _, stop := range cancels {
		stop()
	}
}
