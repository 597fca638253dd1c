package oracle

import (
	"context"
	"log"
	"sync"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/distexchange"
)

// EvidenceSource is an off-chain data source the pull-in oracle can query:
// in this architecture, a TEE trusted application reporting compliance
// evidence. tee.App satisfies it via a small adapter in package core.
type EvidenceSource interface {
	// Address returns the device identity the DE App knows the source by.
	Address() cryptoutil.Address
	// Evidence produces signed evidence for a resource and round.
	Evidence(resourceIRI string, round uint64) (distexchange.SignedEvidence, error)
}

// PullIn is the off-chain component of the pull-in oracle: the blockchain
// requests data from the off-chain world (the DE App emits a
// MonitoringRequested event), the oracle collects the answers from its
// registered sources, and pushes them back on-chain as one evidence
// submission per round (Fig. 2(6)).
type PullIn struct {
	client  *distexchange.Client
	pushOut *PushOut
	metrics *Metrics

	// ctx is the oracle's lifetime: rounds submit under it and Close cancels
	// it, so a round whose answer is never sealed does not outlive the oracle.
	ctx  context.Context
	stop context.CancelFunc

	// Fanout collects evidence from targets concurrently when true
	// (sequential otherwise).
	Fanout bool

	mu      sync.Mutex
	sources map[cryptoutil.Address]EvidenceSource
	cancel  func()

	// inFlight counts the rounds being answered, one goroutine each.
	inFlight sync.WaitGroup
}

// NewPullIn builds a pull-in oracle that answers monitoring requests for
// the DE App behind client, learning of them through pushOut. metrics may
// be nil.
func NewPullIn(pushOut *PushOut, client *distexchange.Client, metrics *Metrics) *PullIn {
	ctx, stop := context.WithCancel(context.Background())
	return &PullIn{
		client:  client,
		pushOut: pushOut,
		metrics: orZero(metrics),
		ctx:     ctx,
		stop:    stop,
		sources: make(map[cryptoutil.Address]EvidenceSource),
	}
}

// RegisterSource adds an off-chain source (consumer device).
func (o *PullIn) RegisterSource(src EvidenceSource) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sources[src.Address()] = src
}

// UnregisterSource removes a source (e.g. an offline device).
func (o *PullIn) UnregisterSource(addr cryptoutil.Address) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.sources, addr)
}

// Start begins watching MonitoringRequested events from the DE App at
// deAddr. Stop with Close. Every round is answered on a goroutine of its
// own: the handler runs on the goroutine committing the request's block,
// which must not wait for a receipt; a round waits for its answer's
// receipt, and the rounds requested meanwhile — other owners' — must not
// wait with it. What bounds them is what
// bounds the requests: each was a committed transaction, and each holds one
// of the relay's pending-transaction slots until its answer is sealed.
func (o *PullIn) Start(deAddr cryptoutil.Address) {
	filter := chain.EventFilter{Contract: deAddr, Topic: distexchange.TopicMonitoringRequested}
	cancel := o.pushOut.On(filter, func(ev chain.Event) {
		round, err := distexchange.DecodeMonitoringRound(ev.Data)
		if err != nil {
			log.Printf("oracle: pull-in: bad monitoring event: %v", err)
			return
		}
		o.inFlight.Add(1)
		go func() {
			defer o.inFlight.Done()
			o.handleRound(round)
		}()
	})
	o.mu.Lock()
	o.cancel = cancel
	o.mu.Unlock()
}

// handleRound answers one monitoring request: it gathers every target's
// signed evidence first, then relays the round as one submitEvidence
// transaction. A target without a source, or whose source fails, is left out
// of the list: it stays silent on-chain and is flagged unresponsive when the
// owner closes the round.
func (o *PullIn) handleRound(round distexchange.MonitoringRound) {
	defer o.metrics.PullInRound.Start().Stop()

	// gathered[i] answers round.Targets[i] when found[i]; each gather writes
	// its own slot.
	gathered := make([]distexchange.SignedEvidence, len(round.Targets))
	found := make([]bool, len(round.Targets))
	gather := func(i int) {
		target := round.Targets[i]
		o.mu.Lock()
		src, ok := o.sources[target]
		o.mu.Unlock()
		if !ok {
			return // unknown or offline device
		}
		signed, err := src.Evidence(round.ResourceIRI, round.Round)
		if err != nil {
			o.metrics.EvidenceSourceError.Inc()
			log.Printf("oracle: pull-in: source %s: %v", target.Short(), err)
			return
		}
		gathered[i], found[i] = signed, true
	}
	if o.Fanout {
		var wg sync.WaitGroup
		for i := range round.Targets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				gather(i)
			}()
		}
		wg.Wait()
	} else {
		for i := range round.Targets {
			gather(i)
		}
	}

	batch := make([]distexchange.SignedEvidence, 0, len(round.Targets))
	for i := range gathered {
		if found[i] {
			batch = append(batch, gathered[i])
		}
	}
	if len(batch) == 0 {
		return
	}
	o.metrics.In.Add(uint64(len(batch)))
	for i, outcome := range o.client.SubmitEvidenceBatch(o.ctx, batch) {
		if outcome.Err != nil {
			o.metrics.EvidenceReverted.Inc()
			log.Printf("oracle: pull-in: submit for %s: %v", batch[i].Evidence.Device.Short(), outcome.Err)
			continue
		}
		o.metrics.EvidenceSubmitted.Inc()
	}
}

// Wait blocks until all in-flight rounds have been answered.
func (o *PullIn) Wait() { o.inFlight.Wait() }

// Close stops watching, gives up on answers still waiting to be sealed and
// waits for the rounds in flight to return. The push-out oracle it
// registered on is its owner's to close.
func (o *PullIn) Close() {
	o.mu.Lock()
	cancel := o.cancel
	o.cancel = nil
	o.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	o.stop()
	o.inFlight.Wait()
}
