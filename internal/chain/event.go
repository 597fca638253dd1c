package chain

import (
	"slices"
	"sync"

	"repro/internal/cryptoutil"
)

// Event is a log entry emitted by a contract during transaction execution.
// Events are the on-chain half of the oracle patterns: off-chain oracle
// components subscribe to them to learn about state changes (push-out),
// and the pull-in oracle answers on-chain requests expressed as events.
type Event struct {
	// Contract is the emitting contract's address.
	Contract cryptoutil.Address
	// Topic names the event type (e.g. "PolicyUpdated").
	Topic string
	// Key is an optional secondary filter (e.g. the resource IRI).
	Key string
	// Data is the payload, in the emitting contract's encoding (the DE
	// App's godoc, "Events", lists what each of its topics carries).
	Data []byte
	// BlockNumber and TxHash locate the event on the ledger.
	BlockNumber uint64
	TxHash      cryptoutil.Hash
	// Index is the position of the event within its block.
	Index int
}

// EventFilter selects events. Zero fields match everything.
type EventFilter struct {
	// Contract restricts to one emitting contract.
	Contract cryptoutil.Address
	// Topic restricts to one topic.
	Topic string
	// Key restricts to one key.
	Key string
	// FromBlock restricts to events at or after this block number.
	FromBlock uint64
}

// Matches reports whether the event passes the filter.
func (f EventFilter) Matches(e *Event) bool {
	if !f.Contract.IsZero() && e.Contract != f.Contract {
		return false
	}
	if f.Topic != "" && e.Topic != f.Topic {
		return false
	}
	if f.Key != "" && e.Key != f.Key {
		return false
	}
	if e.BlockNumber < f.FromBlock {
		return false
	}
	return true
}

// eventFeed hands committed events to the handlers registered on it:
// commitBlock calls publish, which calls every matching handler in
// commit order while it holds mu, so nothing is buffered or dropped. See
// the package doc's "Event delivery" for what a handler may do.
type eventFeed struct {
	mu     sync.Mutex
	nextID int       // guarded by mu
	subs   []feedSub // in registration order; guarded by mu
}

type feedSub struct {
	id     int
	filter EventFilter
	handle func(Event)
}

// subscribe registers handle for the events filter matches. The returned
// cancel is idempotent; once it returns, handle is not running and never
// runs again.
func (f *eventFeed) subscribe(filter EventFilter, handle func(Event)) (cancel func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextID++
	id := f.nextID
	f.subs = append(f.subs, feedSub{id: id, filter: filter, handle: handle})
	return func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.subs = slices.DeleteFunc(f.subs, func(s feedSub) bool { return s.id == id })
	}
}

// publish calls every matching handler on each event of a committed
// block, read from its receipts in commit order.
func (f *eventFeed) publish(receipts []*Receipt) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range receipts {
		for i := range r.Events {
			for _, sub := range f.subs {
				if sub.filter.Matches(&r.Events[i]) {
					sub.handle(r.Events[i])
				}
			}
		}
	}
}
