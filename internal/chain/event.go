package chain

import (
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
	// App's is its record codec, distexchange/codec.go).
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

// Subscription delivers matching events to a channel until cancelled.
type Subscription struct {
	// C receives matching events. It is closed when the subscription is
	// cancelled.
	C      <-chan Event
	cancel func()
}

// Cancel terminates the subscription and closes C. Cancel is idempotent.
func (s *Subscription) Cancel() { s.cancel() }

// eventFeed fans out committed events to subscribers. Delivery is
// best-effort with a per-subscriber buffer: a subscriber that falls behind
// loses events and the drop is counted (observable via Dropped).
type eventFeed struct {
	mu      sync.Mutex
	nextID  int
	subs    map[int]*feedSub
	dropped uint64
}

type feedSub struct {
	filter EventFilter
	ch     chan Event
	closed bool
}

func newEventFeed() *eventFeed {
	return &eventFeed{subs: make(map[int]*feedSub)}
}

// subscribe registers a subscriber with the given buffer capacity.
func (f *eventFeed) subscribe(filter EventFilter, buffer int) *Subscription {
	if buffer <= 0 {
		buffer = 64
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextID++
	id := f.nextID
	sub := &feedSub{filter: filter, ch: make(chan Event, buffer)}
	f.subs[id] = sub
	var once sync.Once
	return &Subscription{
		C: sub.ch,
		cancel: func() {
			once.Do(func() {
				f.mu.Lock()
				defer f.mu.Unlock()
				if s, ok := f.subs[id]; ok {
					s.closed = true
					close(s.ch)
					delete(f.subs, id)
				}
			})
		},
	}
}

// publish delivers events to every matching subscriber.
func (f *eventFeed) publish(events []Event) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ev := range events {
		for _, sub := range f.subs {
			if sub.closed || !sub.filter.Matches(&ev) {
				continue
			}
			select {
			case sub.ch <- ev:
			default:
				f.dropped++
			}
		}
	}
}

// Dropped returns the number of events dropped due to slow subscribers.
func (f *eventFeed) Dropped() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}
