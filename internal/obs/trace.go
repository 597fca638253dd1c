package obs

import (
	"sync"
	"time"
)

// Lifecycle stage names recorded by the chain layer (exported here so
// the instrumentation sites and the dashboards agree on spelling).
const (
	StageSubmit     = "submit"      // entered admission (Submit)
	StageAdmit      = "admit"       // accepted into the mempool
	StageMerge      = "merge"       // optimistic child merged conflict-free
	StageSerialTail = "serial-tail" // re-executed on the serial tail
	StageCommit     = "commit"      // block durably committed
	StageReceipt    = "receipt"     // receipt delivered to a waiter
	StageEvict      = "evict"       // evicted from a full mempool by a better-priced tx
	StageReplace    = "replace"     // superseded by a replace-by-fee bump
)

// Span is one recorded lifecycle stage: its name and the offset from
// the trace's first stage.
type Span struct {
	Stage string        `json:"stage"`
	At    time.Duration `json:"at_ns"`
}

// TxTrace is the recorded lifecycle of one transaction.
type TxTrace struct {
	ID    string    `json:"id"`
	Start time.Time `json:"start"`
	Spans []Span    `json:"spans"`
}

// Tracer records transaction lifecycles with bounded memory: at most
// activeCap in-flight traces (admissions beyond that are dropped) and a
// ring buffer of the last ringCap completed traces. A nil *Tracer is a
// no-op; callers on hot paths should skip even the ID rendering when the
// tracer is nil.
type Tracer struct {
	mu        sync.Mutex
	active    map[string]*TxTrace // guarded by mu
	ring      []*TxTrace          // guarded by mu; ring buffer of completed traces
	next      int                 // guarded by mu; next ring slot
	activeCap int
}

// defaultActiveFactor bounds in-flight traces at this multiple of the
// completed-ring capacity.
const defaultActiveFactor = 4

// NewTracer builds a tracer keeping the last ringCap completed traces
// (default 256 when ringCap <= 0).
func NewTracer(ringCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = 256
	}
	return &Tracer{
		active:    make(map[string]*TxTrace),
		ring:      make([]*TxTrace, ringCap),
		activeCap: ringCap * defaultActiveFactor,
	}
}

// Begin opens a trace for id with the given first stage. Re-beginning
// an open id is a no-op (the first admission wins); beginning past the
// in-flight cap drops the trace.
func (t *Tracer) Begin(id, stage string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, open := t.active[id]; open {
		return
	}
	if len(t.active) >= t.activeCap {
		return
	}
	t.active[id] = &TxTrace{ID: id, Start: now, Spans: []Span{{Stage: stage}}}
}

// Mark appends a stage to an open trace (no-op for unknown ids, e.g.
// when the Begin was dropped at the cap).
func (t *Tracer) Mark(id, stage string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.active[id]
	if !ok {
		return
	}
	tr.Spans = append(tr.Spans, Span{Stage: stage, At: now.Sub(tr.Start)})
}

// Finish appends the final stage and moves the trace into the
// completed ring.
func (t *Tracer) Finish(id, stage string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.active[id]
	if !ok {
		return
	}
	delete(t.active, id)
	tr.Spans = append(tr.Spans, Span{Stage: stage, At: now.Sub(tr.Start)})
	t.ring[t.next] = tr
	t.next = (t.next + 1) % len(t.ring)
}

// Recent returns the completed traces, newest first.
func (t *Tracer) Recent() []TxTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TxTrace, 0, len(t.ring))
	for i := range t.ring {
		slot := (t.next - 1 - i + 2*len(t.ring)) % len(t.ring)
		if t.ring[slot] == nil {
			break
		}
		tr := t.ring[slot]
		out = append(out, TxTrace{ID: tr.ID, Start: tr.Start, Spans: append([]Span(nil), tr.Spans...)})
	}
	return out
}
