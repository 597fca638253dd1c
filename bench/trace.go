package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cryptoutil"
)

// span is one timed call into a layer, recorded by the benchmark from outside
// the layer. Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	// sender, when set, is the chain account whose transaction this span
	// waits for; linkSeals uses it to hang chain.seal spans under the span.
	// relay marks a span that waits for transactions of an account the
	// benchmark cannot name (the pull-in oracle's relay key).
	sender cryptoutil.Address
	relay  bool
}

// tracer hands out span ids and owns the recorders. A nil *tracer (the
// untraced run) yields nil recorders, whose begin/end cost one nil check.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu        sync.Mutex
	recorders []*recorder
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// recorder collects the spans of one goroutine without locking.
type recorder struct {
	t     *tracer
	spans []span
}

// recorder registers a new per-goroutine recorder.
func (t *tracer) recorder() *recorder {
	if t == nil {
		return nil
	}
	r := &recorder{t: t, spans: make([]span, 0, 1<<14)}
	t.mu.Lock()
	t.recorders = append(t.recorders, r)
	t.mu.Unlock()
	return r
}

// spanRef addresses an open span; the zero value (untraced) is inert.
type spanRef struct {
	r   *recorder
	idx int
	id  uint64
}

func (r *recorder) begin(op int64, parent spanRef, name string) spanRef {
	if r == nil {
		return spanRef{}
	}
	id := r.t.nextID.Add(1)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent.id, Op: op, Name: name,
		Start: int64(time.Since(r.t.epoch)),
	})
	return spanRef{r: r, idx: len(r.spans) - 1, id: id}
}

// beginTx is begin for a span that waits for a transaction from sender.
func (r *recorder) beginTx(op int64, parent spanRef, name string, sender cryptoutil.Address) spanRef {
	ref := r.begin(op, parent, name)
	if r != nil {
		r.spans[ref.idx].sender = sender
	}
	return ref
}

// beginRelay is begin for a span that waits for the oracle relay's transactions.
func (r *recorder) beginRelay(op int64, parent spanRef, name string) spanRef {
	ref := r.begin(op, parent, name)
	if r != nil {
		r.spans[ref.idx].relay = true
	}
	return ref
}

func (s spanRef) end() {
	if s.r == nil {
		return
	}
	s.r.spans[s.idx].End = int64(time.Since(s.r.t.epoch))
}

// lockedRecorder is a recorder shared by goroutines the benchmark does not
// own (the pull-in oracle's fan-out calling tee.App.Evidence).
type lockedRecorder struct {
	mu sync.Mutex
	r  *recorder
}

// record appends a finished span.
func (l *lockedRecorder) record(op int64, parent uint64, name string, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.r.spans = append(l.r.spans, span{
		ID: l.r.t.nextID.Add(1), Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(l.r.t.epoch)), End: int64(end.Sub(l.r.t.epoch)),
	})
}

// sealRecord is one SealBlock call as the sealer saw it.
type sealRecord struct {
	start, end int64
	senders    []cryptoutil.Address
}

// all returns every recorded span, ordered by start time.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, r := range t.recorders {
		out = append(out, r.spans...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// linkSeals hangs a chain.seal child under the span that was waiting for each
// sealed transaction: the innermost span of the transaction's sender that was
// open when the seal began, or, when no span names the sender (the pull-in
// oracle's relay account), the innermost open relay span. A seal that carried
// transactions of several ops yields one child per op, clipped to its parent.
// It returns the spans with the children added and the number of sealed
// transactions it could not place.
func linkSeals(spans []span, seals []sealRecord, t *tracer) ([]span, int) {
	bySender := make(map[cryptoutil.Address][]int)
	var relays []int
	for i, s := range spans {
		if !s.sender.IsZero() {
			bySender[s.sender] = append(bySender[s.sender], i)
		}
		if s.relay {
			relays = append(relays, i)
		}
	}
	// innermost returns the latest-started span among idxs open at instant at.
	innermost := func(idxs []int, at int64) int {
		hi := sort.Search(len(idxs), func(k int) bool { return spans[idxs[k]].Start > at })
		for k := hi - 1; k >= 0 && k >= hi-64; k-- { // nesting is a few levels deep
			if s := spans[idxs[k]]; s.Start <= at && s.End >= at {
				return idxs[k]
			}
		}
		return -1
	}
	unplaced := 0
	for _, seal := range seals {
		placed := make(map[uint64]bool) // parent span id → child already added
		for _, from := range seal.senders {
			idxs, known := bySender[from]
			if !known {
				idxs = relays
			}
			idx := innermost(idxs, seal.start)
			if idx < 0 {
				unplaced++
				continue
			}
			parent := spans[idx]
			if placed[parent.ID] {
				continue
			}
			placed[parent.ID] = true
			spans = append(spans, span{
				ID: t.nextID.Add(1), Parent: parent.ID, Op: parent.Op, Name: "chain.seal",
				Start: max(seal.start, parent.Start), End: min(seal.end, parent.End),
			})
		}
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return spans, unplaced
}

// selfTimes returns, per span id, the span's duration minus the part of it
// that its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// writeTrace stores the spans of one workload run as JSON.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	raw, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
