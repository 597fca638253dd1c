package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(7)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(42)
	h.Start().Stop()
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram recorded something")
	}
	var tr *Tracer
	tr.Begin("x", StageSubmit)
	tr.Mark("x", StageMerge)
	tr.Finish("x", StageCommit)
	if tr.Recent() != nil {
		t.Fatal("nil tracer recorded something")
	}
	var r *Registry
	if r.Counter("a", "") != nil || r.Gauge("b", "") != nil || r.Histogram("c", "") != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	if r.Len() != 0 {
		t.Fatal("nil registry has entries")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("requests_total", "requests", L("route", "GET"))
	b := r.Counter("requests_total", "requests", L("route", "GET"))
	if a != b {
		t.Fatal("same series registered twice returned distinct counters")
	}
	c := r.Counter("requests_total", "requests", L("route", "PUT"))
	if a == c {
		t.Fatal("distinct label sets shared a counter")
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a series under another kind did not panic")
		}
	}()
	r.Gauge("requests_total", "requests", L("route", "GET"))
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	g := r.Gauge("g", "")
	g.Set(5)
	g.Set(-3)
	if g.Value() != -3 {
		t.Fatalf("gauge = %d, want -3", g.Value())
	}
}

// TestConcurrentRecording hammers every instrument kind from many
// goroutines; run under -race this is the data-race proof, and the
// final counts prove no increment was lost.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "")
	g := r.Gauge("depth", "")
	h := r.Histogram("lat_ns", "")
	tr := NewTracer(64)
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			for i := range perWorker {
				c.Inc()
				g.Set(int64(i))
				h.Observe(int64(i))
				if i%100 == 0 {
					id := string(rune('a'+w)) + "-" + string(rune('0'+i/100%10))
					tr.Begin(id, StageSubmit)
					tr.Mark(id, StageMerge)
					tr.Finish(id, StageCommit)
				}
				// Concurrent readers must see weakly consistent, never
				// torn, snapshots.
				_ = h.Quantile(0.99)
				_ = c.Value()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter lost increments: %d != %d", got, workers*perWorker)
	}
	if got := g.Value(); got != perWorker-1 {
		t.Fatalf("gauge = %d, want every worker's last Set %d", got, perWorker-1)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram lost observations: %d != %d", got, workers*perWorker)
	}
}

func TestTracerLifecycle(t *testing.T) {
	tr := NewTracer(2)
	tr.Begin("tx1", StageSubmit)
	tr.Mark("tx1", StageAdmit)
	tr.Finish("tx1", StageCommit)
	tr.Begin("tx2", StageSubmit)
	tr.Finish("tx2", StageCommit)
	tr.Begin("tx3", StageSubmit)
	tr.Finish("tx3", StageCommit)

	recent := tr.Recent()
	if len(recent) != 2 {
		t.Fatalf("ring kept %d traces, want 2", len(recent))
	}
	if recent[0].ID != "tx3" || recent[1].ID != "tx2" {
		t.Fatalf("recent order = %s,%s; want tx3,tx2", recent[0].ID, recent[1].ID)
	}
	if got := recent[1].Spans; len(got) != 2 || got[0].Stage != StageSubmit || got[1].Stage != StageCommit {
		t.Fatalf("tx2 spans = %+v", got)
	}
	if len(tr.active) != 0 {
		t.Fatalf("active = %d after all finished", len(tr.active))
	}
	// Marks for unknown (never begun / already finished) ids are no-ops.
	tr.Mark("tx1", StageReceipt)
	tr.Finish("ghost", StageCommit)
	if len(tr.Recent()) != 2 {
		t.Fatal("no-op marks changed the ring")
	}
}

func TestTracerInFlightCap(t *testing.T) {
	tr := NewTracer(1) // activeCap = 4
	for i := range 10 {
		tr.Begin(string(rune('a'+i)), StageSubmit)
	}
	if len(tr.active) != 4 {
		t.Fatalf("active = %d, want cap 4", len(tr.active))
	}
	// The six past the cap left nothing behind.
	tr.Finish("e", StageCommit)
	if len(tr.Recent()) != 0 {
		t.Fatal("a trace dropped at the cap was finished")
	}
	// Re-beginning an open id does not duplicate it.
	tr.Begin("a", StageSubmit)
	if len(tr.active) != 4 {
		t.Fatal("re-Begin of an open id changed accounting")
	}
}
