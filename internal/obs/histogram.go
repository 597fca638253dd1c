package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Log-bucketed histogram geometry (HdrHistogram-style): values below
// 2^histSubBits are counted exactly; above that, every power-of-two
// octave is split into histSubCount sub-buckets, bounding the relative
// quantile error at 1/histSubCount (12.5%). Values at or above
// 2^histMaxExp — about 18 minutes when recording nanoseconds — land in
// a single overflow bucket.
const (
	histSubBits  = 3
	histSubCount = 1 << histSubBits
	histMaxExp   = 40
	// histBuckets: exact small-value buckets plus histSubCount per
	// octave in [histSubBits, histMaxExp), plus the overflow bucket.
	histBuckets = histSubCount*(histMaxExp-histSubBits+1) + 1
	// HistogramMax is the largest trackable value; Quantile reports it
	// for ranks that land in the overflow bucket.
	HistogramMax = uint64(1) << histMaxExp
)

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	k := bits.Len64(v) - 1 // v ∈ [2^k, 2^(k+1))
	if k >= histMaxExp {
		return histBuckets - 1
	}
	sub := int((v >> uint(k-histSubBits)) & (histSubCount - 1))
	return histSubCount*(k-histSubBits+1) + sub
}

// bucketMax returns the largest value the bucket holds (inclusive).
func bucketMax(i int) uint64 {
	if i < histSubCount {
		return uint64(i)
	}
	if i >= histBuckets-1 {
		return HistogramMax
	}
	k := i/histSubCount + histSubBits - 1
	sub := uint64(i % histSubCount)
	return (histSubCount+sub+1)<<uint(k-histSubBits) - 1
}

// Histogram is a fixed-footprint log-bucketed histogram intended for
// latency in nanoseconds (any non-negative int64 works). Recording is
// three uncontended atomic adds; no allocation, no lock. The zero value
// is ready to use; a nil *Histogram is a no-op.
//
// Count, Sum, and the buckets are updated independently, so snapshots
// taken during concurrent recording are weakly consistent (off by the
// in-flight observations) — the right trade for monitoring data.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(uint64(v))
	h.buckets[bucketIndex(uint64(v))].Add(1)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all recorded values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (q in [0,1]) of the recorded
// values: the upper bound of the bucket holding the rank-⌈q·count⌉
// observation, so the estimate errs high by at most one sub-bucket
// width (12.5% relative). An empty histogram reports 0; ranks in the
// overflow bucket report HistogramMax.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return float64(bucketMax(i))
		}
	}
	// Writers raced the scan (count advanced past the bucket sums):
	// report the largest non-empty bucket seen.
	return float64(HistogramMax)
}

// Timer measures one interval against a histogram. Obtain with
// Histogram.Start; a Timer from a nil histogram never reads the clock.
type Timer struct {
	h     *Histogram
	start time.Time
}

// Start begins timing an interval. On a nil histogram this is free: no
// clock read happens at either end.
func (h *Histogram) Start() Timer {
	if h == nil {
		return Timer{}
	}
	return Timer{h: h, start: time.Now()}
}

// Stop records the elapsed nanoseconds. Safe on the zero Timer.
func (t Timer) Stop() {
	if t.h == nil {
		return
	}
	t.h.Observe(int64(time.Since(t.start)))
}
