package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets spans 50µs to 5s in roughly 1-2.5-5 decades —
// wide enough for a cached render hit and a full warehouse ETL run on
// one scale.
var DefaultLatencyBuckets = []time.Duration{
	50 * time.Microsecond, 100 * time.Microsecond, 250 * time.Microsecond,
	500 * time.Microsecond, 1 * time.Millisecond, 2500 * time.Microsecond,
	5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond,
	50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
	500 * time.Millisecond, 1 * time.Second, 2500 * time.Millisecond,
	5 * time.Second,
}

// Histogram is a fixed-bucket latency histogram. Observations at most
// bounds[i] land in bucket i; larger ones land in the overflow bucket.
// All operations are lock-free; the nil histogram is a no-op.
type Histogram struct {
	bounds []time.Duration
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// NewHistogram builds a histogram over the given bucket upper bounds
// (sorted ascending; empty selects DefaultLatencyBuckets).
func NewHistogram(bounds ...time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	cp := append([]time.Duration(nil), bounds...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return &Histogram{bounds: cp, counts: make([]atomic.Uint64, len(cp)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Bucket is one histogram bucket in a snapshot: the count of
// observations in (previous bound, UpperBound].
type Bucket struct {
	UpperBound time.Duration `json:"le_ns"`
	Count      uint64        `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram. Bucket
// counts are per-bucket (not cumulative); Overflow counts observations
// above the largest bound.
type HistogramSnapshot struct {
	Count    uint64        `json:"count"`
	Sum      time.Duration `json:"sum_ns"`
	Buckets  []Bucket      `json:"buckets,omitempty"`
	Overflow uint64        `json:"overflow,omitempty"`
}

// Snapshot copies the current counts. Concurrent Observe calls may land
// between bucket reads; the snapshot is still internally plausible:
// Observe bumps its bucket before the total and Snapshot reads the total
// after the buckets, so the buckets never sum to more than Count plus
// the observations in flight at that read.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Buckets:  make([]Bucket, len(h.bounds)),
		Overflow: h.counts[len(h.bounds)].Load(),
	}
	for i, b := range h.bounds {
		s.Buckets[i] = Bucket{UpperBound: b, Count: h.counts[i].Load()}
	}
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	return s
}

// Mean returns the average observed duration (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation within the containing bucket. Observations in the
// overflow bucket resolve to the largest bound.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(s.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	lower := time.Duration(0)
	for _, b := range s.Buckets {
		if cum+b.Count >= target {
			frac := float64(target-cum) / float64(b.Count)
			return lower + time.Duration(frac*float64(b.UpperBound-lower))
		}
		cum += b.Count
		lower = b.UpperBound
	}
	return s.Buckets[len(s.Buckets)-1].UpperBound
}
