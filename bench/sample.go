package bench

import (
	"fmt"
	"sort"
	"time"
)

// minTailSamples is how many samples must lie beyond a reported
// percentile: with fewer, one slow request moves the number.
const minTailSamples = 10

// Percentile returns the q-quantile (0 < q <= 1) of an ascending sample
// by the nearest-rank method: the smallest value with at least q of the
// sample at or below it. An empty sample yields 0.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// TailPercentile is Percentile for tail quantiles: it refuses to report
// a percentile with fewer than ten samples beyond it.
func TailPercentile(sorted []time.Duration, q float64) (time.Duration, error) {
	v := Percentile(sorted, q)
	beyond := len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	if beyond < minTailSamples {
		return 0, fmt.Errorf("bench: p%g of %d samples has only %d beyond it (need %d)",
			q*100, len(sorted), beyond, minTailSamples)
	}
	return v, nil
}

// sortedCopy returns an ascending copy of d.
func sortedCopy(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// p50 is the median (nearest rank) of an unsorted sample.
func p50(d []time.Duration) time.Duration { return Percentile(sortedCopy(d), 0.50) }

// Median returns the middle value of an unsorted float sample (the mean
// of the two middle values for an even count), 0 when empty.
func Median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeN runs fn n times and returns the median duration of one call.
func timeN(n int, fn func()) time.Duration {
	d := make([]time.Duration, n)
	for i := range d {
		start := time.Now()
		fn()
		d[i] = time.Since(start)
	}
	return p50(d)
}

// opRecord is one timed call of a schedule, kept per worker goroutine.
type opRecord struct {
	lat    time.Duration
	render bool // a render of the flagship report: counts towards render_p50_ms
	entry  bool // the call that completes a schedule entry: counts towards ops_per_s
}

// summarize reduces one worker's records to its throughput and its
// render latencies. The throughput is the median over the schedule's
// blocks — block entries each, all the same work — of entries ÷ time
// spent in the block's timed calls, so that a few seconds of a busy host
// slow some blocks and leave the number alone, and time the harness
// spends checking results between calls is not charged. A trailing
// partial block counts only when there is no full one.
func summarize(recs []opRecord, block int) (rate float64, renders []time.Duration) {
	if block < 1 {
		block = 1
	}
	var rates []float64
	var busy time.Duration
	entries := 0
	for _, r := range recs {
		busy += r.lat
		if r.render {
			renders = append(renders, r.lat)
		}
		if r.entry {
			entries++
		}
		if entries == block && busy > 0 {
			rates = append(rates, float64(entries)/busy.Seconds())
			busy, entries = 0, 0
		}
	}
	if len(rates) == 0 && busy > 0 {
		rates = append(rates, float64(entries)/busy.Seconds())
	}
	return Median(rates), renders
}
