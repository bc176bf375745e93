package bench

import (
	"sort"
	"strconv"
	"time"
)

// The sandbox is a small VM on a shared host whose speed changes under
// the benchmark: for half a minute or several, everything — this
// package's workloads and any other code alike — runs 15 to 60 % slower,
// then fast again. Runs are shorter than those phases, so no statistic of
// a run's own samples can tell a slow host from slow code. What can is a
// fixed piece of work done in the same process at the same moments: the
// reference kernel below, run between the workload's operations. Its
// median duration over a run, as a multiple of hostNominal, is the run's
// host slowdown, and the run's times are reported at reference speed:
// durations divided by it, rates multiplied (README.md, "Machine speed").

// hostNominal is about the fastest the kernel's median read over a pass
// on the sizing machine (454 µs). It only fixes the unit: a slowdown of 1
// is that machine in its fast state.
const hostNominal = 450 * time.Microsecond

const (
	// hostInterval is how often a worker runs the kernel: one run to pull
	// its data back into the cache and one timed run for every 100 ms
	// since the last sample (at most maxTickSamples, when an operation
	// took longer) — about 1 % of the worker's time.
	hostInterval   = 100 * time.Millisecond
	maxTickSamples = 4
	// minHostSamples is the fewest kernel timings a slowdown is the
	// median of; a pass too short to collect them is topped up afterwards.
	minHostSamples = 15
)

const hostKeys = 4096

// hostClock runs the reference kernel on behalf of one worker goroutine
// and keeps its timings. The kernel's data lives here, so two workers
// share nothing.
type hostClock struct {
	keys [hostKeys]string
	sums map[string]int32
	vals []int
	last time.Time
	durs []time.Duration
}

func newHostClock() *hostClock {
	c := &hostClock{sums: make(map[string]int32, hostKeys), vals: make([]int, 0, hostKeys), last: time.Now()}
	for i := range c.keys {
		c.keys[i] = "patient-" + strconv.Itoa(i*7919%100003) + "-name"
	}
	c.kernel() // sizes the map, so that no later run allocates
	return c
}

// kernel is the reference work: the same 12 000 string-keyed map updates
// and one sort of the 4 096 sums every time, on 300 kB of its own data,
// without allocating — what the engine's group-bys and dictionaries do,
// in none of the engine's code. It returns a checksum of the result.
func (c *hostClock) kernel() int {
	clear(c.sums)
	for i := 0; i < 12000; i++ {
		c.sums[c.keys[(i*31)&(hostKeys-1)]] += int32(i)
	}
	c.vals = c.vals[:0]
	for _, v := range c.sums {
		c.vals = append(c.vals, int(v))
	}
	sort.Ints(c.vals)
	return c.vals[0] + c.vals[len(c.vals)/2] + c.vals[len(c.vals)-1]
}

// sample times the kernel n times after one untimed run.
func (c *hostClock) sample(n int) {
	c.kernel()
	for i := 0; i < n; i++ {
		start := time.Now()
		c.kernel()
		c.durs = append(c.durs, time.Since(start))
	}
	c.last = time.Now()
}

// tick is called by a worker between two operations; it samples the
// kernel once for every hostInterval that has passed since the last
// sample. A nil clock does nothing.
func (c *hostClock) tick() {
	if c == nil {
		return
	}
	if n := int(time.Since(c.last) / hostInterval); n > 0 {
		c.sample(min(n, maxTickSamples))
	}
}

// hostSlowdown is the median kernel timing of the clocks as a multiple
// of hostNominal. With fewer than minHostSamples timings it takes the
// missing ones now.
func hostSlowdown(clocks ...*hostClock) float64 {
	var durs []time.Duration
	for _, c := range clocks {
		if c != nil {
			durs = append(durs, c.durs...)
		}
	}
	if missing := minHostSamples - len(durs); missing > 0 {
		c := newHostClock()
		c.sample(missing)
		durs = append(durs, c.durs...)
	}
	return float64(p50(durs)) / float64(hostNominal)
}

// hostSamples is how many kernel timings the clocks hold.
func hostSamples(clocks []*hostClock) int {
	n := 0
	for _, c := range clocks {
		if c != nil {
			n += len(c.durs)
		}
	}
	return n
}

// atReferenceSpeed converts a measured time or rate to what it would
// have read on a host running at reference speed: durations shrink by
// the slowdown, rates grow by it, everything else stays.
func atReferenceSpeed(m Measured, slowdown float64) Measured {
	switch m.Unit {
	case "s", "ms", "us":
		m.Value /= slowdown
	case "1/s":
		m.Value *= slowdown
	}
	return m
}
