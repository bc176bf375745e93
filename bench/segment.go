package bench

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"plabi/internal/core"
	"plabi/internal/relation"
)

// segmentWorkload is the out-of-core path: the warehouse is spilled to
// columnar segment files and every render scans and decodes partitions
// where the other workloads read in-memory batches. The files sit in
// the OS page cache; latencies are the sandbox's, not a device's.
type segmentWorkload struct {
	b       *built
	rows    int
	seed    int64
	renders int
	want    uint64 // digest of the warm-up render
	ch      *chain // the traced pass's chain
}

const (
	segmentPrescriptions    = 100000
	segmentSmokeRows        = 20000
	segmentPartitionRows    = 8192
	segmentRendersPerSecond = 7.5
	segmentSmokeRenders     = 5
)

func (w *segmentWorkload) setup(e *env) error {
	w.rows = e.scale(segmentPrescriptions, segmentSmokeRows)
	w.seed = dataSeed(e.opts.Seed, "segment")
	b, err := buildEngine(w.seed, w.rows, "", func(ce *core.Engine) {
		ce.SetSegmentStore(filepath.Join(e.dir, "segments")).SetPartitionRows(segmentPartitionRows)
		ce.SetSpillThreshold(1)
	})
	if err != nil {
		return err
	}
	w.b = b
	w.renders = e.opCount(segmentRendersPerSecond, segmentSmokeRenders)
	enf, err := b.eng.Render(primary.report, primary.consumer)
	if err != nil {
		return err
	}
	w.want = enforcedDigest(enf, true)
	return nil
}

func (w *segmentWorkload) size() int { return w.renders }

// watchHeap samples HeapAlloc every 10 ms until stop is closed and
// sends the highest value seen. Peaks between samples are invisible, so
// the result is a floor.
func watchHeap(stop <-chan struct{}, peak chan<- uint64) {
	var ms runtime.MemStats
	var max uint64
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > max {
			max = ms.HeapAlloc
		}
		select {
		case <-stop:
			peak <- max
			return
		case <-t.C:
		}
	}
}

func (w *segmentWorkload) run(e *env, rec *Recorder, n int) (*runStats, error) {
	eng := w.b.eng
	st := &runStats{detail: map[string]Measured{}, work: make([][]opRecord, 1)}
	ch := newChain(rec, eng, nil, primary)
	// The heap watcher stops the world every 10 ms, so it runs only on
	// the traced run's untraced pass, never on a gated measurement.
	var stop chan struct{}
	var peak chan uint64
	if e.opts.Trace && rec == nil {
		stop, peak = make(chan struct{}), make(chan uint64, 1)
		go watchHeap(stop, peak)
	}
	hc := newHostClock()
	st.host = append(st.host, hc)
	for i := 0; i < n; i++ {
		hc.tick()
		st.attempted++
		start := time.Now()
		enf, err := eng.Render(primary.report, primary.consumer)
		lat := time.Since(start)
		st.primary = append(st.primary, lat)
		st.work[0] = append(st.work[0], opRecord{lat: lat, render: true, entry: true})
		if err != nil {
			st.fail("render %d: %v", i, err)
		} else if enforcedDigest(enf, true) != w.want {
			st.fail("render %d differs from the warm-up render", i)
		}
		if rec != nil {
			ch.render(primary, i, -1)
		}
	}
	if stop != nil {
		close(stop)
		st.peakHeap = <-peak
	}
	if n := ch.failures(); n > 0 {
		st.fail("%d replayed calls returned an error", n)
	}
	w.ch = ch
	return st, nil
}

// verify builds the in-memory twin — same seed, no segment store — and
// requires the spilled warehouse table and the flagship render to equal
// the twin's.
func (w *segmentWorkload) verify(e *env, st *runStats) error {
	twin, err := buildEngine(w.seed, w.rows, "", nil)
	if err != nil {
		return err
	}
	var rows [2]int
	var sums [2]uint64
	for i, eng := range []*core.Engine{w.b.eng, twin.eng} {
		t, ok := eng.Catalog.Table("rx_wide")
		if !ok {
			return fmt.Errorf("rx_wide missing")
		}
		if rows[i], sums[i], err = tableChecksum(t); err != nil {
			return err
		}
	}
	if rows[0] != rows[1] || sums[0] != sums[1] {
		st.fail("segment-backed rx_wide (%d rows, %x) differs from the in-memory twin's (%d rows, %x)", rows[0], sums[0], rows[1], sums[1])
	}
	enf, err := twin.eng.Render(primary.report, primary.consumer)
	if err != nil {
		return err
	}
	if enforcedDigest(enf, true) != w.want {
		st.fail("segment-backed render differs from the in-memory twin's")
	}
	return nil
}

func (w *segmentWorkload) layers(e *env, rec *Recorder, out map[string]float64) error {
	if err := sharedLayers(w.b, e.dir, e.scale(3, 2), rec, w.ch, out); err != nil {
		return err
	}
	eng := w.b.eng
	t, ok := eng.Catalog.Table("rx_wide")
	if !ok {
		return fmt.Errorf("rx_wide missing")
	}
	var scanErr error
	out["relation.segment.scan_ms"] = ms(timeN(e.scale(3, 2), func() {
		sc := relation.NewScanner(t, nil)
		defer sc.Close()
		for {
			b, err := sc.Next()
			if err != nil {
				scanErr = err
			}
			if b == nil {
				return
			}
		}
	}))
	if scanErr != nil {
		return scanErr
	}
	d := counterDelta(eng, func() {
		if _, err := eng.Render(primary.report, primary.consumer); err != nil {
			scanErr = err
		}
	}, "segment.read.partitions", "segment.read.pruned", "segment.read.bytes")
	out["relation.segment.partitions_read"], out["relation.segment.partitions_pruned"], out["relation.segment.bytes_read"] = d[0], d[1], d[2]
	snap := eng.MetricsSnapshot().Counters
	if rows := snap["segment.write.rows"]; rows > 0 {
		out["relation.segment.bytes_per_row"] = float64(snap["segment.write.bytes"]) / float64(rows)
	}
	return scanErr
}

func (w *segmentWorkload) close() {}
