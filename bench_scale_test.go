// Memory-ceiling test for the out-of-core storage layer: stream rows
// through a SegmentWriter and assert the scan working set stays under a
// budget far below the table's in-memory footprint.
//
// Scales: 1M rows with PLABI_SCALE=1 (the CI scale-ceiling lane), 10M
// with PLABI_SCALE_10M=1 (opt-in); skipped otherwise.
package plabi

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

	"plabi/internal/obs"
	"plabi/internal/relation"
)

// scaleRows picks the row count of the memory-ceiling test.
func scaleRows() int {
	if os.Getenv("PLABI_SCALE_10M") == "1" {
		return 10_000_000
	}
	return 1_000_000
}

// heapWatcher samples runtime.ReadMemStats in the background and records
// the peak HeapAlloc seen. Sampling every 10ms keeps the stop-the-world
// cost low while still catching the steady-state working set; short
// transient spikes between samples are invisible, so peaks are a floor,
// not an exact maximum.
type heapWatcher struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapWatcher {
	w := &heapWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		var ms runtime.MemStats
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > w.peak {
				w.peak = ms.HeapAlloc
			}
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// Peak stops the watcher and returns the highest HeapAlloc sampled.
func (w *heapWatcher) Peak() uint64 {
	close(w.stop)
	<-w.done
	return w.peak
}

// scaleSchema is the synthetic wide-ish fact table of the memory-ceiling
// test: a monotone int key plus string and float payload.
func scaleSchema() *relation.Schema {
	return relation.NewSchema(
		relation.Col("id", relation.TInt),
		relation.Col("patient", relation.TString),
		relation.Col("drug", relation.TString),
		relation.Col("cost", relation.TFloat),
	)
}

func scaleRow(i int) relation.Row {
	return relation.Row{
		relation.Int(int64(i)),
		relation.Str(fmt.Sprintf("patient-%07d", i%100000)),
		relation.Str(fmt.Sprintf("drug-%03d", i%500)),
		relation.Float(float64(i%997) * 1.25),
	}
}

// streamScaleTable streams n synthetic rows into a fresh segment writer
// without ever materializing the table in memory; only one partition is
// buffered at a time.
func streamScaleTable(tb testing.TB, s *relation.SegmentStore, n int) *relation.Table {
	tb.Helper()
	w, err := s.NewWriter("facts", scaleSchema())
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Append(scaleRow(i)); err != nil {
			tb.Fatal(err)
		}
	}
	t, err := w.Close()
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// TestScaleMemoryCeiling streams a 1M-row (10M with PLABI_SCALE_10M=1)
// table through a SegmentWriter and scans it back — a selective pruned
// filter, a full unpruned pass that reads and verifies every partition but
// decodes nothing, and an aggregate that decodes two of the four columns —
// while sampling peak HeapAlloc. The
// peak must stay under a budget of half the table's estimated in-memory
// footprint, with the Go runtime's soft memory limit pinned to the
// budget for the duration: out-of-core means the working set is bounded
// by partitions in flight, not by table size. Skipped unless
// PLABI_SCALE=1 (the CI scale-ceiling lane) so the ordinary test lane
// stays fast.
func TestScaleMemoryCeiling(t *testing.T) {
	if os.Getenv("PLABI_SCALE") != "1" && os.Getenv("PLABI_SCALE_10M") != "1" {
		t.Skip("set PLABI_SCALE=1 to run the memory-ceiling check")
	}
	n := scaleRows()
	// Estimated fully-materialized footprint: slice header + Value array
	// per row, plus the string payload bytes. Deliberately conservative
	// (ignores allocator overhead and lineage), so the budget it halves is
	// an under- not over-estimate of what the in-memory path would need.
	valSize := int(unsafe.Sizeof(relation.Value{}))
	cols := scaleSchema().Len()
	inMem := uint64(n) * uint64(24+cols*valSize+len("patient-0000000")+len("drug-000"))
	budget := inMem / 2
	prevLimit := debug.SetMemoryLimit(int64(budget))
	defer debug.SetMemoryLimit(prevLimit)

	s := relation.NewSegmentStore(t.TempDir())
	s.SetPartitionRows(1 << 14)
	s.SetScanWorkers(4)
	m := obs.New()
	s.SetMetrics(m)
	runtime.GC()
	w := watchHeap()

	tab := streamScaleTable(t, s, n)
	pred := relation.Bin(relation.OpLt, relation.ColRefExpr("id"), relation.Lit(relation.Int(int64(n/10))))
	out, err := relation.Select(tab, pred)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.NumRows(); got != n/10 {
		t.Fatalf("pruned select: %d rows, want %d", got, n/10)
	}
	// Full unpruned pass: every partition read, verified, discarded.
	sc := relation.NewScanner(tab, nil)
	scanned := 0
	for {
		batch, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			break
		}
		scanned += batch.Len()
	}
	sc.Close()
	if scanned != n {
		t.Fatalf("full scan saw %d rows, want %d", scanned, n)
	}
	// Render-shaped pass: a full aggregation over every row, streamed
	// partition-wise — the report path's access pattern without the
	// engine around it.
	agg, err := relation.GroupBy(tab, []string{"drug"}, []relation.AggSpec{
		{Kind: relation.AggCount}, {Kind: relation.AggSum, Col: "cost"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg.NumRows() != 500 {
		t.Fatalf("aggregate has %d groups, want 500", agg.NumRows())
	}

	peak := w.Peak()
	t.Logf("n=%d estimated in-memory footprint %.1f MB, budget %.1f MB, peak heap %.1f MB; %d partitions read, %d column blocks decoded, %d verified only",
		n, float64(inMem)/1e6, float64(budget)/1e6, float64(peak)/1e6, m.Counter("segment.read.partitions").Value(),
		m.Counter("segment.read.columns").Value(), m.Counter("segment.read.columns_skipped").Value())
	if peak >= budget {
		t.Fatalf("peak heap %d bytes exceeds out-of-core budget %d (in-memory estimate %d)", peak, budget, inMem)
	}
}
