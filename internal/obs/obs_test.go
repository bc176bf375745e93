package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	m := New()
	c := m.Counter("x")
	c.Inc()
	c.Add(4)
	if got := m.Counter("x").Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := m.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := m.Gauge("depth").Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var m *Metrics
	m.Counter("x").Inc()
	m.Gauge("g").Set(3)
	m.Histogram("h").Observe(time.Millisecond)
	ctx, span := m.StartSpan(context.Background(), "op")
	span.Set("k", "v")
	span.End()
	if span.ID() != "" {
		t.Error("nil span should have empty id")
	}
	if CorrelationID(ctx) != "" {
		t.Error("nil registry should not attach a correlation id")
	}
	s := m.Snapshot()
	if s.Counters == nil || s.Gauges == nil || s.Histograms == nil {
		t.Error("nil registry snapshot must carry non-nil maps")
	}
	if m.Spans() != nil {
		t.Error("nil registry should report no spans")
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram(time.Millisecond, 10*time.Millisecond, 100*time.Millisecond)
	// Boundary values land in the bucket they bound (le semantics).
	h.Observe(time.Millisecond)       // bucket 0
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(2 * time.Millisecond)   // bucket 1
	h.Observe(10 * time.Millisecond)  // bucket 1
	h.Observe(99 * time.Millisecond)  // bucket 2
	h.Observe(time.Second)            // overflow
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	want := []uint64{2, 2, 1}
	for i, w := range want {
		if s.Buckets[i].Count != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Buckets[i].Count, w)
		}
	}
	if s.Overflow != 1 {
		t.Errorf("overflow = %d, want 1", s.Overflow)
	}
	wantSum := time.Millisecond + 500*time.Microsecond + 2*time.Millisecond +
		10*time.Millisecond + 99*time.Millisecond + time.Second
	if s.Sum != wantSum {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
	if mean := s.Mean(); mean != wantSum/6 {
		t.Errorf("mean = %v, want %v", mean, wantSum/6)
	}
}

func TestHistogramBoundsAreSorted(t *testing.T) {
	h := NewHistogram(100*time.Millisecond, time.Millisecond, 10*time.Millisecond)
	h.Observe(2 * time.Millisecond)
	s := h.Snapshot()
	if s.Buckets[0].UpperBound != time.Millisecond {
		t.Errorf("bounds not sorted: first = %v", s.Buckets[0].UpperBound)
	}
	if s.Buckets[1].Count != 1 {
		t.Errorf("2ms observation in wrong bucket: %+v", s.Buckets)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(10*time.Millisecond, 20*time.Millisecond, 40*time.Millisecond)
	for i := 0; i < 100; i++ {
		h.Observe(5 * time.Millisecond) // all in bucket 0
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q <= 0 || q > 10*time.Millisecond {
		t.Errorf("p50 = %v, want within (0, 10ms]", q)
	}
	// Everything in overflow resolves to the largest bound.
	h2 := NewHistogram(time.Millisecond)
	h2.Observe(time.Second)
	if q := h2.Snapshot().Quantile(0.99); q != time.Millisecond {
		t.Errorf("overflow quantile = %v, want 1ms", q)
	}
	if (HistogramSnapshot{}).Quantile(0.5) != 0 {
		t.Error("empty snapshot quantile should be 0")
	}
}

// TestSnapshotRaceSafety hammers one registry from many goroutines while
// snapshotting; run under -race this is the snapshot-safety regression.
func TestSnapshotRaceSafety(t *testing.T) {
	m := New()
	const workers, iters = 4, 500
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Counter("renders").Inc()
				m.Gauge("depth").Set(int64(i))
				m.Histogram("latency").Observe(time.Duration(i%1000) * time.Microsecond)
				_, span := m.StartSpan(context.Background(), "op")
				span.Set("worker", "w")
				span.End()
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	for {
		s := m.Snapshot()
		h := s.Histograms["latency"]
		var bucketed uint64
		for _, b := range h.Buckets {
			bucketed += b.Count
		}
		bucketed += h.Overflow
		if bucketed > h.Count+uint64(workers) {
			t.Fatalf("snapshot incoherent: %d bucketed vs %d counted", bucketed, h.Count)
		}
		m.Spans()
		select {
		case <-done:
			if got := m.Snapshot().Counters["renders"]; got != workers*iters {
				t.Errorf("counter = %d, want %d", got, workers*iters)
			}
			return
		default:
		}
	}
}

func TestSpanCorrelation(t *testing.T) {
	m := New()
	ctx, parent := m.StartSpan(context.Background(), "render")
	if parent.ID() == "" {
		t.Fatal("span has no correlation id")
	}
	if CorrelationID(ctx) != parent.ID() {
		t.Error("context does not carry the span's correlation id")
	}
	// A child span started under the same context reuses the id.
	_, child := m.StartSpan(ctx, "enforce")
	if child.ID() != parent.ID() {
		t.Errorf("child id %q != parent id %q", child.ID(), parent.ID())
	}
	parent.Set("decision", "allow")
	parent.Set("decision", "block") // last write wins
	parent.End()
	parent.End() // idempotent
	child.End()
	spans := m.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "render" || spans[0].Attr("decision") != "block" {
		t.Errorf("unexpected first span: %+v", spans[0])
	}
	if h := m.Snapshot().Histograms["span.render"]; h.Count != 1 {
		t.Errorf("span.render histogram count = %d, want 1", h.Count)
	}
	// An externally supplied correlation id is honoured.
	ext := WithCorrelationID(context.Background(), "req-42")
	_, s := m.StartSpan(ext, "render")
	if s.ID() != "req-42" {
		t.Errorf("external id not reused: %q", s.ID())
	}
}

func TestSpanRingBounded(t *testing.T) {
	m := New()
	for i := 0; i < spanRingSize+10; i++ {
		_, s := m.StartSpan(context.Background(), "op")
		s.End()
	}
	spans := m.Spans()
	if len(spans) != spanRingSize {
		t.Fatalf("ring returned %d spans, want %d", len(spans), spanRingSize)
	}
	// Oldest retained span is the 11th ever started.
	if want := fmt.Sprintf("c%08d", 11); spans[0].CorrelationID != want {
		t.Fatalf("oldest span id %q, want %q", spans[0].CorrelationID, want)
	}
}

func TestSnapshotJSON(t *testing.T) {
	m := New()
	m.Counter("render.total").Add(3)
	m.Gauge("audit.depth").Set(9)
	m.Histogram("span.render").Observe(2 * time.Millisecond)

	var sb strings.Builder
	if err := m.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if round.Counters["render.total"] != 3 || round.Gauges["audit.depth"] != 9 {
		t.Errorf("round-tripped snapshot wrong: %+v", round)
	}
}

func TestMetricsHandler(t *testing.T) {
	m := New()
	m.Counter("render.total").Inc()
	mux := DebugMux(func() Snapshot {
		s := m.Snapshot()
		s.Gauges["cache.entries"] = 5 // merged engine gauge
		return s
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["render.total"] != 1 || s.Gauges["cache.entries"] != 5 {
		t.Errorf("unexpected /metrics body: %+v", s)
	}

	pr, err := srv.Client().Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != 200 {
		t.Errorf("/debug/pprof/cmdline status %d", pr.StatusCode)
	}
}
