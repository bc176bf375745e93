package plabi

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// lastSpan returns the most recent completed span with the given name.
func lastSpan(t *testing.T, e *Engine, name string) SpanRecord {
	t.Helper()
	spans := e.Spans()
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Name == name {
			return spans[i]
		}
	}
	t.Fatalf("no %q span recorded (have %d spans)", name, len(spans))
	return SpanRecord{}
}

// TestBlockedRenderObservability is the regression contract of the
// observability layer: a blocked render must increment the block
// counters, produce a "render" span carrying the deciding rule and PLA,
// and stamp the span's correlation id onto the matching audit events.
func TestBlockedRenderObservability(t *testing.T) {
	var sink strings.Builder
	e := quickEngine2(t, WithAuditSink(&sink))
	if err := e.AddPLAs(`pla "thresh" { owner "hospital"; level report; scope "rx-list";
		aggregate min 3 by patient; }`); err != nil {
		t.Fatal(err)
	}
	_, err := e.Render(context.Background(), "rx-list", Consumer{Name: "u", Role: "analyst"})
	if !errors.Is(err, ErrPLAViolation) {
		t.Fatalf("render was not blocked: %v", err)
	}

	s := e.MetricsSnapshot()
	if got := s.Counters["render.total"]; got != 1 {
		t.Errorf("render.total = %d, want 1", got)
	}
	if got := s.Counters["render.blocked"]; got != 1 {
		t.Errorf("render.blocked = %d, want 1", got)
	}
	if got := s.Counters["enforce.block.aggregation-threshold"]; got == 0 {
		t.Error("enforce.block.aggregation-threshold not incremented")
	}
	if got := s.Counters["enforce.static_blocks"]; got == 0 {
		t.Error("enforce.static_blocks not incremented")
	}

	span := lastSpan(t, e, "render")
	if span.CorrelationID == "" {
		t.Fatal("render span has no correlation id")
	}
	if got := span.Attr("decision"); got != "block" {
		t.Errorf("span decision = %q, want \"block\"", got)
	}
	if got := span.Attr("rule"); got != "aggregation-threshold" {
		t.Errorf("span rule = %q, want \"aggregation-threshold\"", got)
	}
	if got := span.Attr("pla"); !strings.Contains(got, "thresh") {
		t.Errorf("span pla = %q, want it to name \"thresh\"", got)
	}

	// The violation audit event carries the same correlation id and the
	// deciding PLA.
	var found bool
	for _, ev := range e.Audit().Violations() {
		if ev.Object != "rx-list" {
			continue
		}
		found = true
		if ev.Trace != span.CorrelationID {
			t.Errorf("violation trace = %q, span id = %q", ev.Trace, span.CorrelationID)
		}
		hasPLA := false
		for _, id := range ev.PLAs {
			if id == "thresh" {
				hasPLA = true
			}
		}
		if !hasPLA {
			t.Errorf("violation PLAs = %v, want to include \"thresh\"", ev.PLAs)
		}
	}
	if !found {
		t.Fatal("no violation audit event for the blocked render")
	}
	// And the correlation id reaches the streamed JSONL sink.
	if !strings.Contains(sink.String(), `"trace":"`+span.CorrelationID+`"`) {
		t.Error("audit sink JSONL does not carry the correlation id")
	}
}

// TestAllowedRenderObservability checks the allow path: counters move,
// the span records decision=allow, and the render audit event shares the
// span's correlation id.
func TestAllowedRenderObservability(t *testing.T) {
	e := quickEngine2(t)
	enf, err := e.Render(context.Background(), "rx-list", Consumer{Name: "u", Role: "analyst"})
	if err != nil {
		t.Fatal(err)
	}

	s := e.MetricsSnapshot()
	if got := s.Counters["render.total"]; got != 1 {
		t.Errorf("render.total = %d, want 1", got)
	}
	if got := s.Counters["render.blocked"]; got != 0 {
		t.Errorf("render.blocked = %d, want 0", got)
	}
	if got := s.Counters["render.rows"]; got != uint64(enf.Table.NumRows()) {
		t.Errorf("render.rows = %d, want %d", got, enf.Table.NumRows())
	}
	if h, ok := s.Histograms["span.render"]; !ok || h.Count != 1 {
		t.Errorf("span.render histogram = %+v, want one observation", h)
	}

	span := lastSpan(t, e, "render")
	if got := span.Attr("decision"); got != "allow" {
		t.Errorf("span decision = %q, want \"allow\"", got)
	}
	renders := e.Audit().ByKind("render")
	if len(renders) != 1 {
		t.Fatalf("render audit events = %d, want 1", len(renders))
	}
	if renders[0].Trace != span.CorrelationID {
		t.Errorf("render audit trace = %q, span id = %q", renders[0].Trace, span.CorrelationID)
	}
}

// TestExternalCorrelationID checks that an id stitched in from an outer
// system (a request id) flows through the span into the audit trail.
func TestExternalCorrelationID(t *testing.T) {
	e := quickEngine2(t)
	ctx := WithCorrelationID(context.Background(), "req-7")
	if got := CorrelationID(ctx); got != "req-7" {
		t.Fatalf("CorrelationID round-trip = %q", got)
	}
	if _, err := e.Render(ctx, "rx-list", Consumer{Name: "u", Role: "analyst"}); err != nil {
		t.Fatal(err)
	}
	if span := lastSpan(t, e, "render"); span.CorrelationID != "req-7" {
		t.Errorf("span id = %q, want the external \"req-7\"", span.CorrelationID)
	}
	renders := e.Audit().ByKind("render")
	if len(renders) != 1 || renders[0].Trace != "req-7" {
		t.Errorf("render audit trace = %v, want \"req-7\"", renders)
	}
}

// TestMetricsEndpoint drives the HTTP surface: /metrics serves the merged
// snapshot (including the cache.* fold-in) and /debug/pprof responds.
func TestMetricsEndpoint(t *testing.T) {
	e := quickEngine2(t)
	if _, err := e.Render(context.Background(), "rx-list", Consumer{Name: "u", Role: "analyst"}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(e.DebugHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	var s MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["render.total"] != 1 {
		t.Errorf("served render.total = %d, want 1", s.Counters["render.total"])
	}
	if _, ok := s.Counters["cache.misses"]; !ok {
		t.Error("served snapshot lacks the folded-in cache counters")
	}

	pprofResp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, pprofResp.Body)
	pprofResp.Body.Close()
	if pprofResp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", pprofResp.StatusCode)
	}
}

// TestETLObservability checks the warehouse level: a guarded pipeline run
// produces an "etl" span whose correlation id is stamped on every
// transform audit event, and moves the etl.* counters.
func TestETLObservability(t *testing.T) {
	e, err := OpenHealthcare(HealthcareConfig{Prescriptions: 300})
	if err != nil {
		t.Fatal(err)
	}
	base := e.MetricsSnapshot().Counters["etl.steps"] // scenario build runs ETL too
	span := lastSpan(t, e, "etl")
	if span.CorrelationID == "" {
		t.Fatal("etl span has no correlation id")
	}
	if base == 0 {
		t.Error("etl.steps counter did not move during the scenario build")
	}
	transforms := e.Audit().ByKind("transform")
	if len(transforms) == 0 {
		t.Fatal("no transform audit events")
	}
	for _, ev := range transforms {
		if ev.Trace == "" {
			t.Fatalf("transform event %d has no trace id", ev.Seq)
		}
	}
	if h, ok := e.MetricsSnapshot().Histograms["etl.wave.duration"]; !ok || h.Count == 0 {
		t.Error("etl.wave.duration histogram has no observations")
	}
}

// TestSegmentReadObservability asks the storage layer's question one level
// below "how many partitions were pruned": of the column blocks a render
// read and verified, how many did it decode? drug-consumption groups the
// spilled wide table by one column, so some blocks are decoded and most
// are only verified.
func TestSegmentReadObservability(t *testing.T) {
	e, err := OpenHealthcare(HealthcareConfig{Prescriptions: 300}, WithSegmentStore(t.TempDir()), WithSpillThreshold(1))
	if err != nil {
		t.Fatal(err)
	}
	before := e.MetricsSnapshot().Counters
	if _, err := e.Render(context.Background(), "drug-consumption", Consumer{Name: "u", Role: "analyst", Purpose: "quality"}); err != nil {
		t.Fatal(err)
	}
	after := e.MetricsSnapshot().Counters
	parts := after["segment.read.partitions"] - before["segment.read.partitions"]
	decoded := after["segment.read.columns"] - before["segment.read.columns"]
	skipped := after["segment.read.columns_skipped"] - before["segment.read.columns_skipped"]
	if parts == 0 {
		t.Fatal("the render read no partition: the warehouse is not spilled")
	}
	if !(0 < decoded && decoded < decoded+skipped) {
		t.Errorf("render of drug-consumption: %d column blocks decoded, %d verified only; want 0 < decoded < decoded+skipped", decoded, skipped)
	}
}

// quickEngine2 mirrors quickEngine but accepts Open options (the obs
// tests need an audit sink alongside the standard fixture scenario).
func quickEngine2(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	e := Open(opts...)
	seedQuickScenario(t, e)
	return e
}
