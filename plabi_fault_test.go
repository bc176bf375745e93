package plabi

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"plabi/internal/fault"
)

func microRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, Base: time.Microsecond, Max: 10 * time.Microsecond, Multiplier: 2}
}

// failingSink refuses the first n writes, then accepts.
type failingSink struct {
	strings.Builder
	failures int
}

func (s *failingSink) Write(p []byte) (int, error) {
	if s.failures > 0 {
		s.failures--
		return 0, errors.New("sink down")
	}
	return s.Builder.Write(p)
}

func TestWithFaultInjectorDrivesPublicRenders(t *testing.T) {
	fi := NewFaultInjector(7)
	fi.Enable("render.worker", FaultConfig{ErrorRate: 1, Transient: true, Times: 1})
	e := Open(WithFaultInjector(fi))
	seedQuickScenario(t, e)

	_, err := e.Render(context.Background(), "rx-list", Consumer{Role: "analyst"})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected through the public surface, got %v", err)
	}
	// The Times bound is spent; the engine serves again.
	if _, err := e.Render(context.Background(), "rx-list", Consumer{Role: "analyst"}); err != nil {
		t.Fatalf("render after fault budget: %v", err)
	}
	if len(fi.Schedule()) != 1 {
		t.Fatalf("schedule = %v, want one fire", fi.Schedule())
	}
}

// TestRenderRefusedOnDeadSink: an engine opened with no option refuses a
// render whose audit events cannot reach its sink, under the default retry
// policy, and delivers it again once the sink recovers.
func TestRenderRefusedOnDeadSink(t *testing.T) {
	sink := &failingSink{failures: 1000}
	e := Open()
	seedQuickScenario(t, e)
	e.Audit().SetSink(sink)

	_, err := e.Render(context.Background(), "rx-list", Consumer{Role: "analyst"})
	if !errors.Is(err, ErrAuditUnavailable) {
		t.Fatalf("want ErrAuditUnavailable, got %v", err)
	}

	// Sink recovers; the same render is delivered and audited.
	sink.failures = 0
	if _, err := e.Render(context.Background(), "rx-list", Consumer{Role: "analyst"}); err != nil {
		t.Fatalf("render after sink recovery: %v", err)
	}
	if !strings.Contains(sink.String(), `"kind":"render"`) {
		t.Fatal("recovered sink saw no render event")
	}
}

func TestOpenHealthcareWithFaultOptions(t *testing.T) {
	fi := NewFaultInjector(11)
	if err := fi.EnableSpec("etl.extract:error:1:transient"); err != nil {
		t.Fatal(err)
	}
	fi.Enable(fault.SiteETLExtract, FaultConfig{ErrorRate: 1, Transient: true, Times: 2})
	e, err := OpenHealthcare(HealthcareConfig{Seed: 3, Prescriptions: 300},
		WithRetryPolicy(microRetry()), WithFaultInjector(fi))
	if err != nil {
		t.Fatalf("build must survive transient extract faults within the retry budget: %v", err)
	}
	if e.Faults() != fi {
		t.Fatal("injector not attached to the engine")
	}
	if len(fi.Schedule()) != 2 {
		t.Fatalf("schedule = %v, want the two bounded fires during ETL", fi.Schedule())
	}
	if _, err := e.Render(context.Background(), "drug-consumption",
		Consumer{Name: "ana", Role: "analyst", Purpose: "quality"}); err != nil {
		t.Fatalf("render on chaos-built engine: %v", err)
	}
}

func TestInternalErrorExposesSiteAndStack(t *testing.T) {
	fi := NewFaultInjector(5)
	fi.Enable("render.worker", FaultConfig{PanicRate: 1, Times: 1})
	e := Open(WithFaultInjector(fi))
	seedQuickScenario(t, e)

	_, err := e.Render(context.Background(), "rx-list", Consumer{Role: "analyst"})
	var ie *InternalError
	if !errors.As(err, &ie) || !errors.Is(err, ErrInternal) {
		t.Fatalf("want *InternalError wrapping ErrInternal, got %v", err)
	}
	if ie.Site != "render.worker" || len(ie.Stack) == 0 {
		t.Fatalf("InternalError = %+v", ie)
	}
}

func TestFaultSitesStable(t *testing.T) {
	want := []string{"etl.extract", "etl.step", "etl.delta", "render.worker", "audit.sink.write", "release.source", "relation.segment.read"}
	got := fault.Sites()
	if len(got) != len(want) {
		t.Fatalf("sites = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sites = %v, want %v", got, want)
		}
	}
}
