package plabi

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"plabi/internal/core"
	"plabi/internal/enforce"
)

// closeTracker is an audit sink recording lifecycle calls.
type closeTracker struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	flushed bool
	closed  bool
}

func (c *closeTracker) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, errors.New("write after close")
	}
	return c.buf.Write(p)
}

func (c *closeTracker) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushed = true
	return nil
}

func (c *closeTracker) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

func TestEngineCloseFlushesAndClosesSink(t *testing.T) {
	sink := &closeTracker{}
	e := Open(WithAuditSink(sink))
	if _, err := e.Audit().AppendChecked(context.Background(), AuditEvent{Kind: "render", Object: "r1"}); err != nil {
		t.Fatal(err)
	}
	if sink.buf.Len() == 0 {
		t.Fatal("expected event streamed to sink before Close")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !sink.flushed || !sink.closed {
		t.Fatalf("Close left sink flushed=%v closed=%v, want both true", sink.flushed, sink.closed)
	}
	// Idempotent; later appends stay in memory without touching the sink.
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	before := sink.buf.Len()
	if _, err := e.Audit().AppendChecked(context.Background(), AuditEvent{Kind: "render", Object: "r2"}); err != nil {
		t.Fatal(err)
	}
	if sink.buf.Len() != before {
		t.Fatal("append after Close reached the closed sink")
	}
	if e.Audit().Len() != 2 {
		t.Fatalf("in-memory log has %d events, want 2", e.Audit().Len())
	}
}

// optionMisuse lists option values no engine configuration can mean, each
// with a fragment its error must carry.
var optionMisuse = []struct {
	name string
	opt  Option
	want string
}{
	{"negative workers", WithWorkers(-2), "WithWorkers"},
	{"negative cache", WithCacheSize(-1), "WithCacheSize"},
	{"nil injector", WithFaultInjector(nil), "WithFaultInjector(nil)"},
	{"bad jitter", WithRetryPolicy(RetryPolicy{Jitter: 2}), "jitter"},
	{"negative backoff", WithRetryPolicy(RetryPolicy{Base: -time.Second}), "negative"},
	{"unknown retry site", WithRetryPolicyFor("render.nope", RetryPolicy{}), "not a retry site"},
	{"site that never retries", WithRetryPolicyFor("render.worker", RetryPolicy{MaxAttempts: 3}), "not a retry site"},
	{"empty segment dir", WithSegmentStore(""), "WithSegmentStore"},
	{"negative spill threshold", WithSpillThreshold(-1), "WithSpillThreshold"},
}

func TestOpenHealthcareRejectsOptionMisuse(t *testing.T) {
	for _, tc := range optionMisuse {
		t.Run(tc.name, func(t *testing.T) {
			_, err := OpenHealthcare(HealthcareConfig{Prescriptions: 100}, tc.opt)
			if err == nil {
				t.Fatalf("OpenHealthcare accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestOpenPanicsOnOptionMisuse: Open rejects exactly what OpenHealthcare
// rejects, by panicking with the error OpenHealthcare returns.
func TestOpenPanicsOnOptionMisuse(t *testing.T) {
	for _, tc := range optionMisuse {
		t.Run(tc.name, func(t *testing.T) {
			_, want := OpenHealthcare(HealthcareConfig{Prescriptions: 100}, tc.opt)
			defer func() {
				got, _ := recover().(error)
				if got == nil || want == nil || got.Error() != want.Error() {
					t.Fatalf("Open panicked with %v, OpenHealthcare returned %v", got, want)
				}
			}()
			Open(tc.opt)
		})
	}
}

// TestNoRuntimeConfigurationSetters pins the method sets: an engine's
// configuration is fixed at construction, so the only Set* methods left
// are data mutations and the storage pair.
func TestNoRuntimeConfigurationSetters(t *testing.T) {
	for _, tc := range []struct {
		typ   reflect.Type
		allow []string
	}{
		{reflect.TypeOf((*core.Engine)(nil)), []string{"SetAssignment", "SetSegmentStore", "SetSpillThreshold"}},
		{reflect.TypeOf((*enforce.ReportEnforcer)(nil)), []string{"SetExtraScopes"}},
		{reflect.TypeOf((*Engine)(nil)), nil},
	} {
		for i := 0; i < tc.typ.NumMethod(); i++ {
			if name := tc.typ.Method(i).Name; strings.HasPrefix(name, "Set") && !slices.Contains(tc.allow, name) {
				t.Errorf("%s has the runtime setter %s", tc.typ, name)
			}
		}
	}
}

// flakySink fails its first n writes with a transient error.
type flakySink struct {
	mu   sync.Mutex
	fail int
	buf  bytes.Buffer
}

func (f *flakySink) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail > 0 {
		f.fail--
		return 0, errors.New("transient sink outage")
	}
	return f.buf.Write(p)
}

func TestWithRetryPolicyForAuditSiteOverride(t *testing.T) {
	// Default policy disabled, audit.sink.write retried hard: the first
	// event survives a 3-write outage because only the per-site override
	// governs the sink boundary.
	sink := &flakySink{fail: 3}
	e := Open(
		WithAuditSink(sink),
		WithRetryPolicy(RetryPolicy{}), // one attempt everywhere else
		WithRetryPolicyFor("audit.sink.write", RetryPolicy{
			MaxAttempts: 5, Base: time.Microsecond, Max: 10 * time.Microsecond}),
	)
	if _, err := e.Audit().AppendChecked(context.Background(), AuditEvent{Kind: "render", Object: "r1"}); err != nil {
		t.Fatalf("event dropped despite per-site retry override: %v", err)
	}
	if got := sink.buf.Len(); got == 0 {
		t.Fatal("event dropped despite per-site retry override")
	}
	if drops := e.MetricsSnapshot().Counters["audit.sink_drops"]; drops != 0 {
		t.Fatalf("audit.sink_drops = %d, want 0", drops)
	}

	// Control: without the override the zero policy gives up immediately.
	sink2 := &flakySink{fail: 3}
	e2 := Open(WithAuditSink(sink2), WithRetryPolicy(RetryPolicy{}))
	if _, err := e2.Audit().AppendChecked(context.Background(), AuditEvent{Kind: "render", Object: "r1"}); !errors.Is(err, ErrAuditUnavailable) {
		t.Fatalf("zero policy: want ErrAuditUnavailable, got %v", err)
	}
	if sink2.buf.Len() != 0 {
		t.Fatal("zero policy unexpectedly retried the sink write")
	}
	if drops := e2.MetricsSnapshot().Counters["audit.sink_drops"]; drops != 1 {
		t.Fatalf("audit.sink_drops = %d, want 1", drops)
	}
}
