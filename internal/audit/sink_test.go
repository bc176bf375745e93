package audit

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"plabi/internal/fault"
	"plabi/internal/obs"
)

// flakyWriter fails (or short-writes) the first n writes, then delegates
// to the buffer.
type flakyWriter struct {
	buf      bytes.Buffer
	failures int
	short    bool
	writes   int
}

func (w *flakyWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.failures > 0 {
		w.failures--
		if w.short {
			// Commit a partial prefix, as a failing disk or pipe would.
			n := len(p) / 2
			w.buf.Write(p[:n])
			return n, nil
		}
		return 0, errors.New("sink down")
	}
	return w.buf.Write(p)
}

func fastRetry() fault.RetryPolicy {
	return fault.RetryPolicy{MaxAttempts: 4, Base: time.Microsecond, Max: 10 * time.Microsecond, Multiplier: 2}
}

func validJSONLines(t *testing.T, data string) int {
	t.Helper()
	n := 0
	for _, line := range strings.Split(data, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("corrupt sink line %q: %v", line, err)
		}
		n++
	}
	return n
}

func TestAppendCheckedRetriesSinkFailures(t *testing.T) {
	w := &flakyWriter{failures: 2}
	l := NewLog()
	l.SetSink(w)
	l.SetRetryPolicy(fastRetry())
	m := obs.New()
	l.SetMetrics(m)
	seq, err := l.AppendChecked(context.Background(), Event{Kind: "render", Object: "r1"})
	if err != nil || seq != 0 {
		t.Fatalf("want retried success, got seq=%d err=%v", seq, err)
	}
	if got := validJSONLines(t, w.buf.String()); got != 1 {
		t.Fatalf("sink lines = %d, want 1", got)
	}
	if m.Counter("audit.sink_drops").Value() != 0 {
		t.Fatal("no drop expected after successful retry")
	}
	if m.Counter("retry.retries").Value() != 2 {
		t.Fatalf("retry.retries = %d, want 2", m.Counter("retry.retries").Value())
	}
}

func TestAppendCheckedFailsClosedPastBudget(t *testing.T) {
	w := &flakyWriter{failures: 100}
	l := NewLog()
	l.SetSink(w)
	l.SetRetryPolicy(fastRetry())
	m := obs.New()
	l.SetMetrics(m)
	seq, err := l.AppendChecked(context.Background(), Event{Kind: "render"})
	if !errors.Is(err, ErrAuditUnavailable) {
		t.Fatalf("want ErrAuditUnavailable, got %v", err)
	}
	if seq != 0 || l.Len() != 1 {
		t.Fatal("event must still be recorded in memory")
	}
	if m.Counter("audit.sink_drops").Value() != 1 {
		t.Fatalf("audit.sink_drops = %d, want 1", m.Counter("audit.sink_drops").Value())
	}
	if m.Counter("retry.exhausted").Value() != 1 {
		t.Fatalf("retry.exhausted = %d, want 1", m.Counter("retry.exhausted").Value())
	}
}

func TestSinkShortWriteResync(t *testing.T) {
	// One attempt per event: the first event half-commits and is dropped;
	// the next event must resync onto a fresh line so the sink stays
	// parseable with exactly the successful events.
	w := &flakyWriter{failures: 1, short: true}
	l := NewLog()
	l.SetSink(w)
	m := obs.New()
	l.SetMetrics(m)
	if _, err := l.AppendChecked(context.Background(), Event{Kind: "render", Object: "first"}); !errors.Is(err, ErrAuditUnavailable) {
		t.Fatalf("short write must fail the append, got %v", err)
	}
	if _, err := l.AppendChecked(context.Background(), Event{Kind: "render", Object: "second"}); err != nil {
		t.Fatalf("second append: %v", err)
	}
	// The partial first line is terminated by the resync newline; every
	// complete line parses and the second event survives intact.
	lines := strings.Split(strings.TrimRight(w.buf.String(), "\n"), "\n")
	var got []Event
	for _, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err == nil {
			got = append(got, e)
		}
	}
	if len(got) != 1 || got[0].Object != "second" {
		t.Fatalf("want exactly the second event parseable, got %+v", got)
	}
	if m.Counter("audit.sink_resyncs").Value() != 1 {
		t.Fatalf("audit.sink_resyncs = %d, want 1", m.Counter("audit.sink_resyncs").Value())
	}
	if m.Counter("audit.sink_drops").Value() != 1 {
		t.Fatalf("audit.sink_drops = %d, want 1", m.Counter("audit.sink_drops").Value())
	}
}

// panicWriter panics on write, as a broken custom sink might.
type panicWriter struct{}

func (panicWriter) Write([]byte) (int, error) { panic("sink exploded") }

func TestSinkPanicIsIsolated(t *testing.T) {
	l := NewLog()
	l.SetSink(panicWriter{})
	l.SetRetryPolicy(fastRetry())
	_, err := l.AppendChecked(context.Background(), Event{Kind: "render"})
	if !errors.Is(err, ErrAuditUnavailable) {
		t.Fatalf("want ErrAuditUnavailable, got %v", err)
	}
	// A panic is permanent: no retries should have burned the budget.
	if !errors.Is(err, ErrAuditUnavailable) {
		t.Fatal("panic must map to audit unavailability")
	}
	// The log must remain usable after the panic.
	l.SetSink(nil)
	if _, err := l.AppendChecked(context.Background(), Event{Kind: "render"}); err != nil {
		t.Fatalf("log unusable after sink panic: %v", err)
	}
}

func TestInjectedSinkFaultsRetryAndRecover(t *testing.T) {
	fi := fault.NewInjector(1)
	fi.Enable(fault.SiteAuditSink, fault.SiteConfig{ErrorRate: 1, Transient: true, Times: 2})
	var buf bytes.Buffer
	l := NewLog()
	l.SetSink(&buf)
	l.SetFaults(fi)
	l.SetRetryPolicy(fastRetry())
	if _, err := l.AppendChecked(context.Background(), Event{Kind: "render"}); err != nil {
		t.Fatalf("want recovery within budget, got %v", err)
	}
	if got := validJSONLines(t, buf.String()); got != 1 {
		t.Fatalf("sink lines = %d, want 1", got)
	}
	if len(fi.Schedule()) != 2 {
		t.Fatalf("schedule = %v, want 2 fires", fi.Schedule())
	}
}
