// Package audit implements the monitoring and auditing side of the
// paper's fourth challenge (§2 iv): an append-only JSONL event log of
// every extraction, transformation, load, render and enforcement
// decision; violation scanning; and provenance-backed dispute resolution
// — given any cell of a delivered report, reconstruct where it came from,
// which transformations produced it, and which PLAs were in force.
package audit

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"plabi/internal/enforce"
	"plabi/internal/fault"
	"plabi/internal/obs"
	"plabi/internal/policy"
	"plabi/internal/provenance"
	"plabi/internal/relation"
	"plabi/internal/sql"
)

// Event is one audit record. Seq is a logical clock assigned by the log;
// runs are reproducible because no wall-clock time is recorded by default.
type Event struct {
	Seq    int    `json:"seq"`
	Kind   string `json:"kind"` // extract | transform | load | render | decision | violation
	Actor  string `json:"actor,omitempty"`
	Object string `json:"object,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Outcome mirrors enforcement decisions ("mask", "block", ...).
	Outcome string `json:"outcome,omitempty"`
	// PLAs lists the PLA ids involved.
	PLAs []string `json:"plas,omitempty"`
	// Trace is the correlation id of the span covering the operation that
	// emitted the event, joining the audit trail with the obs span stream
	// and metrics.
	Trace string `json:"trace,omitempty"`
}

// ErrAuditUnavailable marks an audit-sink write that failed past the
// retry budget. The engine refuses to deliver a render whose events do not
// reach the sink; errors.Is matches it through the engine's wrapping.
var ErrAuditUnavailable = errors.New("audit: sink unavailable")

// Log is a thread-safe append-only audit log. An optional sink receives
// every event as one JSON line at append time, so deployments can stream
// the trail to stable storage while keeping the in-memory log queryable.
//
// Sink writes are atomic per event: the whole line (JSON + newline) is
// marshalled first and issued as a single Write. A failed or short write
// marks the sink dirty, and the next event resyncs it with a leading
// newline so one bad write cannot corrupt the adjacent records.
type Log struct {
	mu      sync.Mutex
	events  []Event
	sink    io.Writer
	dirty   bool
	metrics *obs.Metrics
	faults  *fault.Injector
	retry   fault.RetryPolicy
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// SetSink streams every subsequently appended event to w as JSONL (nil
// disables streaming). The write happens under the log's lock, preserving
// sequence order in the sink.
func (l *Log) SetSink(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sink = w
}

// CloseSink flushes and closes the attached sink, then detaches it, so
// every line issued so far reaches stable storage before the owner lets
// the writer go. Sinks that implement Flush() error (bufio.Writer) are
// flushed; sinks that implement io.Closer (os.File) are closed. The log
// itself stays usable: subsequent appends are in-memory only. Calling
// CloseSink with no sink attached is a no-op.
func (l *Log) CloseSink() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sink == nil {
		return nil
	}
	var err error
	if f, ok := l.sink.(interface{ Flush() error }); ok {
		err = f.Flush()
	}
	if c, ok := l.sink.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	l.sink = nil
	l.dirty = false
	if err != nil {
		return fmt.Errorf("audit: close sink: %w", err)
	}
	return nil
}

// SetMetrics wires the log into an obs registry: AppendChecked maintains the
// audit.events counter, the audit.depth gauge, audit.sink_drops for
// sink write failures and audit.sink_resyncs for dirty-sink recoveries.
func (l *Log) SetMetrics(m *obs.Metrics) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.metrics = m
}

// SetFaults attaches a fault injector consulted at the audit.sink.write
// site before every sink write attempt (nil detaches).
func (l *Log) SetFaults(fi *fault.Injector) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.faults = fi
}

// SetRetryPolicy bounds the retries of failed sink writes. The zero
// policy (the default) attempts each write exactly once.
func (l *Log) SetRetryPolicy(p fault.RetryPolicy) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.retry = p
}

// AppendChecked stamps and stores an event, returning its sequence
// number and the sink outcome: a nil error means the event is durably in
// the in-memory log AND (when a sink is attached) its line was fully
// written after bounded retries. A non-nil error wraps
// ErrAuditUnavailable; the event still exists in memory and the drop is
// counted. A render blocks delivery on it; a caller that may go on without
// the line discards it visibly (`_, _ =`).
func (l *Log) AppendChecked(ctx context.Context, e Event) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = len(l.events)
	l.events = append(l.events, e)
	l.metrics.Counter("audit.events").Inc()
	l.metrics.Gauge("audit.depth").Set(int64(len(l.events)))
	if l.sink == nil {
		return e.Seq, nil
	}
	if err := l.writeEvent(ctx, e); err != nil {
		l.metrics.Counter("audit.sink_drops").Inc()
		return e.Seq, fmt.Errorf("%w: event %d: %v", ErrAuditUnavailable, e.Seq, err)
	}
	return e.Seq, nil
}

// writeEvent writes one event to the sink as a single atomic line,
// retrying under the log's policy. Called with l.mu held, which also
// serializes the underlying writer.
func (l *Log) writeEvent(ctx context.Context, e Event) error {
	b, err := json.Marshal(e)
	if err != nil {
		return fault.Permanent(err)
	}
	line := append(b, '\n')
	return fault.Retry(ctx, l.retry, l.metrics, func(ctx context.Context) error {
		// A panicking sink (or an injected panic) must release the event
		// loop cleanly: Safely converts it to a permanent internal error.
		return fault.Safely(fault.SiteAuditSink, l.metrics, func() error {
			if err := l.faults.Hit(ctx, fault.SiteAuditSink); err != nil {
				return err
			}
			if l.dirty {
				// A previous write may have emitted a partial line;
				// terminate it so this record starts on a fresh line.
				if _, err := io.WriteString(l.sink, "\n"); err != nil {
					return err
				}
				l.dirty = false
				l.metrics.Counter("audit.sink_resyncs").Inc()
			}
			n, err := l.sink.Write(line)
			if err == nil && n < len(line) {
				err = io.ErrShortWrite
			}
			if err != nil && n > 0 {
				l.dirty = true
			}
			return err
		})
	})
}

// DecisionTracedChecked records an enforcement decision as an audit event
// carrying the correlation id of the span it was made under, so the audit
// trail and the obs span stream can be joined on Trace, and reports the
// sink outcome (see AppendChecked).
func (l *Log) DecisionTracedChecked(ctx context.Context, actor, object, trace string, d enforce.Decision) (int, error) {
	kind := "decision"
	if d.Outcome == enforce.Block {
		kind = "violation"
	}
	return l.AppendChecked(ctx, Event{
		Kind: kind, Actor: actor, Object: object,
		Detail:  d.Rule + ": " + d.Detail + evidenceSuffix(d.Evidence),
		Outcome: d.Outcome.String(),
		PLAs:    d.PLAs,
		Trace:   trace,
	})
}

func evidenceSuffix(ev []string) string {
	if len(ev) == 0 {
		return ""
	}
	return " [" + strings.Join(ev, "; ") + "]"
}

// Events returns a snapshot of all events.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// Len returns the number of events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// WriteJSONL streams the log as JSON lines.
func (l *Log) WriteJSONL(w io.Writer) error {
	for _, e := range l.Events() {
		b, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("audit: marshal: %w", err)
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return fmt.Errorf("audit: write: %w", err)
		}
	}
	return nil
}

// ReadJSONL loads a log previously written with WriteJSONL.
func ReadJSONL(r io.Reader) (*Log, error) {
	l := NewLog()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("audit: parse line: %w", err)
		}
		// Re-stamped by AppendChecked; the log has no sink, so no error.
		_, _ = l.AppendChecked(context.Background(), e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("audit: read: %w", err)
	}
	return l, nil
}

// Violations returns the recorded violation events.
func (l *Log) Violations() []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.Kind == "violation" {
			out = append(out, e)
		}
	}
	return out
}

// ByKind returns events of one kind.
func (l *Log) ByKind(kind string) []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// DisputeReport is the evidence bundle produced for a challenged report
// cell: its value, the source cells it derives from, the transformation
// chain, and the PLAs governing the origin tables.
type DisputeReport struct {
	Report string
	Row    int
	Column string
	Value  relation.Value
	// SourceCells are the concrete origin cells (where-provenance).
	SourceCells []provenance.SourceCell
	// Transformations is the upstream derivation, one line per step.
	Transformations []string
	// PLAs lists the governing agreements by id per origin table.
	PLAs map[string][]string
}

// String renders the dispute evidence.
func (d *DisputeReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dispute: %s[%d].%s = %v\n", d.Report, d.Row, d.Column, d.Value)
	b.WriteString("  source cells:\n")
	for _, c := range d.SourceCells {
		fmt.Fprintf(&b, "    %s\n", c)
	}
	if len(d.Transformations) > 0 {
		b.WriteString("  transformations:\n")
		for _, t := range d.Transformations {
			fmt.Fprintf(&b, "    %s\n", t)
		}
	}
	b.WriteString("  governing PLAs:\n")
	tables := make([]string, 0, len(d.PLAs))
	for table := range d.PLAs {
		tables = append(tables, table)
	}
	slices.Sort(tables)
	for _, table := range tables {
		fmt.Fprintf(&b, "    %s: %s\n", table, strings.Join(d.PLAs[table], ", "))
	}
	return b.String()
}

// Auditor resolves disputes and replays compliance over rendered outputs.
type Auditor struct {
	Registry *policy.Registry
	Catalog  *sql.Catalog
	Graph    *provenance.Graph
}

// ResolveDispute assembles the evidence bundle for one cell of a rendered
// report table (which must carry lineage), its source cells read from one
// snapshot of the catalog.
func (a *Auditor) ResolveDispute(rendered *relation.Table, row int, col string) (*DisputeReport, error) {
	ct, err := provenance.Over(a.Catalog.Snapshot()).TraceCell(rendered, row, col)
	if err != nil {
		return nil, fmt.Errorf("audit: dispute: %w", err)
	}
	d := &DisputeReport{
		Report: rendered.Name, Row: row, Column: col, Value: ct.Value,
		SourceCells: ct.Cells,
		PLAs:        map[string][]string{},
	}
	if a.Graph != nil {
		for _, s := range a.Graph.Upstream(rendered.Name) {
			d.Transformations = append(d.Transformations, s.String())
		}
	}
	tables := map[string]bool{}
	for _, ref := range ct.Rows {
		tables[ref.Table] = true
	}
	for table := range tables {
		for _, lvl := range policy.Levels() {
			for _, p := range a.Registry.ForScope(lvl, table).PLAs {
				d.PLAs[table] = append(d.PLAs[table], p.ID)
			}
		}
		if len(d.PLAs[table]) == 0 {
			d.PLAs[table] = []string{"(none)"}
		}
	}
	return d, nil
}
