package plabi

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"

	"plabi/internal/audit"
	"plabi/internal/core"
	"plabi/internal/enforce"
	"plabi/internal/etl"
	"plabi/internal/fault"
	"plabi/internal/metareport"
	"plabi/internal/obs"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/sql"
	"plabi/internal/workload"
)

// Sentinel errors, matched with errors.Is. Render and RunETL failures
// caused by PLA enforcement wrap ErrPLAViolation; the concrete blocking
// decisions are recovered with errors.As on *BlockedError.
var (
	// ErrUnknownReport is returned by Render, CheckReportCompliance and
	// ComplianceSuite for an unregistered report id.
	ErrUnknownReport = report.ErrUnknownReport
	// ErrUnknownTable is returned when a query names an unregistered
	// relation.
	ErrUnknownTable = sql.ErrUnknownTable
	// ErrPLAViolation is the sentinel behind every enforcement refusal.
	ErrPLAViolation = enforce.ErrPLAViolation
	// ErrAuditUnavailable marks an audit-sink write that failed past the
	// retry budget; under WithFailClosed, Render errors wrap it instead
	// of delivering un-audited data.
	ErrAuditUnavailable = audit.ErrAuditUnavailable
	// ErrInternal is the sentinel behind recovered worker panics; the
	// concrete site and stack are recovered with errors.As on
	// *InternalError.
	ErrInternal = fault.ErrInternal
	// ErrInjected is the sentinel behind every injected fault, for chaos
	// harnesses distinguishing injected failures from organic ones.
	ErrInjected = fault.ErrInjected
)

// Re-exported types: the public vocabulary of the engine. The underlying
// packages stay internal; these aliases are the supported surface.
type (
	// Consumer identifies who is asking for a report and why.
	Consumer = report.Consumer
	// ReportDefinition is a registered report (id, title, SQL, roles).
	ReportDefinition = report.Definition
	// Source is one data provider: an owning institution and its tables.
	Source = etl.Source
	// Pipeline is a guarded ETL pipeline.
	Pipeline = etl.Pipeline
	// Step is one ETL operation.
	Step = etl.Step
	// ETLResult reports one pipeline run.
	ETLResult = etl.Result
	// Delta is one source-table change set: inserts, in-place updates
	// and deletes addressed by pre-delta row index.
	Delta = etl.Delta
	// RowUpdate replaces the values of one existing row in a delta.
	RowUpdate = etl.RowUpdate
	// DeltaBatch groups the deltas applied and committed together.
	DeltaBatch = etl.Batch
	// DeltaChange is how one relation changed during a delta: an edit
	// script (rows removed, updated, appended), or Rebuilt.
	DeltaChange = etl.Change
	// DeltaResult reports one incremental refresh: per-step recompute
	// accounting and the set of changed relations.
	DeltaResult = etl.DeltaResult
	// Enforced is a rendered report after PLA enforcement.
	Enforced = enforce.Enforced
	// Decision is one enforcement decision (mask, suppress, block, ...).
	Decision = enforce.Decision
	// BlockedError carries the decisions behind a refused operation.
	BlockedError = enforce.BlockedError
	// CacheStats snapshots the render decision-cache counters.
	CacheStats = enforce.CacheStats
	// MetaReport is an owner-approved upper bound on disclosure.
	MetaReport = metareport.MetaReport
	// ComplianceTest is one PLA-derived test over a rendered report.
	ComplianceTest = metareport.ComplianceTest
	// Table is an in-memory relation with lineage.
	Table = relation.Table
	// Row is one relation row, as carried by delta batches.
	Row = relation.Row
	// AuditEvent is one audit-log record.
	AuditEvent = audit.Event
	// AuditLog is the append-only audit trail.
	AuditLog = audit.Log
	// ReleaseReport documents one source-level release (Fig. 2a):
	// anonymization, suppression and consent filtering applied.
	ReleaseReport = enforce.ReleaseReport
	// Metrics is an observability registry: counters, gauges, latency
	// histograms and span tracing. A nil *Metrics is a valid no-op
	// registry.
	Metrics = obs.Metrics
	// MetricsSnapshot is a point-in-time copy of every metric.
	MetricsSnapshot = obs.Snapshot
	// HistogramSnapshot is the frozen state of one latency histogram.
	HistogramSnapshot = obs.HistogramSnapshot
	// SpanRecord is one completed span: name, correlation id, duration
	// and attributes.
	SpanRecord = obs.SpanRecord
	// FaultInjector drives deterministic, seedable fault schedules
	// through the engine's operational boundaries (chaos testing).
	FaultInjector = fault.Injector
	// FaultConfig configures injection at one site (rates, latency,
	// transience, fire bound).
	FaultConfig = fault.SiteConfig
	// RetryPolicy bounds retries with exponential backoff and jitter at
	// the engine's retryable sites.
	RetryPolicy = fault.RetryPolicy
	// InternalError is a recovered worker panic carrying site and stack.
	InternalError = fault.InternalError
	// CompiledReport is the render program one (report, role, purpose)
	// triple compiles to — the plan every render of it executes: static
	// decisions, baked thresholds, pre-bound row filters and column
	// plans, dead rules pruned. Inspect it via its fields or Explain.
	CompiledReport = enforce.Program
)

// NewMetrics returns an empty observability registry, for sharing one
// registry across engines or publishing it before Open.
func NewMetrics() *Metrics { return obs.New() }

// NewFaultInjector returns an injector with no enabled sites. Enable
// sites with Enable or EnableSpec and attach it with WithFaultInjector
// (or Engine-level wiring in internal harnesses). A fixed seed replays
// the same fault schedule.
func NewFaultInjector(seed int64) *FaultInjector { return fault.NewInjector(seed) }

// FaultSites lists the canonical injection-site names the engine
// consults: etl.extract, etl.step, etl.delta, render.worker,
// audit.sink.write, release.source, relation.segment.read.
func FaultSites() []string { return fault.Sites() }

// DefaultRetryPolicy is the engine-wide default for retryable sites:
// 4 attempts, 5ms base backoff doubling to a 200ms cap, half-width
// jitter.
func DefaultRetryPolicy() RetryPolicy { return fault.DefaultRetryPolicy() }

// CorrelationID returns the correlation id carried by ctx ("" when none).
// Every Render / RunETL / CheckReportCompliance call stamps its span's id
// into the audit events it appends, so logs, spans and metrics join on it.
func CorrelationID(ctx context.Context) string { return obs.CorrelationID(ctx) }

// WithCorrelationID returns a ctx carrying an externally chosen
// correlation id (e.g. a request id); spans started under it adopt the id
// instead of minting one.
func WithCorrelationID(ctx context.Context, id string) context.Context {
	return obs.WithCorrelationID(ctx, id)
}

// NewSource builds a source from tables, keyed by table name.
func NewSource(name, owner string, tables ...*Table) *Source {
	return etl.NewSource(name, owner, tables...)
}

// Option configures an Engine at Open time. An option whose value no
// engine configuration can mean returns the misuse as an error.
type Option func(*options) error

// options is what Open's options collect: the engine's fixed
// configuration, plus the audit sink and the storage pair attached to
// the engine before any data flows.
type options struct {
	cfg        core.Config
	auditSink  io.Writer
	segmentDir string
	spillRows  int
}

// newCore is the one constructor Open and OpenHealthcare share: apply the
// options in order, stop at the first misuse, and build the engine they
// configure.
func newCore(opts []Option) (*core.Engine, error) {
	var o options
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	ce := core.New(o.cfg)
	if o.auditSink != nil {
		ce.Audit.SetSink(o.auditSink)
	}
	if o.segmentDir != "" {
		ce.SetSegmentStore(o.segmentDir)
	}
	ce.SetSpillThreshold(o.spillRows)
	return ce, nil
}

func validRetry(opt string, p RetryPolicy) error {
	switch {
	case p.Base < 0 || p.Max < 0 || p.AttemptTimeout < 0:
		return fmt.Errorf("plabi: %s: durations cannot be negative", opt)
	case p.Jitter < 0 || p.Jitter > 1:
		return fmt.Errorf("plabi: %s: jitter %v outside [0, 1]", opt, p.Jitter)
	case p.Multiplier < 0:
		return fmt.Errorf("plabi: %s: multiplier cannot be negative", opt)
	}
	return nil
}

// WithAuditSink streams every audit event to w as one JSON line at append
// time, in sequence order, so the trail reaches stable storage while the
// in-memory log stays queryable.
func WithAuditSink(w io.Writer) Option {
	return func(o *options) error { o.auditSink = w; return nil }
}

// WithCacheSize bounds the render decision cache at roughly n entries
// (0 keeps the default of 1024; negative is misuse).
func WithCacheSize(n int) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("plabi: WithCacheSize(%d): cache size cannot be negative", n)
		}
		o.cfg.CacheSize = n
		return nil
	}
}

// WithWorkers bounds the worker pools used for ETL waves and render row
// enforcement (0 keeps the default of one worker per CPU; 1 forces
// serial execution; negative is misuse).
func WithWorkers(n int) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("plabi: WithWorkers(%d): worker count cannot be negative", n)
		}
		o.cfg.Workers = n
		return nil
	}
}

// WithMetrics attaches an observability registry at Open time, replacing
// the registry every engine otherwise creates for itself. Use it to share
// one registry across engines or to pre-publish it (expvar, /metrics).
// A nil registry is misuse: omit the option for a fresh one.
func WithMetrics(m *Metrics) Option {
	return func(o *options) error {
		if m == nil {
			return fmt.Errorf("plabi: WithMetrics(nil): registry cannot be nil; pass NewMetrics() or omit the option")
		}
		o.cfg.Metrics = m
		return nil
	}
}

// WithRetryPolicy replaces the default bounded-backoff policy applied at
// the engine's retryable sites (audit-sink writes, ETL source reads,
// segment partition reads). The zero policy disables retries entirely.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(o *options) error {
		if err := validRetry("WithRetryPolicy", p); err != nil {
			return err
		}
		o.cfg.Retry = &p
		return nil
	}
}

// WithRetryPolicyFor overrides the retry policy at one retryable site
// (etl.extract, audit.sink.write, relation.segment.read), leaving the
// default — or a WithRetryPolicy replacement — in force everywhere else.
// A fail-closed deployment typically retries audit.sink.write far harder
// than etl.extract, because an unavailable sink blocks every render:
//
//	plabi.Open(
//	    plabi.WithFailClosed(),
//	    plabi.WithRetryPolicyFor("audit.sink.write", plabi.RetryPolicy{
//	        MaxAttempts: 10, Base: 5 * time.Millisecond, Max: time.Second}),
//	)
//
// Any other site never retries, so naming it is misuse.
func WithRetryPolicyFor(site string, p RetryPolicy) Option {
	return func(o *options) error {
		if !slices.Contains(fault.RetrySites(), site) {
			return fmt.Errorf("plabi: WithRetryPolicyFor(%q): not a retry site (want one of %v)", site, fault.RetrySites())
		}
		if err := validRetry("WithRetryPolicyFor("+site+")", p); err != nil {
			return err
		}
		if o.cfg.RetrySites == nil {
			o.cfg.RetrySites = map[string]fault.RetryPolicy{}
		}
		o.cfg.RetrySites[site] = p
		return nil
	}
}

// WithFailClosed makes audit unavailability block delivery: when the
// audit sink stays down past the retry budget, Render returns an error
// wrapping ErrAuditUnavailable instead of serving data whose release
// would leave no trace. The default is fail-open (drops are counted in
// audit.sink_drops and delivery proceeds).
func WithFailClosed() Option {
	return func(o *options) error { o.cfg.FailClosed = true; return nil }
}

// WithSegmentStore roots the engine's out-of-core columnar storage at
// dir: ETL staging tables that reach the WithSpillThreshold row count
// are written out as partitioned, zone-mapped segment files and queried
// from disk with partition-pruned parallel scans, byte-identically to
// the in-memory path. The directory is created lazily on first spill.
// Omitting the option (the default) keeps every relation in memory; an
// empty dir is misuse.
func WithSegmentStore(dir string) Option {
	return func(o *options) error {
		if dir == "" {
			return fmt.Errorf("plabi: WithSegmentStore(\"\"): directory cannot be empty; omit the option instead")
		}
		o.segmentDir = dir
		return nil
	}
}

// WithSpillThreshold sets the staging-table row count at or above which
// ETL outputs spill to the WithSegmentStore directory. 0 (the default)
// disables spilling even when a store is configured; negative is misuse.
func WithSpillThreshold(n int) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("plabi: WithSpillThreshold(%d): threshold cannot be negative", n)
		}
		o.spillRows = n
		return nil
	}
}

// WithFaultInjector attaches a fault injector to every instrumented
// boundary — ETL extraction, steps and deltas, render workers, audit-sink
// writes, source-level releases and segment partition reads. For chaos
// tests and failure drills; production deployments simply omit it. In
// OpenHealthcare the injector is active during the scenario's own ETL
// build, so construction can be chaos-tested too. A nil injector is
// misuse: omit the option instead.
func WithFaultInjector(fi *FaultInjector) Option {
	return func(o *options) error {
		if fi == nil {
			return fmt.Errorf("plabi: WithFaultInjector(nil): injector cannot be nil; omit the option instead")
		}
		o.cfg.Faults = fi
		return nil
	}
}

// Engine is one privacy-aware BI deployment: sources, PLAs, guarded ETL,
// reports, meta-reports, enforcement, audit. All methods are safe for
// concurrent use.
type Engine struct {
	core *core.Engine
}

// Open builds an empty engine. Option misuse — a value no engine
// configuration can mean, exactly what OpenHealthcare rejects — panics
// with the error OpenHealthcare would return.
func Open(opts ...Option) *Engine {
	ce, err := newCore(opts)
	if err != nil {
		panic(err)
	}
	return &Engine{core: ce}
}

// HealthcareConfig sizes the synthetic workload behind OpenHealthcare.
type HealthcareConfig struct {
	// Seed drives the deterministic generator (0 selects 42).
	Seed int64
	// Prescriptions is the fact-table size (0 selects 5000).
	Prescriptions int
}

// OpenHealthcare builds the paper's Fig. 1 healthcare deployment over a
// synthetic workload: five source owners, the scenario PLAs, guarded ETL
// into the warehouse, the standard report portfolio, and derived,
// approved meta-reports.
//
// Option misuse is returned as an error before any data flows: negative
// WithWorkers, WithCacheSize or WithSpillThreshold values, WithMetrics(nil),
// WithFaultInjector(nil), WithSegmentStore(""), retry policies with
// negative durations or jitter outside [0, 1], and WithRetryPolicyFor
// overrides naming a site that never retries.
func OpenHealthcare(cfg HealthcareConfig, opts ...Option) (*Engine, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.Prescriptions == 0 {
		cfg.Prescriptions = 5000
	}
	wcfg := workload.DefaultConfig(cfg.Seed)
	wcfg.Prescriptions = cfg.Prescriptions
	wcfg.Patients = cfg.Prescriptions / 10
	ce, err := newCore(opts)
	if err != nil {
		return nil, err
	}
	// The configuration is fixed before the scenario ETL runs, so fault
	// injection, retry policies and metrics cover construction itself.
	if _, err := core.LoadHealthcareScenario(ce, wcfg); err != nil {
		return nil, err
	}
	return &Engine{core: ce}, nil
}

// AddSource registers a data provider; its tables become queryable and
// traceable.
func (e *Engine) AddSource(src *Source) { e.core.AddSource(src) }

// Source returns a registered provider by name.
func (e *Engine) Source(name string) (*Source, bool) { return e.core.Source(name) }

// AddPLAs parses a PLA DSL document and registers every agreement.
// Cached render decisions built under the previous policy set stop
// validating immediately.
func (e *Engine) AddPLAs(dsl string) error { return e.core.AddPLAs(dsl) }

// RunETL executes a pipeline under the PLA guard. Independent steps run
// in parallel waves; ctx cancels between waves. Violations are collected
// in the result when continueOnViolation is true, otherwise the first
// one aborts the run with an error wrapping ErrPLAViolation.
func (e *Engine) RunETL(ctx context.Context, p *Pipeline, continueOnViolation bool) (ETLResult, error) {
	return e.core.RunETLContext(ctx, p, continueOnViolation)
}

// ApplyDelta applies a batch of source deltas and incrementally
// refreshes every previously run pipeline's outputs derived from them:
// untouched steps are skipped, row-wise steps, filters and joins apply
// the edit — inserts, updates and deletes alike — to the output they
// have and recompute only the changed rows, and aggregates re-emit from
// retained state on appends. The application is atomic —
// on any error (including injected faults at the etl.delta site)
// sources and staging roll back and the previous state keeps serving —
// and a successful commit swaps in new table versions without moving the
// catalog generation, so cached render plans survive and the next render
// reads the new data.
func (e *Engine) ApplyDelta(ctx context.Context, b DeltaBatch) (DeltaResult, error) {
	return e.core.ApplyDelta(ctx, b)
}

// DefineReport registers a report definition.
func (e *Engine) DefineReport(d *ReportDefinition) error { return e.core.DefineReport(d) }

// Reports lists the registered report definitions.
func (e *Engine) Reports() []*ReportDefinition { return e.core.Reports.All() }

// DeriveMetaReports computes and approves the minimal covering
// meta-report set for the current portfolio.
func (e *Engine) DeriveMetaReports() ([]*MetaReport, error) { return e.core.DeriveMetaReports() }

// MetaReports returns the approved meta-report set.
func (e *Engine) MetaReports() []*MetaReport { return e.core.MetaReports() }

// Meta returns one meta-report by id.
func (e *Engine) Meta(id string) (*MetaReport, bool) { return e.core.Meta(id) }

// Assignment returns the id of the meta-report a report is assigned to
// ("" when unassigned).
func (e *Engine) Assignment(reportID string) string { return e.core.Assignment(reportID) }

// CheckReportCompliance statically checks a report for a consumer:
// derivability from an approved meta-report and PLA compliance of the
// definition. An empty slice means statically compliant. Unknown ids
// wrap ErrUnknownReport.
func (e *Engine) CheckReportCompliance(ctx context.Context, reportID string, c Consumer) ([]Decision, error) {
	return e.core.CheckReportComplianceContext(ctx, reportID, c)
}

// Render renders a report with full enforcement for the consumer,
// recording every decision in the audit log. When static PLA checks
// block the report, the refusal is decided without executing it: the
// returned Enforced carries the report's columns over no rows and the
// blocking decisions — even when the underlying data cannot be read — and
// the error is a *BlockedError wrapping ErrPLAViolation. Unknown ids wrap
// ErrUnknownReport. Render is safe to call from many goroutines; repeated
// renders of the same (report, role, purpose) are served from the
// decision cache.
func (e *Engine) Render(ctx context.Context, reportID string, c Consumer) (*Enforced, error) {
	enf, err := e.core.RenderContext(ctx, reportID, c)
	if err != nil {
		return nil, err
	}
	if blocked := enforce.Blocked(enf.Decisions); len(blocked) > 0 {
		return enf, &BlockedError{Op: "render", Subject: reportID, Decisions: blocked}
	}
	return enf, nil
}

// CompileReport specializes one (report, role, purpose) triple into its
// residual render program — the partial evaluation of the composed PLA
// set against the current policy, catalog and scope generations. The
// returned program is the exact object every render executes: it
// lands in the generation-keyed decision cache, and any policy change
// (AddPLAs, DeriveMetaReports, hot reload) invalidates it and forces a
// recompile. Unknown ids wrap ErrUnknownReport.
func (e *Engine) CompileReport(reportID string, c Consumer) (*CompiledReport, error) {
	return e.core.CompileReport(reportID, c)
}

// ExplainCompiled renders the residual program for one (report, role,
// purpose) triple as a deterministic, human-readable plan: pinned
// generations, governing PLAs, pruned rules, folded verdicts, baked
// thresholds, pre-bound filters and the per-column classification.
func (e *Engine) ExplainCompiled(reportID string, c Consumer) (string, error) {
	return e.core.ExplainCompiled(reportID, c)
}

// Precompile eagerly compiles the residual program for every registered
// report × delivery role, returning the number of programs compiled.
// plabid calls this on tenant construction and after every hot reload so
// the first post-reload render pays no compilation cost.
func (e *Engine) Precompile() (int, error) { return e.core.Precompile() }

// ProgramGeneration counts residual programs compiled over the engine's
// lifetime; a bump after AddPLAs or a reload proves recompilation.
func (e *Engine) ProgramGeneration() uint64 { return e.core.ProgramGeneration() }

// ComplianceSuite generates the PLA-derived test suite for one report
// and consumer.
func (e *Engine) ComplianceSuite(reportID string, c Consumer) ([]ComplianceTest, error) {
	return e.core.ComplianceSuite(reportID, c)
}

// RunComplianceTests runs a generated suite against a produced table and
// returns the failures (empty means compliant).
func RunComplianceTests(tests []ComplianceTest, produced *Table) []string {
	return metareport.RunTests(tests, produced)
}

// RenderUnenforced executes a report's query with no PLA enforcement —
// the "buggy implementation" a compliance suite is meant to catch. Not
// audited. Unknown ids wrap ErrUnknownReport.
func (e *Engine) RenderUnenforced(reportID string) (*Table, error) {
	d, ok := e.core.Reports.Get(reportID)
	if !ok {
		return nil, fmt.Errorf("plabi: %w %q", ErrUnknownReport, reportID)
	}
	return d.Render(e.core.Catalog)
}

// ResolveDispute reconstructs, for one cell of a rendered table, the
// source cells it derives from, the transformation chain, and the PLAs
// in force — the paper's provenance-backed dispute resolution.
func (e *Engine) ResolveDispute(rendered *Table, row int, col string) (*audit.DisputeReport, error) {
	return e.core.Auditor().ResolveDispute(rendered, row, col)
}

// ReleaseSource applies the Fig. 2a source-level release filter to a
// table under its source PLAs: consent and retention filtering,
// pseudonymization, k-anonymity/l-diversity generalization.
func (e *Engine) ReleaseSource(t *Table) (*Table, *ReleaseReport, error) {
	return e.core.SourceEnforcer().Release(t)
}

// Explain renders the provenance transformation chain that produced the
// named relation (one line per upstream ETL step).
func (e *Engine) Explain(name string) string { return e.core.Graph.Explain(name) }

// Audit returns the engine's audit log.
func (e *Engine) Audit() *AuditLog { return e.core.Audit }

// Table returns any registered relation (source, staging or view).
func (e *Engine) Table(name string) (*Table, bool) { return e.core.Table(name) }

// CacheStats snapshots the render decision-cache counters.
func (e *Engine) CacheStats() CacheStats { return e.core.CacheStats() }

// Metrics returns the engine's observability registry.
func (e *Engine) Metrics() *Metrics { return e.core.Obs() }

// MetricsSnapshot captures every counter, gauge and histogram, with the
// decision-cache counters (cache.*) folded in. Safe to call concurrently
// with renders.
func (e *Engine) MetricsSnapshot() MetricsSnapshot { return e.core.MetricsSnapshot() }

// Spans returns the most recent completed spans (render / etl / check),
// oldest first, each carrying its correlation id, duration and the
// deciding rule and PLA for blocks.
func (e *Engine) Spans() []SpanRecord { return e.core.Obs().Spans() }

// WriteMetricsJSON writes the merged metrics snapshot as indented JSON —
// the same document /metrics serves.
func (e *Engine) WriteMetricsJSON(w io.Writer) error {
	return obs.WriteSnapshotJSON(w, e.core.MetricsSnapshot())
}

// DebugHandler serves the engine's observability surface over HTTP:
// GET /metrics returns the merged snapshot as JSON, and /debug/pprof/*
// exposes the standard Go profiles. Mount it on a private listener:
//
//	go http.ListenAndServe("localhost:6060", eng.DebugHandler())
func (e *Engine) DebugHandler() http.Handler {
	return obs.DebugMux(e.core.MetricsSnapshot)
}

// Faults returns the attached fault injector (nil when none), exposing
// its fired-fault schedule for chaos-run artifacts.
func (e *Engine) Faults() *FaultInjector { return e.core.Faults() }

// Close releases the engine's operational resources: the audit sink is
// flushed (when it implements Flush() error) and closed (when it
// implements io.Closer), then detached, so the trail reaches stable
// storage before the process lets the engine go. Worker pools are
// per-operation and drain with their operations, so Close does not
// interrupt in-flight Render/RunETL calls — callers should stop issuing
// work and let it drain first, as plabid does on tenant bundle swaps.
// The engine stays queryable after Close (in-memory audit log, metrics,
// tables); only sink streaming stops. Close is idempotent.
func (e *Engine) Close() error { return e.core.Close() }

// IsBlocked reports whether err is an enforcement refusal and returns
// the blocking decisions.
func IsBlocked(err error) ([]Decision, bool) {
	var be *BlockedError
	if errors.As(err, &be) {
		return be.Decisions, true
	}
	if errors.Is(err, ErrPLAViolation) {
		return nil, true
	}
	return nil, false
}

// FormatTable renders a table for terminal display.
func FormatTable(title string, t *Table) string { return report.FormatTable(title, t) }
