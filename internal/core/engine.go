// Package core ties the substrates together into the paper's workflow —
// register per-owner sources, attach PLAs at any of the four levels, run
// guarded ETL into the warehouse, define reports, derive and approve
// meta-reports, render reports with full enforcement and auditing, check
// compliance statically, generate PLA-derived test suites, and resolve
// disputes via provenance. The root package plabi is the public façade
// over this engine.
package core

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"plabi/internal/audit"
	"plabi/internal/enforce"
	"plabi/internal/etl"
	"plabi/internal/fault"
	"plabi/internal/metadata"
	"plabi/internal/metareport"
	"plabi/internal/obs"
	"plabi/internal/policy"
	"plabi/internal/provenance"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/sql"
)

// Config is an engine's configuration, fixed at New: each substrate
// receives its part once, and nothing re-wires it afterwards. The zero
// value is the default deployment.
type Config struct {
	// Metrics is the observability registry the engine, its audit log,
	// enforcer, fault injector and segment store record into (nil: a
	// fresh registry).
	Metrics *obs.Metrics
	// Faults drives fault injection at every instrumented boundary (nil:
	// no injection).
	Faults *fault.Injector
	// Retry is the policy at the retryable sites (fault.RetrySites) that
	// RetrySites does not override. Nil selects fault.DefaultRetryPolicy();
	// the zero policy disables retries.
	Retry *fault.RetryPolicy
	// RetrySites overrides Retry at individual retryable sites.
	RetrySites map[string]fault.RetryPolicy
	// Workers bounds parallelism for ETL waves and render row enforcement
	// (0: one worker per CPU).
	Workers int
	// CacheSize bounds the render plan cache (0: the default).
	CacheSize int
	// FailClosed refuses to deliver report data whose render cannot be
	// recorded in the audit sink: Render returns an error wrapping
	// audit.ErrAuditUnavailable instead of the enforced table. The default
	// is fail-open (the drop is counted and delivery proceeds).
	FailClosed bool
}

// retryFor returns the policy in force at one site: the per-site
// override when there is one, Retry otherwise.
func (c Config) retryFor(site string) fault.RetryPolicy {
	if p, ok := c.RetrySites[site]; ok {
		return p
	}
	return *c.Retry
}

// Engine is one privacy-aware BI deployment. All methods are safe for
// concurrent use: the substrates lock themselves, and the engine's own
// mutable state (sources, meta-reports, assignments) sits behind mu.
type Engine struct {
	Policies *policy.Registry
	Metadata *metadata.Store
	Catalog  *sql.Catalog
	// Tracer reads the catalog's current snapshot at each lookup.
	Tracer  *provenance.Tracer
	Graph   *provenance.Graph
	Reports *report.Registry
	Audit   *audit.Log

	mu        sync.RWMutex
	sources   map[string]*etl.Source
	metas     []*metareport.MetaReport
	assign    map[string]string
	pipelines []*etl.Pipeline
	// etlCtxs retains the latest staging context per pipeline name; it is
	// the base state ApplyDelta propagates source deltas through.
	etlCtxs map[string]*etl.Context

	// deltaMu serializes pipeline runs and delta applications: both
	// mutate the retained staging contexts and the per-step incremental
	// state. Renders are unaffected — each reads one catalog snapshot, and
	// a run or a delta publishes all its tables in one new snapshot.
	deltaMu sync.Mutex

	enforcer  *enforce.ReportEnforcer
	cfg       Config // Metrics and Retry resolved by New
	segStore  atomic.Pointer[relation.SegmentStore]
	spillRows atomic.Int64
	closed    atomic.Bool
}

// New returns an empty engine configured by cfg.
func New(cfg Config) *Engine {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.New()
	}
	retry := fault.DefaultRetryPolicy()
	if cfg.Retry != nil {
		retry = *cfg.Retry
	}
	cfg.Retry = &retry
	cfg.RetrySites = maps.Clone(cfg.RetrySites)
	cfg.Faults.SetMetrics(cfg.Metrics)

	cat := sql.NewCatalog()
	e := &Engine{
		Policies: policy.NewRegistry(),
		Metadata: metadata.NewStore(),
		Catalog:  cat,
		Tracer:   provenance.Over(cat),
		Graph:    provenance.NewGraph(),
		Reports:  report.NewRegistry(),
		Audit:    audit.NewLog(),
		sources:  map[string]*etl.Source{},
		assign:   map[string]string{},
		etlCtxs:  map[string]*etl.Context{},
		cfg:      cfg,
	}
	e.Audit.SetMetrics(cfg.Metrics)
	e.Audit.SetFaults(cfg.Faults)
	e.Audit.SetRetryPolicy(cfg.retryFor(fault.SiteAuditSink))
	e.enforcer = enforce.NewReportEnforcer(e.Policies, e.Catalog, enforce.Config{
		CacheSize: cfg.CacheSize, Workers: cfg.Workers, Metrics: cfg.Metrics, Faults: cfg.Faults})
	return e
}

// Obs returns the engine's observability registry.
func (e *Engine) Obs() *obs.Metrics { return e.cfg.Metrics }

// Faults returns the attached injector (nil when none).
func (e *Engine) Faults() *fault.Injector { return e.cfg.Faults }

// SetSegmentStore roots the engine's out-of-core columnar storage at
// dir and returns the store, wired into the engine's metrics, fault
// injector and segment-read retry policy. ETL staging tables that cross
// the spill threshold (SetSpillThreshold) move into it.
func (e *Engine) SetSegmentStore(dir string) *relation.SegmentStore {
	s := relation.NewSegmentStore(dir)
	s.SetMetrics(e.cfg.Metrics)
	s.SetFaults(e.cfg.Faults)
	s.SetRetryPolicy(e.cfg.retryFor(fault.SiteSegmentRead))
	e.segStore.Store(s)
	return s
}

// SetSpillThreshold sets the staging-table row count at or above which
// ETL outputs spill to the segment store; 0 (the default) disables
// spilling even when a store is configured.
func (e *Engine) SetSpillThreshold(n int) { e.spillRows.Store(int64(n)) }

// Close flushes and closes the engine's audit sink and marks the engine
// closed. In-flight operations complete normally — Close does not
// interrupt them — but the trail they stream stops at the sink boundary,
// so callers should drain before closing. Idempotent: the second and
// later calls return nil without touching the sink.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	return e.Audit.CloseSink()
}

// MetricsSnapshot captures the engine's metrics, folding in the render
// decision-cache counters (cache.*) which are kept authoritative inside
// the cache itself rather than instrumented on the hot path, plus the
// residual-program generation (compile.generation) so operators can see
// that a policy change actually recompiled.
func (e *Engine) MetricsSnapshot() obs.Snapshot {
	s := e.Obs().Snapshot()
	cs := e.CacheStats()
	s.Counters["cache.hits"] = cs.Hits
	s.Counters["cache.misses"] = cs.Misses
	s.Counters["cache.invalidations"] = cs.Invalidations
	s.Gauges["cache.entries"] = int64(cs.Entries)
	s.Gauges["compile.generation"] = int64(e.enforcer.ProgramGeneration())
	return s
}

// CacheStats snapshots the render decision-cache counters.
func (e *Engine) CacheStats() enforce.CacheStats { return e.enforcer.CacheStats() }

// ProgramGeneration counts the residual programs compiled over this
// engine's lifetime. It moves on every plan build — including the
// rebuilds a policy change (AddPLAs, DeriveMetaReports, hot reload)
// forces — so a bump after a reload proves recompilation happened.
func (e *Engine) ProgramGeneration() uint64 { return e.enforcer.ProgramGeneration() }

// CompileReport specializes one (report, role, purpose) triple into its
// render program and returns it for inspection. The program is the same
// object every render executes: it lands in the generation-keyed plan
// cache, so a subsequent render at unchanged generations reuses it. The
// unknown-report case wraps report.ErrUnknownReport.
func (e *Engine) CompileReport(reportID string, c report.Consumer) (*enforce.Program, error) {
	d, ok := e.Reports.Get(reportID)
	if !ok {
		return nil, fmt.Errorf("core: %w %q", report.ErrUnknownReport, reportID)
	}
	prog, _, err := e.enforcer.ProgramFor(d, c.Role, c.Purpose)
	return prog, err
}

// ExplainCompiled renders the residual program for one (report, role,
// purpose) triple as a deterministic, human-readable plan.
func (e *Engine) ExplainCompiled(reportID string, c report.Consumer) (string, error) {
	prog, err := e.CompileReport(reportID, c)
	if err != nil {
		return "", err
	}
	return prog.Explain(), nil
}

// Precompile eagerly compiles the residual program for every registered
// report × delivery role (under the report's declared purpose), so the
// first render after a policy change or hot reload pays no compilation
// cost. It returns the number of (report, role) pairs compiled. Reports
// with no declared roles compile once under the empty role.
func (e *Engine) Precompile() (int, error) {
	n := 0
	for _, d := range e.Reports.All() {
		roles := d.Roles
		if len(roles) == 0 {
			roles = []string{""}
		}
		for _, role := range roles {
			if err := e.enforcer.Precompile(d, role, d.Purpose); err != nil {
				return n, fmt.Errorf("core: precompile %s for role %q: %w", d.ID, role, err)
			}
			n++
		}
	}
	return n, nil
}

// AddSource registers a data provider; its tables become queryable,
// traceable catalog entries, published in one snapshot.
func (e *Engine) AddSource(src *etl.Source) {
	e.mu.Lock()
	e.sources[strings.ToLower(src.Name)] = src
	e.mu.Unlock()
	var tables []*relation.Table
	for _, t := range src.Tables {
		tables = append(tables, t)
		_, _ = e.Audit.AppendChecked(context.Background(), audit.Event{Kind: "register", Actor: src.Owner, Object: t.Name,
			Detail: fmt.Sprintf("%d rows", t.NumRows())})
	}
	e.Catalog.Register(tables...)
}

// Source returns a registered data provider by name.
func (e *Engine) Source(name string) (*etl.Source, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s, ok := e.sources[strings.ToLower(name)]
	return s, ok
}

// SourceOwners lists the distinct owners behind the registered
// providers, sorted — the universe of legitimate integration
// beneficiaries.
func (e *Engine) SourceOwners() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	seen := map[string]bool{}
	var out []string
	for _, s := range e.sources {
		if !seen[s.Owner] {
			seen[s.Owner] = true
			out = append(out, s.Owner)
		}
	}
	sort.Strings(out)
	return out
}

// AddPLAs parses a PLA DSL document and registers every block. Cached
// render decisions computed under the previous policy set stop validating
// immediately (the registry generation moves).
func (e *Engine) AddPLAs(dsl string) error {
	plas, err := policy.ParseFile(dsl)
	if err != nil {
		return err
	}
	for _, p := range plas {
		if err := e.Policies.Add(p); err != nil {
			return err
		}
		_, _ = e.Audit.AppendChecked(context.Background(), audit.Event{Kind: "pla", Actor: p.Owner, Object: p.ID,
			Detail: fmt.Sprintf("level=%s scope=%s atoms=%d", p.Level, p.Scope, p.Atoms())})
	}
	return nil
}

// RunETL executes a pipeline with the PLA guard, recording every step in
// the audit log and publishing its staging outputs in one catalog
// snapshot. When continueOnViolation is true, blocked steps are skipped and
// recorded while the rest of the pipeline proceeds. A run that fails
// commits nothing: the recorded plan of that name, its staging context and
// the catalog keep what the last successful run (or delta) left.
func (e *Engine) RunETL(p *etl.Pipeline, continueOnViolation bool) (etl.Result, error) {
	return e.RunETLContext(context.Background(), p, continueOnViolation)
}

// RunETLContext is RunETL honouring ctx between pipeline waves.
func (e *Engine) RunETLContext(ctx context.Context, p *etl.Pipeline, continueOnViolation bool) (etl.Result, error) {
	e.deltaMu.Lock()
	defer e.deltaMu.Unlock()
	m := e.Obs()
	ctx, span := m.StartSpan(ctx, "etl")
	span.Set("pipeline", p.Name)
	defer span.End()
	ectx := e.newETLContext()
	ectx.Observe = e.observeETL(ctx, span.ID())
	res, err := p.RunContext(ctx, ectx, continueOnViolation)
	span.Set("violations", fmt.Sprint(len(res.Violations)))
	if err != nil {
		return res, err
	}
	// Record the plan and retain the staging context as the base state for
	// ApplyDelta, beside the catalog snapshot that publishes it.
	e.recordPipeline(p)
	e.mu.Lock()
	e.etlCtxs[p.Name] = ectx
	e.mu.Unlock()
	staged := make([]*relation.Table, 0, len(ectx.Staging))
	for name, t := range ectx.Staging {
		staged = append(staged, named(t, name))
	}
	e.Catalog.Register(staged...)
	return res, nil
}

// newETLContext builds a fresh staging context wired to the engine's
// guard, provenance graph, metrics, fault injector, worker bound and
// spill config.
func (e *Engine) newETLContext() *etl.Context {
	ectx := etl.NewContext(enforce.NewPLAGuard(e.Policies))
	ectx.Graph = e.Graph
	ectx.Metrics = e.cfg.Metrics
	ectx.Faults = e.cfg.Faults
	ectx.Retry = e.cfg.retryFor(fault.SiteETLExtract)
	ectx.Workers = e.cfg.Workers
	ectx.SpillStore = e.segStore.Load()
	ectx.SpillThreshold = int(e.spillRows.Load())
	return ectx
}

// observeETL builds the Observe callback that streams pipeline events
// into the audit trail under one trace id.
func (e *Engine) observeETL(ctx context.Context, trace string) func(step, op, output string, rowsIn, rowsOut int, err error) {
	return func(step, op, output string, rowsIn, rowsOut int, err error) {
		ev := audit.Event{Kind: "transform", Actor: step, Object: output,
			Detail: fmt.Sprintf("%s %d->%d rows", op, rowsIn, rowsOut),
			Trace:  trace}
		if err != nil {
			ev.Kind = "violation"
			ev.Detail = err.Error()
			if etl.IsSkipped(err) {
				ev.Kind = "skip"
			}
		}
		_, _ = e.Audit.AppendChecked(ctx, ev)
	}
}

// ApplyDelta applies a batch of source deltas — inserts, in-place
// updates and deletes keyed per source table — and incrementally
// refreshes every recorded pipeline's staging state derived from them.
// Each delta's indices address its table as the deltas before it in the
// batch left it; the deltas of one table merge into one edit script
// (rows removed, updated, appended) over the committed version. Steps
// untouched by the changes are skipped entirely; row-wise transforms and
// entity resolution over an unchanged canon pass the script through,
// filters and joins place it in their output by the input ordinals they
// retain, and all of them recompute only the updated and appended rows;
// a step that cannot place an edit (opaque transform, changed right or
// canon side, an update that changes a row's fan-out, an aggregate over
// anything but an append) reruns alone. Row indices stay dense and
// lineage is renumbered past every delete, so the result equals a full
// rebuild byte for byte. A pipeline whose retained context a failed delta
// dropped takes the batch over a fresh context, where every step runs.
// Nothing commits until the whole batch succeeds:
// on any error (injected fault at the etl.delta site, a violation from a
// guard re-check, validation) the sources and staging areas are restored
// and the previous catalog state keeps serving.
//
// On success the new source versions and changed staging outputs commit
// in one catalog snapshot (Catalog.Refresh): a render sees all of them or
// none, cached render plans survive, and the next render reads the new
// versions' resident columns, each version carrying its own
// distinct-support dictionaries forward. Each changed source table is
// audited as a "delta" event: "+A rows, U updated, -R removed", or
// "rebuilt at N rows" when its deltas did not compose.
func (e *Engine) ApplyDelta(ctx context.Context, b etl.Batch) (etl.DeltaResult, error) {
	m := e.Obs()
	ctx, span := m.StartSpan(ctx, "delta")
	defer span.End()
	e.deltaMu.Lock()
	defer e.deltaMu.Unlock()
	m.Counter("delta.total").Inc()

	var zero etl.DeltaResult
	fail := func(err error) (etl.DeltaResult, error) {
		m.Counter("delta.errors").Inc()
		span.Set("decision", "error")
		return zero, err
	}

	// Phase 1: compute the new source-table versions copy-on-write;
	// nothing observable changes yet.
	type swap struct {
		src  *etl.Source
		key  string // table key inside src.Tables
		old  *relation.Table
		next *relation.Table
		ch   etl.Change
	}
	swaps := map[string]*swap{} // keyed "source.table", lower-cased
	var order []string
	for i := range b.Deltas {
		d := &b.Deltas[i]
		src, ok := e.Source(d.Source)
		if !ok {
			return fail(fmt.Errorf("core: delta for unknown source %q", d.Source))
		}
		qk := strings.ToLower(d.Source + "." + d.Table)
		sw := swaps[qk]
		if sw == nil {
			cur, ok := src.Table(d.Table)
			if !ok {
				return fail(fmt.Errorf("core: source %q has no table %q", d.Source, d.Table))
			}
			sw = &swap{src: src, key: strings.ToLower(d.Table), old: cur, next: cur}
			swaps[qk] = sw
			order = append(order, qk)
		}
		next, ch, err := d.Apply(sw.next)
		if err != nil {
			return fail(err)
		}
		sw.next = next
		// A later delta of the same table indexes the version the earlier
		// ones left; the merged change indexes the committed one.
		sw.ch = sw.ch.Merge(ch, next.NumRows())
	}
	changes := map[string]etl.Change{}
	for qk, sw := range swaps {
		changes[qk] = sw.ch
	}

	// Phase 2: swap the sources in place so extract steps re-point at
	// the new versions; rolled back wholesale on any pipeline failure.
	for _, sw := range swaps {
		sw.src.Swap(sw.key, sw.next)
	}
	rollbackSources := func() {
		for _, sw := range swaps {
			sw.src.Swap(sw.key, sw.old)
		}
	}

	// Phase 3: propagate through every recorded pipeline, over its
	// retained staging context or, when a failed delta dropped it, a fresh
	// one. Each pipeline's ApplyDelta is atomic over its own staging; if a
	// later pipeline fails, earlier ones have already refreshed their
	// staging against the rolled-back sources, so their retained contexts
	// are dropped — the next run or delta rebuilds them — while the catalog
	// (nothing committed) keeps serving the old state.
	agg := etl.DeltaResult{Changed: map[string]etl.Change{}}
	for k, v := range changes {
		agg.Changed[k] = v
	}
	type refreshed struct {
		ectx *etl.Context
		res  etl.DeltaResult
	}
	var applied []refreshed
	var appliedNames []string
	abort := func(err error) (etl.DeltaResult, error) {
		rollbackSources()
		e.mu.Lock()
		for _, name := range appliedNames {
			delete(e.etlCtxs, name)
		}
		e.mu.Unlock()
		return fail(err)
	}
	for _, p := range e.Pipelines() {
		e.mu.RLock()
		ectx := e.etlCtxs[p.Name]
		e.mu.RUnlock()
		if ectx == nil {
			ectx = e.newETLContext()
		}
		ectx.Observe = e.observeETL(ctx, span.ID())
		res, err := p.ApplyDelta(ctx, ectx, changes)
		if err != nil {
			return abort(fmt.Errorf("core: delta through pipeline %q: %w", p.Name, err))
		}
		e.mu.Lock()
		e.etlCtxs[p.Name] = ectx
		e.mu.Unlock()
		applied = append(applied, refreshed{ectx, res})
		appliedNames = append(appliedNames, p.Name)
		agg.StepsIncremental += res.StepsIncremental
		agg.StepsRebuilt += res.StepsRebuilt
		agg.StepsUntouched += res.StepsUntouched
		for k, v := range res.Changed {
			// Pipelines see the same source changes, and the first to write
			// a staging name is the one the commit below publishes.
			if _, ok := agg.Changed[k]; !ok {
				agg.Changed[k] = v
			}
		}
	}

	// Phase 4: commit. Changed source tables and staging outputs publish
	// in one catalog snapshot; an edited version brings the dictionaries
	// and groupings relation.ApplyEdit carried to it.
	var commit []*relation.Table
	committed := map[string]bool{}
	publish := func(t *relation.Table) {
		if key := strings.ToLower(t.Name); !committed[key] {
			committed[key] = true
			commit = append(commit, t)
		}
	}
	var appended, updated, removed, rebuilt int
	for _, qk := range order {
		sw := swaps[qk]
		publish(sw.next)
		appended += sw.ch.Appended
		updated += len(sw.ch.Updated)
		removed += len(sw.ch.Removed)
		if sw.ch.Rebuilt {
			rebuilt++
		}
		detail := fmt.Sprintf("+%d rows, %d updated, -%d removed", sw.ch.Appended, len(sw.ch.Updated), len(sw.ch.Removed))
		if sw.ch.Rebuilt {
			detail = fmt.Sprintf("rebuilt at %d rows", sw.next.NumRows())
		}
		_, _ = e.Audit.AppendChecked(ctx, audit.Event{Kind: "delta", Actor: sw.src.Owner,
			Object: sw.next.Name, Detail: detail, Trace: span.ID()})
	}
	for _, r := range applied {
		for name := range r.res.Changed {
			t, err := r.ectx.Get(name)
			if err != nil {
				continue // source-qualified inputs are not staging entries
			}
			publish(named(t, name))
		}
	}
	e.Catalog.Refresh(commit...)
	m.Counter("delta.steps.incremental").Add(uint64(agg.StepsIncremental))
	m.Counter("delta.steps.rebuilt").Add(uint64(agg.StepsRebuilt))
	span.Set("tables", fmt.Sprint(len(order)))
	span.Set("rows", fmt.Sprintf("+%d rows, %d updated, -%d removed, %d tables rebuilt", appended, updated, removed, rebuilt))
	span.Set("decision", "applied")
	return agg, nil
}

// named returns t under name: t itself, or a renamed clone.
func named(t *relation.Table, name string) *relation.Table {
	if t.Name == name {
		return t
	}
	c := t.Clone()
	c.Name = name
	return c
}

// recordPipeline keeps the plan of every pipeline the engine has run
// successfully (latest per name) so the static analyzer can re-check ETL
// data flow against evolved agreements without re-executing it.
func (e *Engine) recordPipeline(p *etl.Pipeline) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, have := range e.pipelines {
		if have.Name == p.Name {
			e.pipelines[i] = p
			return
		}
	}
	e.pipelines = append(e.pipelines, p)
}

// Pipelines returns the recorded ETL plans, sorted by name.
func (e *Engine) Pipelines() []*etl.Pipeline {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := append([]*etl.Pipeline(nil), e.pipelines...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Assignments returns a copy of the full report-to-meta-report
// assignment map.
func (e *Engine) Assignments() map[string]string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make(map[string]string, len(e.assign))
	for k, v := range e.assign {
		out[k] = v
	}
	return out
}

// DefineReport registers a report definition.
func (e *Engine) DefineReport(d *report.Definition) error {
	if err := e.Reports.Create(d); err != nil {
		return err
	}
	_, _ = e.Audit.AppendChecked(context.Background(), audit.Event{Kind: "report", Object: d.ID, Detail: d.Query})
	return nil
}

// DeriveMetaReports computes the minimal covering meta-report set for the
// current portfolio and marks the metas approved (standing in for the
// owners' sign-off). Cached render decisions keyed to the previous
// assignment stop validating (the enforcer's scope generation moves).
func (e *Engine) DeriveMetaReports() ([]*metareport.MetaReport, error) {
	metas, assign, err := metareport.Derive(e.Catalog, e.Reports.All())
	if err != nil {
		return nil, err
	}
	for _, m := range metas {
		m.Approved = true
	}
	e.mu.Lock()
	e.metas = metas
	e.assign = assign
	scopes := assignToScopes(assign)
	e.mu.Unlock()
	e.enforcer.SetExtraScopes(scopes)
	for _, m := range metas {
		_, _ = e.Audit.AppendChecked(context.Background(), audit.Event{Kind: "metareport", Object: m.ID, Detail: m.Query})
	}
	return metas, nil
}

// MetaReports returns the approved meta-report set.
func (e *Engine) MetaReports() []*metareport.MetaReport {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]*metareport.MetaReport(nil), e.metas...)
}

// Meta returns one meta-report by id.
func (e *Engine) Meta(id string) (*metareport.MetaReport, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, m := range e.metas {
		if m.ID == id {
			return m, true
		}
	}
	return nil, false
}

// Assignment returns the id of the meta-report a report is assigned to
// ("" when unassigned).
func (e *Engine) Assignment(reportID string) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.assign[reportID]
}

// SetAssignment pins a report to a meta-report, overriding the derived
// assignment (used by evolution harnesses replaying historic decisions).
func (e *Engine) SetAssignment(reportID, metaID string) {
	e.mu.Lock()
	e.assign[reportID] = metaID
	scopes := assignToScopes(e.assign)
	e.mu.Unlock()
	e.enforcer.SetExtraScopes(scopes)
}

// Assign2Scopes converts the report->meta assignment into the enforcer's
// extra-scope map.
func (e *Engine) Assign2Scopes() map[string][]string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return assignToScopes(e.assign)
}

func assignToScopes(assign map[string]string) map[string][]string {
	out := map[string][]string{}
	for rid, mid := range assign {
		out[rid] = append(out[rid], mid)
	}
	return out
}

// CheckReportCompliance statically checks a report (by id) for the given
// consumer: derivability from an approved meta-report (when metas exist)
// and PLA compliance of the definition. The unknown-report case wraps
// report.ErrUnknownReport.
func (e *Engine) CheckReportCompliance(reportID string, c report.Consumer) ([]enforce.Decision, error) {
	return e.CheckReportComplianceContext(context.Background(), reportID, c)
}

// CheckReportComplianceContext is CheckReportCompliance honouring ctx.
func (e *Engine) CheckReportComplianceContext(ctx context.Context, reportID string, c report.Consumer) ([]enforce.Decision, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := e.Obs()
	_, span := m.StartSpan(ctx, "check")
	span.Set("report", reportID)
	span.Set("role", c.Role)
	defer span.End()
	m.Counter("check.total").Inc()
	d, ok := e.Reports.Get(reportID)
	if !ok {
		return nil, fmt.Errorf("core: %w %q", report.ErrUnknownReport, reportID)
	}
	var out []enforce.Decision
	metas := e.MetaReports()
	if len(metas) > 0 {
		covering, cont, err := metareport.CoveringMeta(e.Catalog, d, metas)
		if err != nil {
			return nil, err
		}
		if covering == nil {
			out = append(out, enforce.Decision{
				Outcome: enforce.Block, Rule: "meta-derivability", Subject: d.ID,
				Detail: strings.Join(cont.Reasons, "; "),
			})
		} else {
			e.mu.Lock()
			if e.assign[d.ID] == "" {
				e.assign[d.ID] = covering.ID
				scopes := assignToScopes(e.assign)
				e.mu.Unlock()
				e.enforcer.SetExtraScopes(scopes)
			} else {
				e.mu.Unlock()
			}
		}
	}
	static, err := e.enforcer.StaticCheck(d, c.Role, c.Purpose)
	if err != nil {
		return nil, err
	}
	out = append(out, static...)
	if len(out) > 0 {
		m.Counter("check.noncompliant").Inc()
		span.Set("decision", "noncompliant")
	} else {
		span.Set("decision", "compliant")
	}
	return out, nil
}

// Render renders a report with full enforcement for the consumer,
// recording the render and every decision in the audit log.
func (e *Engine) Render(reportID string, c report.Consumer) (*enforce.Enforced, error) {
	return e.RenderContext(context.Background(), reportID, c)
}

// RenderContext is Render honouring ctx during row enforcement. Safe to
// call from many goroutines at once; repeated renders of the same
// (report, role, purpose) are served from the decision cache. The
// unknown-report case wraps report.ErrUnknownReport.
func (e *Engine) RenderContext(ctx context.Context, reportID string, c report.Consumer) (*enforce.Enforced, error) {
	m := e.Obs()
	ctx, span := m.StartSpan(ctx, "render")
	span.Set("report", reportID)
	span.Set("role", c.Role)
	span.Set("purpose", c.Purpose)
	defer span.End()
	m.Counter("render.total").Inc()

	d, ok := e.Reports.Get(reportID)
	if !ok {
		m.Counter("render.errors").Inc()
		span.Set("decision", "error")
		return nil, fmt.Errorf("core: %w %q", report.ErrUnknownReport, reportID)
	}
	enf, err := e.enforcer.RenderContext(ctx, d, c)
	if err != nil {
		m.Counter("render.errors").Inc()
		span.Set("decision", "error")
		return nil, err
	}
	e.Graph.AddStep("render", enf.Inputs, d.ID, "consumer "+c.Name, 0, enf.Table.NumRows())
	// The span records the verdict and — for blocks — the deciding rule
	// and PLA, so the span stream, the metrics and the audit trail all
	// agree on one correlation id per render.
	span.Set("decision", "allow")
	if blocked := enforce.Blocked(enf.Decisions); len(blocked) > 0 {
		m.Counter("render.blocked").Inc()
		span.Set("decision", "block")
		for _, dec := range blocked {
			m.Counter("enforce.block." + dec.Rule).Inc()
			span.Set("rule", dec.Rule)
			if len(dec.PLAs) > 0 {
				span.Set("pla", strings.Join(dec.PLAs, ","))
			}
		}
	}
	m.Counter("render.rows").Add(uint64(enf.Table.NumRows()))
	m.Counter("render.masked_cells").Add(uint64(enf.MaskedCells))
	m.Counter("render.suppressed_rows").Add(uint64(enf.SuppressedRows))
	// The render and its decisions must reach the audit trail; under the
	// fail-closed policy an un-auditable render is not delivered (§2 iv:
	// no data release without a monitorable trace).
	var sinkErr error
	if _, err := e.Audit.AppendChecked(ctx, audit.Event{Kind: "render", Actor: c.Name, Object: reportID,
		Detail: fmt.Sprintf("role=%s purpose=%s rows=%d masked=%d suppressed=%d",
			c.Role, c.Purpose, enf.Table.NumRows(), enf.MaskedCells, enf.SuppressedRows),
		Trace: span.ID()}); err != nil {
		sinkErr = err
	}
	for _, dec := range enf.Decisions {
		if _, err := e.Audit.DecisionTracedChecked(ctx, c.Name, reportID, span.ID(), dec); err != nil && sinkErr == nil {
			sinkErr = err
		}
	}
	if sinkErr != nil && e.cfg.FailClosed {
		m.Counter("render.audit_blocked").Inc()
		span.Set("decision", "audit-blocked")
		return nil, fmt.Errorf("core: render %q blocked fail-closed: %w", reportID, sinkErr)
	}
	return enf, nil
}

// ComplianceSuite generates the PLA-derived test suite for one report and
// consumer (§6: policies testable before operation).
func (e *Engine) ComplianceSuite(reportID string, c report.Consumer) ([]metareport.ComplianceTest, error) {
	d, ok := e.Reports.Get(reportID)
	if !ok {
		return nil, fmt.Errorf("core: %w %q", report.ErrUnknownReport, reportID)
	}
	var scope string
	if mid := e.Assignment(reportID); mid != "" {
		scope = mid
	}
	return metareport.GenerateTests(e.Policies, e.Catalog, d, c, scopeList(scope))
}

func scopeList(scope string) []string {
	if scope == "" {
		return nil
	}
	return []string{scope}
}

// Auditor returns the dispute-resolution auditor over this engine's
// state.
func (e *Engine) Auditor() *audit.Auditor {
	return &audit.Auditor{Registry: e.Policies, Catalog: e.Catalog, Graph: e.Graph}
}

// SourceEnforcer returns the Fig. 2a release filter over this engine's
// policies and metadata.
func (e *Engine) SourceEnforcer() *enforce.SourceEnforcer {
	return &enforce.SourceEnforcer{Registry: e.Policies, Metadata: e.Metadata, Metrics: e.cfg.Metrics, Faults: e.cfg.Faults}
}

// QueryRewriter returns the VPD-style rewriter over this engine's
// policies and catalog.
func (e *Engine) QueryRewriter() *enforce.QueryRewriter {
	return enforce.NewQueryRewriter(e.Policies, e.Catalog)
}

// Enforcer exposes the report enforcer (for advanced callers and the
// experiment harness).
func (e *Engine) Enforcer() *enforce.ReportEnforcer { return e.enforcer }

// Table is a convenience accessor for any registered relation.
func (e *Engine) Table(name string) (*relation.Table, bool) { return e.Catalog.Table(name) }
