package enforce

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plabi/internal/fault"
	"plabi/internal/obs"
	"plabi/internal/policy"
	"plabi/internal/provenance"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/sql"
)

// ReportEnforcer enforces PLAs on delivered reports (§5, Fig. 4): static
// compliance checking of report definitions, and runtime enforcement on
// rendered results — attribute access per role/purpose, intensional
// conditions resolved through provenance against the supporting source
// rows (the paper's HIV example), aggregation thresholds counted on
// lineage support, and row filters.
//
// The enforcer is safe for concurrent use. Policy-independent work is
// cached per (report, role, purpose) in a sharded plan cache validated
// against the policy-registry, catalog and scope generations, so
// repeated renders skip parsing, profiling and PLA composition entirely;
// row-level enforcement fans out over a bounded worker pool.
type ReportEnforcer struct {
	Registry *policy.Registry
	Catalog  *sql.Catalog

	// mu guards the scope map below; scopeGen is bumped on every scope
	// change so cached plans built under the previous scopes stop
	// validating.
	mu          sync.RWMutex
	extraScopes map[string][]string
	scopeGen    atomic.Uint64

	cache   *planCache
	workers int
	metrics *obs.Metrics
	faults  *fault.Injector

	// programGen counts residual programs compiled by this enforcer; it
	// bumps on every plan build, so hot reloads and policy changes are
	// observable as recompilations rather than silent evictions.
	programGen atomic.Uint64
}

// Config is a report enforcer's fixed configuration. The zero value is
// the default: a default-sized plan cache, one render worker per CPU, no
// instrumentation and no fault injection.
type Config struct {
	// CacheSize bounds the plan cache at roughly this many entries (0
	// selects the default).
	CacheSize int
	// Workers bounds the render worker pool (0: one per CPU).
	Workers int
	// Metrics receives query execution and row-enforcement timings and
	// intervention counters (nil: none recorded).
	Metrics *obs.Metrics
	// Faults is consulted at the render.worker site (nil: no injection).
	Faults *fault.Injector
}

// NewReportEnforcer builds an enforcer consulting every level.
func NewReportEnforcer(reg *policy.Registry, cat *sql.Catalog, cfg Config) *ReportEnforcer {
	return &ReportEnforcer{
		Registry: reg, Catalog: cat,
		extraScopes: map[string][]string{},
		cache:       newPlanCache(cfg.CacheSize),
		workers:     cfg.Workers,
		metrics:     cfg.Metrics,
		faults:      cfg.Faults,
	}
}

// SetExtraScopes replaces the report-id -> extra PLA scope map (e.g. the
// meta-reports each report derives from) and invalidates cached plans.
func (e *ReportEnforcer) SetExtraScopes(scopes map[string][]string) {
	cp := make(map[string][]string, len(scopes))
	for k, v := range scopes {
		cp[k] = append([]string(nil), v...)
	}
	e.mu.Lock()
	e.extraScopes = cp
	e.mu.Unlock()
	e.scopeGen.Add(1)
}

// CacheStats snapshots the plan-cache counters.
func (e *ReportEnforcer) CacheStats() CacheStats {
	return e.cache.stats()
}

// ProgramGeneration returns the number of residual programs this
// enforcer has compiled. Every plan build — first render of a triple,
// policy change, catalog load, meta-report re-derivation, precompile
// after a hot reload — bumps it, so "reload recompiles" is testable.
func (e *ReportEnforcer) ProgramGeneration() uint64 { return e.programGen.Load() }

// Precompile builds and caches the program for one (def, role, purpose)
// triple without rendering.
func (e *ReportEnforcer) Precompile(def *report.Definition, role, purpose string) error {
	_, _, err := e.ProgramFor(def, role, purpose)
	return err
}

func (e *ReportEnforcer) scopesFor(reportID string) []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]string(nil), e.extraScopes[reportID]...)
}

// Enforced is a rendered report after enforcement.
type Enforced struct {
	Def   *report.Definition
	Table *relation.Table
	// Decisions lists every non-permit decision taken.
	Decisions []Decision
	// MaskedCells / SuppressedRows count the runtime interventions.
	MaskedCells    int
	SuppressedRows int
	// CacheHit reports whether the enforcement plan came from the
	// decision cache rather than being built for this render.
	CacheHit bool
	// Inputs names the relations of the report's FROM clause, in order.
	// The slice belongs to the cached plan: read-only.
	Inputs []string
}

// CompositeFor assembles the PLAs governing a report: source-level PLAs of
// every base table it reads, warehouse-level PLAs of those tables,
// meta-report PLAs of its registered scopes, and report-level PLAs of the
// report id itself.
func (e *ReportEnforcer) CompositeFor(def *report.Definition) (*policy.Composite, *sql.Profile, error) {
	return e.compositeAt(e.Catalog.Snapshot(), def)
}

func (e *ReportEnforcer) compositeAt(snap *sql.Snapshot, def *report.Definition) (*policy.Composite, *sql.Profile, error) {
	prof, err := sql.ProfileSQL(snap, def.Query)
	if err != nil {
		return nil, nil, fmt.Errorf("enforce: profile %s: %w", def.ID, err)
	}
	var plas []*policy.PLA
	seen := map[string]bool{}
	add := func(comp *policy.Composite) {
		for _, p := range comp.PLAs {
			if !seen[p.ID] {
				seen[p.ID] = true
				plas = append(plas, p)
			}
		}
	}
	for _, lvl := range policy.Levels() {
		switch lvl {
		case policy.LevelSource:
			add(e.Registry.ForScopes(lvl, prof.BaseTables))
		case policy.LevelWarehouse:
			// Warehouse-level PLAs may be scoped either to the base
			// tables or to the warehouse relations the query names in
			// its FROM clause (e.g. the wide staging table).
			add(e.Registry.ForScopes(lvl, prof.BaseTables))
			if sel, perr := def.Parse(); perr == nil {
				add(e.Registry.ForScopes(lvl, fromNames(sel)))
			}
		case policy.LevelMetaReport:
			add(e.Registry.ForScopes(lvl, e.scopesFor(def.ID)))
		case policy.LevelReport:
			add(e.Registry.ForScope(lvl, def.ID))
		}
	}
	return policy.Compose(plas...), prof, nil
}

// ProgramFor returns the program for (def, role, purpose) from the plan
// cache, building and caching it on miss; the boolean reports a cache
// hit. A program is valid only at the exact (definition version, policy
// generation, catalog generation, scope generation) it was built at, so
// AddPLAs, catalog loads and meta-report re-derivation invalidate
// implicitly. The program is shared: read-only.
func (e *ReportEnforcer) ProgramFor(def *report.Definition, role, purpose string) (*Program, bool, error) {
	return e.programAt(e.Catalog.Snapshot(), def, role, purpose)
}

// programAt is ProgramFor at the generation of snap, built over it.
func (e *ReportEnforcer) programAt(snap *sql.Snapshot, def *report.Definition, role, purpose string) (*Program, bool, error) {
	key := planKey{report: def.ID, role: strings.ToLower(role), purpose: strings.ToLower(purpose)}
	at := Generations{
		Version: def.Version,
		Policy:  e.Registry.Generation(),
		Catalog: snap.Generation(),
		Scope:   e.scopeGen.Load(),
	}
	if p, ok := e.cache.get(key, at); ok {
		return p, true, nil
	}
	p, err := e.buildProgram(snap, def, role, purpose, at)
	if err != nil {
		return nil, false, err
	}
	e.cache.put(key, p)
	return p, false, nil
}

// buildProgram does every piece of enforcement work that does not depend
// on the data: parse, profile, compose the governing PLAs, take the
// query's header from the executor, classify its columns, run the static
// check, merge thresholds, pre-bind row filters and prune dead rules.
func (e *ReportEnforcer) buildProgram(snap *sql.Snapshot, def *report.Definition, role, purpose string, at Generations) (*Program, error) {
	comp, prof, err := e.compositeAt(snap, def)
	if err != nil {
		return nil, err
	}
	sel, err := def.Parse()
	if err != nil {
		return nil, err
	}
	// The profile ran the executor over the shells for its origins; its
	// header is the one Catalog.Header would return, and this program's own.
	header := prof.Header
	header.Name = def.ID
	p := &Program{
		Report: def.ID, Role: strings.ToLower(role), Purpose: strings.ToLower(purpose), At: at,
		Aggregated: prof.Aggregated,
		FilterPLAs: comp.FilterPLAs(),
		Columns:    make([]ColumnPlan, header.Schema.Len()),
		sel:        sel, comp: comp, header: header, from: fromNames(sel),
	}
	for _, pla := range comp.PLAs {
		p.PLAs = append(p.PLAs, pla.ID)
		p.TotalRules += len(pla.Access)
	}

	// The one column classification, by index over the executed header: row
	// enforcement runs it, and its mask decisions are the static check's.
	aggCols := aggregateColumns(sel)
	var masks []Decision
	for ci, col := range header.Schema.Columns {
		name := strings.ToLower(col.Name)
		p.Columns[ci] = e.classifyColumn(snap, p, name, aggCols[name], header.ColumnOrigin(ci), role, purpose)
		if p.Columns[ci].Masked {
			masks = append(masks, p.Columns[ci].Decision)
		}
	}
	p.Static = e.staticDecisions(comp, prof, masks)

	// A non-aggregated report under a threshold is refused statically, so
	// thresholds only survive into programs that aggregate.
	if p.Aggregated {
		p.Thresholds = mergeThresholds(comp)
	}
	for _, f := range comp.Filters() {
		p.Filters = append(p.Filters, BindPredicate(f))
	}
	p.Pruned = pruneDeadRules(comp)
	p.LiveRules = p.TotalRules - len(p.Pruned)

	e.programGen.Add(1)
	m := e.metrics
	m.Counter("compile.programs").Inc()
	m.Counter("compile.pruned_rules").Add(uint64(len(p.Pruned)))
	return p, nil
}

// StaticCheck verifies a report definition against the PLAs without
// executing it: forbidden joins, denied attributes, and missing
// aggregation for threshold-protected data are reported. An empty result
// means the definition is statically compliant — the paper's "testable
// before put in operation" property (§6). Results are served from the
// plan cache when valid.
func (e *ReportEnforcer) StaticCheck(def *report.Definition, role, purpose string) ([]Decision, error) {
	p, _, err := e.ProgramFor(def, role, purpose)
	if err != nil {
		return nil, err
	}
	return append([]Decision(nil), p.Static...), nil
}

// staticDecisions is the static-check body over an already-built
// composite and profile: join permissions, then the column
// classification's mask decisions, then aggregation thresholds.
func (e *ReportEnforcer) staticDecisions(comp *policy.Composite, prof *sql.Profile, masks []Decision) []Decision {
	var out []Decision

	// Join permissions.
	for _, jp := range prof.JoinPairs {
		if d := cmp.Or(joinRefusal(e.Registry, jp.A, jp.B), joinRefusal(e.Registry, jp.B, jp.A)); d != nil {
			out = append(out, *d)
		}
	}

	// Attribute access on non-aggregated output columns.
	out = append(out, masks...)

	// Aggregation thresholds: a non-aggregated report exposing data under
	// a threshold rule violates it statically.
	if !prof.Aggregated {
		for _, rule := range comp.AggregationRules() {
			subject := rule.By
			if subject == "" {
				subject = "rows"
			}
			out = append(out, Decision{Outcome: Block, Rule: "aggregation-threshold",
				Subject: subject,
				Detail:  fmt.Sprintf("report is not aggregated but a min-%d threshold applies", rule.MinCount),
				PLAs:    comp.AggregationPLAs()})
		}
	}
	return out
}

// attrRefs builds the scoped attribute references for one output column:
// the output name (report vocabulary) plus every origin (base table +
// column), so source-level PLAs only speak about their own columns.
func attrRefs(name string, origins relation.ColRefSet) []policy.AttrRef {
	refs := []policy.AttrRef{{Name: strings.ToLower(name)}}
	for _, o := range origins {
		refs = append(refs, policy.AttrRef{Name: o.Column, Table: o.Table})
	}
	return refs
}

// columnRefs extends attrRefs with warehouse-relation references: for
// every relation the query names in FROM that carries a candidate column,
// a (column, relation) ref is added so warehouse-level PLAs scoped to
// e.g. the wide staging table can govern it.
func columnRefs(snap *sql.Snapshot, fromRels []string, name string, origins relation.ColRefSet) []policy.AttrRef {
	refs := attrRefs(name, origins)
	candidates := map[string]bool{strings.ToLower(name): true}
	for _, o := range origins {
		candidates[o.Column] = true
	}
	for _, rel := range fromRels {
		t, ok := snap.Table(rel)
		if !ok {
			continue
		}
		for c := range candidates {
			if t.Schema.HasColumn(c) {
				refs = append(refs, policy.AttrRef{Name: c, Table: rel})
			}
		}
	}
	return refs
}

// decideColumn returns the masking decision for one output column (nil
// when access is permitted) and the intensional conditions attached to
// the matching allow rules.
func (e *ReportEnforcer) decideColumn(comp *policy.Composite, refs []policy.AttrRef, name, role, purpose string) (*Decision, []relation.Expr) {
	d := comp.DecideAttributeRefs(refs, role, purpose)
	if d.Effect == policy.Deny {
		if len(d.Matched) > 0 {
			return &Decision{Outcome: Mask, Rule: "access-deny", Subject: name,
				Detail: fmt.Sprintf("attribute %q denied to role %q", name, role),
				PLAs:   d.PLAs}, nil
		}
		return &Decision{Outcome: Mask, Rule: "access-default-deny", Subject: name,
			Detail: fmt.Sprintf("no PLA allows attribute %q for role %q (closed world)", name, role)}, nil
	}
	seen := map[string]bool{}
	var conds []relation.Expr
	for _, c := range d.Conditions {
		if key := c.String(); !seen[key] {
			seen[key] = true
			conds = append(conds, c)
		}
	}
	return nil, conds
}

// classifyColumn is the one column classification: an aggregate column
// is governed by thresholds; any other is decided for the consumer from
// its scoped references — masked, or released under pre-bound intensional
// conditions.
func (e *ReportEnforcer) classifyColumn(snap *sql.Snapshot, p *Program, name string, aggregate bool, origins relation.ColRefSet, role, purpose string) ColumnPlan {
	if aggregate {
		return ColumnPlan{Name: name, Aggregate: true}
	}
	d, conds := e.decideColumn(p.comp, columnRefs(snap, p.from, name, origins), name, role, purpose)
	if d != nil {
		return ColumnPlan{Name: name, Masked: true, Decision: *d}
	}
	cp := ColumnPlan{Name: name}
	for _, c := range conds {
		cp.Conditions = append(cp.Conditions, BindPredicate(c))
	}
	return cp
}

// Render executes the report and enforces the PLAs on the result for the
// given consumer.
func (e *ReportEnforcer) Render(def *report.Definition, consumer report.Consumer) (*Enforced, error) {
	return e.RenderContext(context.Background(), def, consumer)
}

// minParallelRows is the row count below which chunked enforcement is not
// worth the goroutine overhead.
const minParallelRows = 256

// cancelCheckRows is how often row-enforcement loops poll for
// cancellation, so a cancelled render stops mid-chunk rather than at the
// next chunk boundary.
const cancelCheckRows = 64

// RenderContext executes the report and enforces the PLAs on the result,
// honouring ctx cancellation between row chunks. Safe to call from many
// goroutines at once.
func (e *ReportEnforcer) RenderContext(ctx context.Context, def *report.Definition, consumer report.Consumer) (*Enforced, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	snap := e.Catalog.Snapshot()
	plan, hit, err := e.programAt(snap, def, consumer.Role, consumer.Purpose)
	if err != nil {
		return nil, err
	}
	// A refusal is a constant of the plan: it is answered before the query
	// runs — the plan's header over no rows, the blocking decisions — so it
	// reads no data and holds whatever state the data is in.
	if blocked := Blocked(plan.Static); len(blocked) > 0 {
		e.metrics.Counter("enforce.static_blocks").Inc()
		return &Enforced{Def: def, Table: plan.header.Shell(), Decisions: blocked, CacheHit: hit, Inputs: plan.from}, nil
	}
	return e.render(ctx, snap, def, plan, hit)
}

// afterExec, when set by a test, runs between a render's query and its
// row enforcement.
var afterExec func()

// render is the render body of a report that is not refused: execute the
// query over snap and run the plan's enforcement, provenance read from
// snap too, over the result in one pass. The
// output is built once — the executed header as a shell, then the single
// copy enforceRow makes of each row it keeps, its lineage forwarded as the
// result holds it (a grouped result's stays packed).
func (e *ReportEnforcer) render(ctx context.Context, snap *sql.Snapshot, def *report.Definition, plan *Program, hit bool) (*Enforced, error) {
	m := e.metrics
	execStart := time.Now()
	raw, err := snap.Exec(plan.sel)
	if err != nil {
		return nil, fmt.Errorf("report %s: %w", def.ID, err)
	}
	m.Histogram("enforce.exec.duration").Observe(time.Since(execStart))
	if afterExec != nil {
		afterExec()
	}
	// The result reaches the consumer as rows: its edge form, built from
	// the (small, executed) result, never from a stored table.
	if raw, err = raw.Materialize(); err != nil {
		return nil, fmt.Errorf("report %s: %w", def.ID, err)
	}
	raw.Name = def.ID
	out := raw.Shell()
	enf := &Enforced{Def: def, Table: out, CacheHit: hit, Inputs: plan.from}

	// The column plans were classified over the plan's header: a result of
	// any other shape — a drift the generations failed to capture — is not
	// enforced by guesswork.
	if !raw.Schema.Equal(plan.header.Schema) {
		return nil, fmt.Errorf("report %s: executed schema %s is not the plan's %s", def.ID, raw.Schema, plan.header.Schema)
	}
	// placeholder marks the columns this render puts a MaskValue in: the
	// denied ones up front, a conditionally released one from the worker
	// that withholds its first cell.
	placeholder := make([]atomic.Bool, len(plan.Columns))
	for ci, c := range plan.Columns {
		if c.Masked {
			enf.Decisions = append(enf.Decisions, c.Decision)
			placeholder[ci].Store(true)
		}
	}

	rowsStart := time.Now()
	results, err := e.enforceRows(ctx, provenance.Over(snap), plan, raw, placeholder)
	if err != nil {
		return nil, err
	}
	m.Histogram("enforce.rows.duration").Observe(time.Since(rowsStart))
	m.Counter("enforce.rows.in").Add(uint64(len(results)))
	for ri := range results {
		r := &results[ri]
		enf.Decisions = append(enf.Decisions, r.decisions...)
		enf.MaskedCells += r.masked
		if !r.keep {
			enf.SuppressedRows++
			continue
		}
		out.AppendDerived(r.row, raw, ri)
	}
	// A column holding a placeholder holds strings now.
	for ci := range placeholder {
		if placeholder[ci].Load() {
			out.Schema.Columns[ci].Type = relation.TString
		}
	}
	m.Counter("enforce.cells.masked").Add(uint64(enf.MaskedCells))
	m.Counter("enforce.rows.suppressed").Add(uint64(enf.SuppressedRows))
	return enf, nil
}

// rowResult is the per-row outcome of runtime enforcement, collected
// positionally so chunked execution stays deterministic.
type rowResult struct {
	keep      bool
	row       relation.Row
	decisions []Decision
	masked    int
}

// enforceRows applies thresholds, row filters and cell-level enforcement
// to every row of the executed result, fanning out over the worker pool
// for large results. Results are positional, so the merged output is
// identical to a sequential pass.
func (e *ReportEnforcer) enforceRows(ctx context.Context, tr *provenance.Tracer, plan *Program, raw *relation.Table, placeholder []atomic.Bool) ([]rowResult, error) {
	n := len(raw.Rows)
	results := make([]rowResult, n)
	trace := needsTrace(plan)
	// chunk enforces rows [start, end) under panic isolation: a panicking
	// worker (organic or injected) fails this render with a typed
	// *fault.InternalError instead of killing the process, and the pool
	// drains cleanly through wg.Wait.
	chunk := func(start, end int) error {
		return fault.Safely(fault.SiteRenderWorker, e.metrics, func() error {
			if err := e.faults.Hit(ctx, fault.SiteRenderWorker); err != nil {
				return err
			}
			for ri := start; ri < end; ri++ {
				if ri%cancelCheckRows == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				if err := enforceRow(tr, plan, raw, ri, trace, placeholder, &results[ri]); err != nil {
					return err
				}
			}
			return nil
		})
	}
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || n < minParallelRows {
		if err := chunk(0, n); err != nil {
			return nil, err
		}
		return results, nil
	}

	size := (n + workers*4 - 1) / (workers * 4)
	if size < 64 {
		size = 64
	}
	var (
		cursor   atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				start := int(cursor.Add(int64(size))) - size
				if start >= n {
					return
				}
				err := ctx.Err()
				if err == nil {
					err = chunk(start, min(start+size, n))
				}
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// needsTrace reports whether row enforcement consults provenance at all:
// aggregation thresholds, row filters and intensional column conditions
// are the only consumers of a RowTrace. Reports with none of them (plain
// attribute masking, or fully permitted reports) skip the per-row trace —
// the dominant cost on wide lineage — with byte-identical results, since
// every branch reading the trace is unreachable.
func needsTrace(plan *Program) bool {
	if len(plan.Thresholds) > 0 {
		return true
	}
	if !plan.Aggregated && len(plan.Filters) > 0 {
		return true
	}
	for ci := range plan.Columns {
		if len(plan.Columns[ci].Conditions) > 0 {
			return true
		}
	}
	return false
}

// enforceRow enforces one row of the executed result: aggregation
// thresholds counted on lineage support, row filters over supporting
// source rows, then cell-level masking (denied columns and intensional
// conditions — the §5 HIV example) on the one copy a kept row gets.
func enforceRow(tr *provenance.Tracer, plan *Program, raw *relation.Table, ri int, trace bool, placeholder []atomic.Bool, res *rowResult) error {
	var rt provenance.RowTrace
	if trace {
		var err error
		rt, err = tr.TraceRow(raw, ri)
		if err != nil {
			return err
		}
	}
	// Aggregation thresholds (baked into the program pre-sorted, so the
	// evidence order is deterministic without per-row sorting).
	for _, th := range plan.Thresholds {
		by, k := th.By, th.Min
		if support := tr.ThresholdSupport(rt, by); support < k {
			res.decisions = append(res.decisions, Decision{
				Outcome: SuppressGroup, Rule: "aggregation-threshold",
				Subject:  fmt.Sprintf("%s[%d]", raw.Name, ri),
				Detail:   fmt.Sprintf("support %d < min %d (by %q)", support, k, by),
				PLAs:     th.PLAs,
				Evidence: lineageEvidence(rt),
			})
			return nil
		}
	}
	// Row filters (non-aggregated reports): every supporting source row
	// must satisfy every filter.
	if !plan.Aggregated && len(plan.Filters) > 0 {
		ok, evidence, err := supportSatisfies(tr, rt, plan.Filters)
		if err != nil {
			return err
		}
		if !ok {
			res.decisions = append(res.decisions, Decision{
				Outcome: SuppressRow, Rule: "row-filter",
				Subject:  fmt.Sprintf("%s[%d]", raw.Name, ri),
				PLAs:     plan.FilterPLAs,
				Evidence: evidence,
			})
			return nil
		}
	}
	// Cell-level masking: denied columns, then intensional conditions
	// evaluated against the supporting source rows.
	row := raw.Rows[ri].Clone()
	for ci := range row {
		c := &plan.Columns[ci]
		if c.Masked {
			row[ci] = MaskValue
			res.masked++
			continue
		}
		if len(c.Conditions) == 0 {
			continue
		}
		ok, evidence, err := supportSatisfies(tr, rt, c.Conditions)
		if err != nil {
			return err
		}
		if !ok {
			row[ci] = MaskValue
			res.masked++
			placeholder[ci].Store(true)
			res.decisions = append(res.decisions, Decision{
				Outcome: Mask, Rule: "condition",
				Subject:  fmt.Sprintf("%s[%d].%s", raw.Name, ri, raw.Schema.Columns[ci].Name),
				Evidence: evidence,
			})
		}
	}
	res.keep = true
	res.row = row
	return nil
}

// supportSatisfies evaluates pre-bound conditions on every source row
// supporting an output row. A condition only applies to base rows whose
// table carries all referenced columns; rows failing any applicable
// condition make the whole support fail, and their provenance is
// returned as evidence. A supporting cell that cannot be read decides
// nothing — the error fails the render rather than letting the row pass.
// The predicates arrive bound (columns resolved, expression compiled) from
// the program, so per-row evaluation performs no name lookups.
func supportSatisfies(tr *provenance.Tracer, rt provenance.RowTrace, conds []BoundPredicate) (bool, []string, error) {
	for _, cond := range conds {
		var evidence []string
		var readErr error
		rt.Refs(func(ref relation.RowRef) bool {
			vals := make(relation.Row, len(cond.Cols))
			for i, col := range cond.Cols {
				v, ok, err := tr.BaseValue(ref, col)
				if err != nil {
					readErr = err
					return false
				}
				if !ok {
					return true // the condition does not apply to this row
				}
				vals[i] = v
			}
			if ok, err := cond.Pred.Selected(vals); err != nil || !ok {
				evidence = []string{fmt.Sprintf("%s fails %s", ref, cond.Expr)}
				return false
			}
			return true
		})
		if readErr != nil {
			return false, nil, readErr
		}
		if evidence != nil {
			return false, evidence, nil
		}
	}
	return true, nil, nil
}

// lineageEvidence names the first eight supporting rows, and how many more
// there are.
func lineageEvidence(rt provenance.RowTrace) []string {
	n := rt.Len()
	out := make([]string, 0, min(n, 9))
	rt.Refs(func(ref relation.RowRef) bool {
		if len(out) == 8 {
			out = append(out, fmt.Sprintf("... %d more", n-8))
			return false
		}
		out = append(out, ref.String())
		return true
	})
	return out
}

// fromNames returns the relation names a SELECT names in its FROM clause.
func fromNames(sel *sql.SelectStmt) []string {
	out := []string{strings.ToLower(sel.From.Name)}
	for _, j := range sel.Joins {
		out = append(out, strings.ToLower(j.Table.Name))
	}
	return out
}

// aggregateColumns returns the lowercase output names of aggregate select
// items.
func aggregateColumns(sel *sql.SelectStmt) map[string]bool {
	out := map[string]bool{}
	for _, it := range sel.Items {
		if it.Agg != nil {
			out[strings.ToLower(it.OutName())] = true
		}
	}
	return out
}
