package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"plabi/internal/audit"
	"plabi/internal/core"
	"plabi/internal/enforce"
	"plabi/internal/etl"
	"plabi/internal/policy"
	"plabi/internal/provenance"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/sql"
	"plabi/internal/workload"
)

// combo is one (report, consumer) pair of a request mix.
type combo struct {
	report   string
	consumer report.Consumer
}

// The request mix of the serving workloads: the four renders and two
// checks cmd/plabid-load has always driven. patient-activity is
// statically blocked for analysts, so the refusal path is part of the
// mix. primary is the flagship report every non-serving workload renders.
var (
	renderMix = []combo{
		{"drug-consumption", report.Consumer{Name: "bench", Role: "analyst", Purpose: "quality"}},
		{"age-profile", report.Consumer{Name: "bench", Role: "analyst", Purpose: "quality"}},
		{"drug-spend", report.Consumer{Name: "bench", Role: "analyst", Purpose: "reimbursement"}},
		{"patient-activity", report.Consumer{Name: "bench", Role: "analyst", Purpose: "reimbursement"}},
	}
	checkMix = []combo{
		{"drug-consumption", report.Consumer{Name: "bench", Role: "analyst", Purpose: "quality"}},
		{"disease-by-year", report.Consumer{Name: "bench", Role: "analyst", Purpose: "quality"}},
	}
	primary      = renderMix[0]
	blockedCombo = renderMix[3]
)

// probeEvent is the audit event the harness appends where it stands in
// for the engine's own log: the shape and size of a render's event.
var probeEvent = audit.Event{Kind: "render", Actor: "bench", Object: "drug-consumption",
	Detail: "role=analyst purpose=quality rows=25 masked=0 suppressed=0", Trace: "bench"}

// scenarioConfig sizes the healthcare scenario exactly as
// plabi.OpenHealthcare (and therefore a plabid tenant) does, so an
// engine built here from a tenant's seed is that tenant's twin.
func scenarioConfig(seed int64, prescriptions int) workload.Config {
	cfg := workload.DefaultConfig(seed)
	cfg.Prescriptions = prescriptions
	cfg.Patients = prescriptions / 10
	return cfg
}

// built is an engine with what the harness needs to know about how it
// came to be.
type built struct {
	eng        *core.Engine
	ds         *workload.Dataset
	buildTime  time.Duration // core.BuildHealthcareEngineWith
	precompile time.Duration // Engine.Precompile on the fresh engine
}

// buildEngine builds the scenario engine with the product's defaults
// (configure may add what a deployment adds: an audit sink, a segment
// store), registers extra PLAs and precompiles, like a plabid tenant.
func buildEngine(seed int64, prescriptions int, extraPLAs string, configure func(*core.Engine)) (*built, error) {
	start := time.Now()
	e, ds, err := core.BuildHealthcareEngineWith(scenarioConfig(seed, prescriptions), configure)
	if err != nil {
		return nil, err
	}
	b := &built{eng: e, ds: ds, buildTime: time.Since(start)}
	if extraPLAs != "" {
		if err := e.AddPLAs(extraPLAs); err != nil {
			return nil, err
		}
	}
	start = time.Now()
	if _, err := e.Precompile(); err != nil {
		return nil, err
	}
	b.precompile = time.Since(start)
	return b, nil
}

// fileSink opens an append-only audit sink file the way plabid does (no
// fsync per event: the product's flush policy today).
func fileSink(dir, name string) (*os.File, error) {
	return os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// chain replays one render or check at every layer below the engine's
// public entry point, one span per layer. It is the part of the traced
// pass all workloads share; serving workloads put an api and a serve
// span above it.
type chain struct {
	rec *Recorder
	eng *core.Engine
	// log stands in for the engine's audit log in the audit span: it has
	// a file sink exactly when the engine's own log has one.
	log *audit.Log
	// events is how many audit events one render of each report appends.
	events map[string]int
	sels   map[string]*sql.SelectStmt
	errs   int
	// prewarm makes one untimed call before the timed ones. The serving
	// workloads replay on a twin of the engine that served the request;
	// without it the first span on the twin would pay for pulling the
	// twin's data into the CPU caches, which the served engine's spans,
	// timed right after the client's call, never pay.
	prewarm bool
	// cache0 is the engine's plan-cache counters when the chain was made.
	cache0 enforce.CacheStats
}

// newChain prepares the replay of the given requests on e, or returns
// nil without a recorder (an untraced pass replays nothing). It renders
// each request once to count the audit events one render appends, while
// nothing else is using the engine.
func newChain(rec *Recorder, e *core.Engine, sink *os.File, requests ...combo) *chain {
	if rec == nil {
		return nil
	}
	c := &chain{rec: rec, eng: e, log: audit.NewLog(), events: map[string]int{}, sels: map[string]*sql.SelectStmt{},
		cache0: e.CacheStats(), prewarm: sink != nil}
	if sink != nil {
		c.log.SetSink(sink)
	}
	for _, cb := range requests {
		before := e.Audit.Len()
		_, err := e.Render(cb.report, cb.consumer)
		c.note(err)
		c.events[cb.report] = e.Audit.Len() - before
	}
	return c
}

// failures is how many replayed calls returned an error.
func (c *chain) failures() int {
	if c == nil {
		return 0
	}
	return c.errs
}

// planHitRatio is plan-cache hits ÷ lookups on the chain's engine since
// the chain was made.
func (c *chain) planHitRatio() float64 {
	now := c.eng.CacheStats()
	hits := now.Hits - c.cache0.Hits
	lookups := hits + now.Misses - c.cache0.Misses
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

func (c *chain) sel(reportID string) *sql.SelectStmt {
	if s, ok := c.sels[reportID]; ok {
		return s
	}
	var s *sql.SelectStmt
	if def, ok := c.eng.Reports.Get(reportID); ok {
		s, _ = def.Parse()
	}
	c.sels[reportID] = s
	return s
}

func (c *chain) note(err error) {
	if err != nil {
		c.errs++
	}
}

// render replays a render of cb under parent: core, enforce, sql, the
// relational kernel, the provenance support count and the audit appends.
func (c *chain) render(cb combo, op, parent int) {
	ctx := context.Background()
	kind := "render:" + cb.report
	def, ok := c.eng.Reports.Get(cb.report)
	sel := c.sel(cb.report)
	if !ok || sel == nil {
		c.errs++
		return
	}
	if c.prewarm {
		_, err := c.eng.RenderContext(ctx, cb.report, cb.consumer)
		c.note(err)
	}
	coreIdx := c.rec.Time("core", kind, op, parent, func() {
		_, err := c.eng.RenderContext(ctx, cb.report, cb.consumer)
		c.note(err)
	})
	enfIdx := c.rec.Time("enforce", kind, op, coreIdx, func() {
		_, err := c.eng.Enforcer().RenderContext(ctx, def, cb.consumer)
		c.note(err)
	})
	var raw *relation.Table
	sqlIdx := c.rec.Time("sql", kind, op, enfIdx, func() {
		var err error
		raw, err = c.eng.Catalog.Exec(sel)
		c.note(err)
	})
	if k := groupKernel(c.eng, sel); k != nil {
		c.rec.Time("relation", kind, op, sqlIdx, func() { c.note(k()) })
	}
	if raw != nil {
		c.rec.Time("provenance", kind, op, enfIdx, func() { supportCount(c.eng.Tracer, raw) })
	}
	c.rec.Time("audit", kind, op, coreIdx, func() {
		for i := 0; i < c.events[cb.report]; i++ {
			_, err := c.log.AppendChecked(ctx, probeEvent)
			c.note(err)
		}
	})
}

// check replays a static compliance check under parent: core, enforce.
func (c *chain) check(cb combo, op, parent int) {
	kind := "check:" + cb.report
	def, ok := c.eng.Reports.Get(cb.report)
	if !ok {
		c.errs++
		return
	}
	coreIdx := c.rec.Time("core", kind, op, parent, func() {
		_, err := c.eng.CheckReportCompliance(cb.report, cb.consumer)
		c.note(err)
	})
	c.rec.Time("enforce", kind, op, coreIdx, func() {
		_, err := c.eng.Enforcer().StaticCheck(def, cb.consumer.Role, cb.consumer.Purpose)
		c.note(err)
	})
}

// groupKernel returns the relational kernel a grouped report spends its
// time in — relation.GroupBy over the FROM table with the statement's
// keys and aggregates — or nil for statements that are not a plain
// single-table GROUP BY over columns.
func groupKernel(e *core.Engine, sel *sql.SelectStmt) func() error {
	if len(sel.GroupBy) == 0 || len(sel.Joins) > 0 || sel.Where != nil {
		return nil
	}
	var keys []string
	for _, g := range sel.GroupBy {
		ce, ok := g.(*relation.ColExpr)
		if !ok {
			return nil
		}
		keys = append(keys, ce.Name)
	}
	var aggs []relation.AggSpec
	for _, it := range sel.Items {
		if it.Agg == nil {
			continue
		}
		spec := relation.AggSpec{Kind: it.Agg.Kind, As: it.OutName()}
		if it.Agg.Arg != nil {
			ce, ok := it.Agg.Arg.(*relation.ColExpr)
			if !ok {
				return nil
			}
			spec.Col = ce.Name
		}
		aggs = append(aggs, spec)
	}
	return func() error {
		t, ok := e.Catalog.Table(sel.From.Name)
		if !ok {
			return fmt.Errorf("bench: no table %q", sel.From.Name)
		}
		_, err := relation.GroupBy(t, keys, aggs)
		return err
	}
}

// joinKernel is the ETL's join-costs kernel on the engine's own staged
// tables: prescriptions ⋈ drugcost on drug.
func joinKernel(e *core.Engine) error {
	l, lok := e.Catalog.Table("prescriptions")
	r, rok := e.Catalog.Table("drugcost")
	if !lok || !rok {
		return fmt.Errorf("bench: staged join inputs missing")
	}
	_, err := relation.Join(relation.Rename(l, "l"), relation.Rename(r, "r"),
		relation.Eq(relation.ColRefExpr("l.drug"), relation.ColRefExpr("r.drug")), relation.InnerJoin)
	return err
}

// supportCount is what threshold enforcement asks of provenance for one
// render: the lineage of every raw output row and the number of distinct
// patients behind it.
func supportCount(tr *provenance.Tracer, raw *relation.Table) {
	for i := 0; i < raw.NumRows(); i++ {
		rt, err := tr.TraceRow(raw, i)
		if err != nil {
			return
		}
		tr.DistinctSupport(rt, "prescriptions", "patient")
	}
}

// counterDelta runs fn and returns how far each named engine counter
// moved.
func counterDelta(e *core.Engine, fn func(), names ...string) []float64 {
	before := e.MetricsSnapshot().Counters
	fn()
	after := e.MetricsSnapshot().Counters
	out := make([]float64, len(names))
	for i, n := range names {
		out[i] = float64(after[n] - before[n])
	}
	return out
}

// engineProbes measures the layers that can be timed from outside on
// any engine, whatever the workload: each value comes from calling the
// layer's public functions on the workload's own data.
func engineProbes(b *built, dir string, reps int) (map[string]float64, error) {
	e := b.eng
	out := map[string]float64{}
	def, ok := e.Reports.Get(primary.report)
	if !ok {
		return nil, fmt.Errorf("bench: report %q missing", primary.report)
	}
	sel, err := def.Parse()
	if err != nil {
		return nil, err
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	out["core.build_s"] = b.buildTime.Seconds()
	out["compile.precompile_ms"] = ms(b.precompile)
	out["core.check_p50_us"] = us(timeN(reps*10, func() {
		_, err := e.CheckReportCompliance(primary.report, primary.consumer)
		keep(err)
	}))
	out["enforce.static_check_us"] = us(timeN(reps*10, func() {
		_, err := e.Enforcer().StaticCheck(def, primary.consumer.Role, primary.consumer.Purpose)
		keep(err)
	}))
	out["compile.program_us"] = us(timeN(reps*4, func() {
		_, err := e.CompileReport(primary.report, primary.consumer)
		keep(err)
	}))
	out["policy.parse_us"] = us(timeN(reps*4, func() {
		_, err := policy.ParseFile(core.ScenarioPLAs)
		keep(err)
	}))
	out["policy.compose_us"] = us(timeN(reps*10, func() {
		_, _, err := e.Enforcer().CompositeFor(def)
		keep(err)
	}))
	var parse time.Duration
	for _, cb := range renderMix {
		d, _ := e.Reports.Get(cb.report)
		parse += timeN(reps*10, func() {
			_, err := sql.ParseSelect(d.Query)
			keep(err)
		})
	}
	out["sql.parse_us"] = us(parse / time.Duration(len(renderMix)))

	// Exact per-render counts of the flagship report.
	events := e.Audit.Len()
	d := counterDelta(e, func() {
		_, err := e.Render(primary.report, primary.consumer)
		keep(err)
	}, "enforce.rows.in", "enforce.rows.suppressed", "enforce.cells.masked")
	out["enforce.rows_in"], out["enforce.rows_suppressed"], out["enforce.cells_masked"] = d[0], d[1], d[2]
	out["audit.events_per_render"] = float64(e.Audit.Len() - events)

	if k := groupKernel(e, sel); k != nil {
		out["relation.groupby_ms"] = ms(timeN(reps, func() { keep(k()) }))
	}
	out["relation.join_ms"] = ms(timeN(reps, func() { keep(joinKernel(e)) }))
	if t, ok := e.Catalog.Table("rx_wide"); ok {
		out["etl.rows_out"] = float64(t.NumRows())
	}

	// Provenance on a scratch tracer, so the engine's own dictionaries
	// stay as the workload left them.
	rx, ok := e.Catalog.Table("prescriptions")
	raw, rerr := e.Catalog.Exec(sel)
	if !ok || rerr != nil || raw.NumRows() == 0 {
		return nil, fmt.Errorf("bench: provenance probe inputs missing: %v", rerr)
	}
	ins := etl.Delta{Source: "hospital", Table: "prescriptions"}
	for i := 0; i < deltaInsertRows; i++ {
		ins.Inserts = append(ins.Inserts, relation.Row{relation.Int(int64(-1 - i)), relation.Str("probe"),
			relation.Str("Dr. probe"), relation.Str("DX00"), relation.Str("flu"), relation.DateYMD(2008, 1, 1)})
	}
	var next *relation.Table
	out["etl.delta_apply_us"] = us(timeN(reps, func() {
		var err error
		next, _, err = ins.Apply(rx)
		keep(err)
	}))
	rt, err := e.Tracer.TraceRow(raw, 0)
	keep(err)
	var dict, refresh []time.Duration
	for i := 0; i < reps && next != nil; i++ {
		tr := provenance.NewTracer()
		tr.RegisterBase(rx)
		start := time.Now()
		tr.DistinctSupport(rt, "prescriptions", "patient")
		dict = append(dict, time.Since(start))
		start = time.Now()
		tr.RefreshBase(next, rx.NumRows())
		refresh = append(refresh, time.Since(start))
	}
	out["provenance.coldict_build_ms"] = ms(p50(dict))
	out["provenance.refresh_base_ms"] = ms(p50(refresh))

	// One audit append to a file sink, timed in batches because a single
	// append is shorter than the clock is precise.
	sink, err := fileSink(dir, "probe.audit.jsonl")
	if err != nil {
		return nil, err
	}
	defer sink.Close()
	log := audit.NewLog()
	log.SetSink(sink)
	const batch = 100
	out["audit.append_us"] = us(timeN(reps*4, func() {
		for i := 0; i < batch; i++ {
			_, err := log.AppendChecked(context.Background(), probeEvent)
			keep(err)
		}
	})) / batch

	snap := e.MetricsSnapshot().Counters
	out["compile.fold_hits"] = float64(snap["compile.fold.hits"])
	out["compile.fold_misses"] = float64(snap["compile.fold.misses"])
	out["compile.fold_invalidations"] = float64(snap["compile.fold.invalidations"])
	out["audit.events_total"] = float64(e.Audit.Len())
	return out, firstErr
}

// sharedLayers reports the per-layer metrics every workload has: the
// probes of its engine, and from the spans its chain recorded the
// medians of the flagship render at each layer. A layer's self time is
// its median minus its children's medians.
func sharedLayers(b *built, dir string, reps int, rec *Recorder, ch *chain, out map[string]float64) error {
	probes, err := engineProbes(b, dir, reps)
	if err != nil {
		return err
	}
	for k, v := range probes {
		out[k] = v
	}
	render := "render:" + primary.report
	coreP, enf, exec := rec.P50("core", render), rec.P50("enforce", render), rec.P50("sql", render)
	support, appends := rec.P50("provenance", render), rec.P50("audit", render)
	out["core.render_p50_us"] = us(coreP)
	out["core.self_us"] = us(coreP - enf - appends)
	out["enforce.render_p50_us"] = us(enf)
	out["enforce.self_us"] = us(enf - exec - support)
	out["enforce.plan_hit_ratio"] = ch.planHitRatio()
	out["sql.exec_p50_us"] = us(exec)
	out["provenance.support_us"] = us(support)
	return nil
}
