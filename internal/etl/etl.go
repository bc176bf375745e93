// Package etl implements the extract-transform-load pipeline of the
// outsourced BI scenario (§2, §4): extraction from per-owner sources into
// a staging area, cleansing, entity resolution across sources, joins and
// derivations, with every step recorded in the provenance transformation
// graph and guarded by PLA enforcement hooks (join permissions,
// integration permissions — Fig. 3).
package etl

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"plabi/internal/fault"
	"plabi/internal/obs"
	"plabi/internal/provenance"
	"plabi/internal/relation"
)

// Source is one data provider: an owning institution and its tables.
type Source struct {
	Name  string // e.g. "hospital"
	Owner string // owning institution (often equal to Name)
	// Tables holds the tables by lowercased name; once the source is
	// shared, Table reads them and Swap replaces one (a delta, beside lint).
	Tables map[string]*relation.Table
	mu     sync.Mutex
}

// NewSource builds a source from tables, keyed by table name.
func NewSource(name, owner string, tables ...*relation.Table) *Source {
	s := &Source{Name: name, Owner: owner, Tables: map[string]*relation.Table{}}
	for _, t := range tables {
		s.Tables[strings.ToLower(t.Name)] = t
	}
	return s
}

// Table returns the named table of the source.
func (s *Source) Table(name string) (*relation.Table, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.Tables[strings.ToLower(name)]
	return t, ok
}

// Swap makes t the source's table of that name.
func (s *Source) Swap(name string, t *relation.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Tables[strings.ToLower(name)] = t
}

// Guard is consulted before privacy-relevant ETL operations. The enforce
// package provides the PLA-backed implementation; AllowAll is the null
// guard.
type Guard interface {
	// CheckJoin is consulted before joining data deriving from the two
	// base tables.
	CheckJoin(left, right string) error
	// CheckIntegration is consulted before donor data is used to
	// clean/resolve data belonging to the beneficiary owner (§5 v).
	CheckIntegration(donorTable, beneficiaryOwner string) error
}

// AllowAll is a Guard that permits every operation.
type AllowAll struct{}

// CheckJoin implements Guard.
func (AllowAll) CheckJoin(_, _ string) error { return nil }

// CheckIntegration implements Guard.
func (AllowAll) CheckIntegration(_, _ string) error { return nil }

// Context carries pipeline state: the staging area, the provenance graph,
// the guard, and an optional event sink. Get and Put are safe for
// concurrent use; direct access to Staging is only safe while no pipeline
// is running.
type Context struct {
	mu      sync.RWMutex
	Staging map[string]*relation.Table
	Graph   *provenance.Graph
	Guard   Guard
	// Observe, when non-nil, receives one event per executed step. It is
	// always called sequentially, in pipeline step order, even when steps
	// execute in parallel waves.
	Observe func(step, op, output string, rowsIn, rowsOut int, err error)
	// Metrics, when non-nil, receives per-wave durations and step /
	// violation counters (etl.* names).
	Metrics *obs.Metrics
	// Faults, when non-nil, injects faults at the etl.* sites; chaos
	// runs use it to drive failure schedules through the pipeline.
	Faults *fault.Injector
	// Retry bounds retries at the retryable source-extraction boundary.
	// The zero policy performs a single attempt.
	Retry fault.RetryPolicy
	// SpillStore, when non-nil and SpillThreshold > 0, receives staging
	// tables of at least SpillThreshold rows as on-disk columnar
	// segments: Put swaps the in-memory rows for a segment-backed view,
	// so wide intermediates stop occupying heap between steps. A failed
	// spill keeps the in-memory table (fail-open) and counts
	// etl.spill.errors on Metrics.
	SpillStore     *relation.SegmentStore
	SpillThreshold int
	// Workers bounds per-wave parallelism for a pipeline that sets no
	// Workers of its own (0 = one per CPU).
	Workers int

	// runCtx is the context of the executing pipeline run, exposed to
	// steps via Ctx so long row loops can honour cancellation.
	runCtx context.Context
	// shells marks RunEmpty's context: Put stages headers only.
	shells bool
}

// NewContext returns a context with an empty staging area and the given
// guard (nil means AllowAll).
func NewContext(g Guard) *Context {
	if g == nil {
		g = AllowAll{}
	}
	return &Context{Staging: map[string]*relation.Table{}, Graph: provenance.NewGraph(), Guard: g}
}

// Get fetches a staging table.
func (c *Context) Get(name string) (*relation.Table, error) {
	c.mu.RLock()
	t, ok := c.Staging[strings.ToLower(name)]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("etl: staging table %q not found", name)
	}
	return t, nil
}

// Put stores a staging table under the given name, spilling it to the
// configured segment store first when it crosses the spill threshold. It
// freezes what it stores, so that a step can keep beside that version what
// the next delta reads (relation.Table.Keep); a context of RunEmpty stores
// each table's rowless Shell instead.
func (c *Context) Put(name string, t *relation.Table) {
	if c.shells {
		t = t.Shell()
	}
	if c.SpillStore != nil && c.SpillThreshold > 0 && t.NumRows() >= c.SpillThreshold {
		if spilled, err := c.SpillStore.Spill(t); err == nil {
			t = spilled
		} else {
			c.Metrics.Counter("etl.spill.errors").Inc()
		}
	}
	t.Freeze()
	c.mu.Lock()
	c.Staging[strings.ToLower(name)] = t
	c.mu.Unlock()
}

// Ctx returns the context of the pipeline run currently executing
// against this Context (context.Background outside a run). Steps use it
// to honour cancellation inside per-row loops.
func (c *Context) Ctx() context.Context {
	c.mu.RLock()
	ctx := c.runCtx
	c.mu.RUnlock()
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

func (c *Context) setCtx(ctx context.Context) {
	c.mu.Lock()
	c.runCtx = ctx
	c.mu.Unlock()
}

func (c *Context) rows(name string) (int, bool) {
	c.mu.RLock()
	t, ok := c.Staging[strings.ToLower(name)]
	c.mu.RUnlock()
	if !ok {
		return 0, false
	}
	return t.NumRows(), true
}

// Step is one pipeline operation. A step holds no state: Run and Delta are
// functions of the context alone, and what the next delta needs of the
// output it staged — where each output row came from, an accumulator — is
// kept with that version of the output (relation.Table.Keep, under the
// step's output name), never on the step. A step that wraps another by
// embedding it, as a tracing harness does, forwards Delta with it: the
// wrapped rule places changes, and the wrapper's Run sees every rebuild.
type Step interface {
	// Name identifies the step instance for annotations and audits.
	Name() string
	// Op is the operation kind (extract, cleanse, join, ...).
	Op() string
	// Inputs and Output name the staging relations involved.
	Inputs() []string
	Output() string
	// Run executes the step against the context.
	Run(c *Context) error
	// Delta is the step's delta rule (see ApplyDelta for when it runs):
	// it places the changes of its inputs (keyed by lower-cased name, none
	// Rebuilt) in the output it staged before and returns that output's
	// change. It never calls Run: what it cannot place it returns as
	// rerun, and the driver runs the step.
	Delta(c *Context, changes map[string]Change) (out Change, rerun bool, err error)
}

// Pipeline is an ordered list of steps. PLA annotations attach to steps by
// name via the policy registry (scope = step name).
//
// Run schedules steps in dependency waves: two steps may execute
// concurrently when neither reads the other's output, they write distinct
// outputs, and neither overwrites a relation the other reads. Observable
// behaviour (Observe callbacks, provenance graph recording, violation
// ordering) is identical to a sequential run.
type Pipeline struct {
	Name  string
	Steps []Step
	// Workers bounds per-wave parallelism (0 = one per CPU, 1 = serial).
	Workers int
}

// Result reports one pipeline run.
type Result struct {
	StepsRun int
	// Violations collects the enforcement errors of failed steps
	// (the run stops at the first one unless ContinueOnViolation).
	Violations []error
	// Skipped counts steps not executed because a transitive upstream
	// step was blocked by a violation and its output never materialized
	// (continue-on-violation runs only). Each is recorded via Observe
	// with a *SkippedError and counted under the etl.skipped metric.
	Skipped int
}

// Run executes the pipeline. Enforcement errors (etl.ViolationError)
// abort the offending step; when continueOnViolation is true the pipeline
// carries on with the remaining steps (the blocked step's output is
// absent), otherwise it stops.
func (p *Pipeline) Run(c *Context, continueOnViolation bool) (Result, error) {
	return p.RunContext(context.Background(), c, continueOnViolation)
}

// RunEmpty runs the pipeline over zero rows: each step's own Run, one at a
// time in list order, in a fresh Context guarded by g whose Put stages
// every table as its rowless Shell, so every step types its output and asks
// g what a run would, reading no row and touching no live version. done gets
// each step run and its error, a panic included; a step reading what a
// failed step left absent is not run.
func (p *Pipeline) RunEmpty(g Guard, done func(s Step, err error)) {
	c := NewContext(g)
	c.shells = true
	absent := map[string]bool{}
	for _, s := range p.Steps {
		if !slices.ContainsFunc(s.Inputs(), func(in string) bool { return absent[strings.ToLower(in)] }) {
			done(s, fault.Safely("etl.step("+s.Name()+")", nil, func() error { return s.Run(c) }))
		}
		_, have := c.rows(s.Output())
		absent[strings.ToLower(s.Output())] = !have
	}
}

// RunContext executes the pipeline, honouring ctx between waves: it is the
// delta in which every source is rebuilt, so every step runs Run. Like a
// delta it commits all or nothing: a run that fails leaves the staging area
// as it found it.
func (p *Pipeline) RunContext(ctx context.Context, c *Context, continueOnViolation bool) (Result, error) {
	res, _, err := p.apply(ctx, c, nil, true, continueOnViolation)
	return res, err
}

// stepOutcome is the raw result of executing one step inside a wave,
// recorded into the context sequentially afterwards.
type stepOutcome struct {
	rowsIn, rowsOut int
	rerun           bool   // Run ran (decided before, or asked for by Delta)
	ch              Change // the change of the step's output
	err             error
}

// apply is the pipeline's one scheduler, for a delta or a full run, where
// every source is rebuilt. Independent steps run concurrently on a bounded
// worker pool; results are recorded (Observe, provenance, violation
// accounting, the output's change) in original step order after each wave,
// so audit trails and the transformation graph are deterministic regardless
// of scheduling. A full run's steps run under the etl.step fault site, a
// delta's under etl.delta. On any error the staging area is restored to the
// shallow snapshot taken first (staging tables are copy-on-write).
func (p *Pipeline) apply(ctx context.Context, c *Context, changes map[string]Change, full, continueOnViolation bool) (Result, DeltaResult, error) {
	var res Result
	dres := DeltaResult{Changed: make(map[string]Change, len(changes)+len(p.Steps))}
	for k, v := range changes {
		dres.Changed[strings.ToLower(k)] = v
	}
	site := fault.SiteETLDelta
	if full {
		site = fault.SiteETLStep
	}
	c.setCtx(ctx)
	defer c.setCtx(nil)
	start := time.Now()
	c.mu.RLock()
	snap := maps.Clone(c.Staging)
	c.mu.RUnlock()
	fresh := full || len(snap) == 0 // every step runs Run
	fail := func(err error) (Result, DeltaResult, error) {
		c.mu.Lock()
		c.Staging = snap
		c.mu.Unlock()
		return res, dres, err
	}

	n := len(p.Steps)
	deps := p.dependencies()
	workers := p.Workers
	if workers <= 0 {
		workers = c.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	done := make([]bool, n) // step recorded (success, violation, skip or untouched)
	// blockedOut marks staging relations whose producer was blocked by a
	// violation (or skipped downstream of one) without leaving any output:
	// true when that happened in this pass, false when an untouched step
	// left its output absent as an earlier run blocked it. A step that
	// would run and reads such a relation cannot — its Get would fail with
	// an operational "staging table not found" error and abort the pass —
	// so it is skipped and recorded instead. A relation blocked in this
	// pass counts as a change of its readers.
	blockedOut := map[string]bool{}
	completed := 0
	for completed < n {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		// Collect the next wave: every unfinished step whose dependencies
		// are all done, with what it runs. Skipped and untouched steps are
		// recorded inline, so a dependent chain cascades within one pass.
		var wave []int
		outcomes := make([]stepOutcome, 0, n-completed)
		for i := 0; i < n; i++ {
			if done[i] || slices.ContainsFunc(deps[i], func(d int) bool { return !done[d] }) {
				continue
			}
			s := p.Steps[i]
			out := strings.ToLower(s.Output())
			_, have := c.rows(out)
			_, clobbered := dres.Changed[out]
			ins, rerun, changed := s.Inputs(), fresh || clobbered, false
			for _, in := range ins {
				ch := dres.Changed[strings.ToLower(in)]
				changed = changed || !ch.Empty() || blockedOut[strings.ToLower(in)]
				rerun = rerun || ch.Rebuilt
			}
			if !rerun && !changed {
				dres.StepsUntouched++
				if !have {
					blockedOut[out] = false
				}
				done[i] = true
				completed++
				continue
			}
			if up := slices.IndexFunc(ins, func(in string) bool {
				_, blocked := blockedOut[strings.ToLower(in)]
				_, ok := c.rows(in)
				return blocked && !ok
			}); up >= 0 {
				serr := &SkippedError{Step: s.Name(), Upstream: ins[up]}
				if c.Observe != nil {
					c.Observe(s.Name(), s.Op(), s.Output(), 0, 0, serr)
				}
				res.Skipped++
				c.Metrics.Counter("etl.skipped").Inc()
				if !have {
					blockedOut[out] = true
				}
				done[i] = true
				completed++
				continue
			}
			rerun = rerun || !have
			wave = append(wave, i)
			outcomes = append(outcomes, stepOutcome{rowsIn: countRows(c, ins), rerun: rerun})
		}
		if len(wave) == 0 {
			// The whole remainder of the pipeline was skipped or untouched.
			continue
		}
		// rowsIn is stable across the wave: no step in a wave writes a
		// relation another wave member reads.
		waveStart := time.Now()
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for wi, si := range wave {
			if workers == 1 || len(wave) == 1 {
				p.execStep(ctx, c, site, si, dres.Changed, &outcomes[wi])
				continue
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(wi, si int) {
				defer wg.Done()
				defer func() { <-sem }()
				p.execStep(ctx, c, site, si, dres.Changed, &outcomes[wi])
			}(wi, si)
		}
		wg.Wait()
		c.Metrics.Histogram("etl.wave.duration").Observe(time.Since(waveStart))
		c.Metrics.Counter("etl.waves").Inc()
		// Record outcomes sequentially in original step order — identical
		// observable trace to a sequential run.
		for wi, si := range wave {
			s := p.Steps[si]
			o := outcomes[wi]
			if c.Observe != nil {
				c.Observe(s.Name(), s.Op(), s.Output(), o.rowsIn, o.rowsOut, o.err)
			}
			if o.err != nil {
				if IsViolation(o.err) {
					res.Violations = append(res.Violations, o.err)
					c.Metrics.Counter("etl.violations").Inc()
					if ve := violationOf(o.err); ve != nil && ve.Rule != "" {
						c.Metrics.Counter("etl.block." + ve.Rule).Inc()
					}
					// A delta's step that had no output before it stays
					// blocked, as the run that continued past it left it.
					_, had := snap[strings.ToLower(s.Output())]
					if continueOnViolation || (!fresh && !had) {
						done[si] = true
						completed++
						// A blocked step that produced no output poisons its
						// readers; one that overwrote an existing relation
						// leaves the previous version for them (identical to
						// sequential semantics, where their Get succeeds).
						if _, ok := c.rows(s.Output()); !ok {
							blockedOut[strings.ToLower(s.Output())] = true
						}
						continue
					}
					return fail(o.err)
				}
				return fail(fmt.Errorf("etl: step %q: %w", s.Name(), o.err))
			}
			note, counter := s.Name(), "etl.delta.incremental"
			if o.rerun {
				dres.StepsRebuilt++
				counter = "etl.delta.rebuilt"
			} else {
				dres.StepsIncremental++
			}
			if !full {
				note += " (delta)"
				c.Metrics.Counter(counter).Inc()
			}
			c.Graph.AddStep(s.Op(), s.Inputs(), s.Output(), note, o.rowsIn, o.rowsOut)
			res.StepsRun++
			c.Metrics.Counter("etl.steps").Inc()
			dres.Changed[strings.ToLower(s.Output())] = o.ch
			done[si] = true
			completed++
		}
	}
	if !full {
		c.Metrics.Histogram("etl.delta.duration").Observe(time.Since(start))
		c.Metrics.Counter("etl.deltas").Inc()
	}
	return res, dres, nil
}

// execStep runs one step under panic isolation and the pass's fault site
// (etl.step or etl.delta): its delta rule unless o.rerun, and Run when
// that is decided or the rule asks for it. A panicking step (organic or
// injected) fails its wave as a typed *fault.InternalError instead of
// killing the process, whether the step ran serially or on a pool
// goroutine. Its wall time, failed or not, is a sample of
// etl.step.<name>.duration.
func (p *Pipeline) execStep(ctx context.Context, c *Context, site string, si int, changes map[string]Change, o *stepOutcome) {
	s := p.Steps[si]
	start := time.Now()
	o.err = fault.Safely(site+"("+s.Name()+")", c.Metrics, func() error {
		if err := c.Faults.Hit(ctx, site); err != nil {
			return err
		}
		if !o.rerun {
			ch, rerun, err := s.Delta(c, changes)
			if err != nil || !rerun {
				o.ch = ch
				return err
			}
			o.rerun = true
		}
		o.ch = Change{Rebuilt: true}
		return s.Run(c)
	})
	c.Metrics.Histogram("etl.step." + s.Name() + ".duration").Observe(time.Since(start))
	// Only a successful step owns its output's row count: a failed step
	// that would have overwritten an existing staging relation must not
	// report the stale table's rows to Observe and the audit trail.
	if o.err == nil {
		if rows, ok := c.rows(s.Output()); ok {
			o.rowsOut = rows
		}
	}
}

// dependencies computes, per step, the indices of earlier steps it must
// wait for: producers of its inputs (read-after-write), earlier writers of
// its output (write-after-write), and earlier readers of a relation it
// overwrites (write-after-read).
func (p *Pipeline) dependencies() [][]int {
	n := len(p.Steps)
	ins := make([]map[string]bool, n)
	outs := make([]string, n)
	for i, s := range p.Steps {
		ins[i] = map[string]bool{}
		for _, in := range s.Inputs() {
			ins[i][strings.ToLower(in)] = true
		}
		outs[i] = strings.ToLower(s.Output())
	}
	deps := make([][]int, n)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			if ins[j][outs[i]] || outs[i] == outs[j] || ins[i][outs[j]] {
				deps[j] = append(deps[j], i)
			}
		}
	}
	return deps
}

func countRows(c *Context, names []string) int {
	n := 0
	for _, name := range names {
		if rows, ok := c.rows(name); ok {
			n += rows
		}
	}
	return n
}

// SkippedError marks a step that was not executed because a transitive
// upstream step was blocked by a privacy violation and left no output
// for it to read. It is recorded via Observe (so audit trails show the
// cascade) but is neither a violation nor an operational failure: a
// continue-on-violation run carries on past it.
type SkippedError struct {
	Step     string
	Upstream string // missing staging relation whose producer was blocked
}

// Error implements error.
func (e *SkippedError) Error() string {
	return fmt.Sprintf("etl: step %q skipped: upstream relation %q blocked by violation", e.Step, e.Upstream)
}

// IsSkipped reports whether err is (or wraps) a SkippedError.
func IsSkipped(err error) bool {
	var se *SkippedError
	return errors.As(err, &se)
}

// ViolationError marks a privacy-enforcement failure (as opposed to an
// operational error).
type ViolationError struct {
	Step   string
	Rule   string
	Detail string
	// Cause is the underlying enforcement error (typically a
	// *enforce.BlockedError wrapping enforce.ErrPLAViolation), exposed via
	// Unwrap so errors.Is/As see through the ETL wrapper.
	Cause error
}

// Error implements error.
func (e *ViolationError) Error() string {
	return fmt.Sprintf("etl: privacy violation in step %q: %s: %s", e.Step, e.Rule, e.Detail)
}

// Unwrap returns the underlying enforcement error, if any.
func (e *ViolationError) Unwrap() error { return e.Cause }

// IsViolation reports whether err is (or wraps) a ViolationError.
func IsViolation(err error) bool {
	return violationOf(err) != nil
}

// violationOf unwraps err to its *ViolationError (nil when it is not
// one).
func violationOf(err error) *ViolationError {
	for err != nil {
		if ve, ok := err.(*ViolationError); ok {
			return ve
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return nil
		}
		err = u.Unwrap()
	}
	return nil
}
