package bench

import (
	"fmt"
	"strings"
	"time"

	"plabi/internal/core"
	"plabi/internal/etl"
)

// etlWorkload is the batch flow: serial full rebuilds of the warehouse,
// each followed by one render of the flagship report — the first render
// after a rebuild pays plan and dictionary invalidation, so this is the
// cold render, where the serving workloads measure the warm one.
type etlWorkload struct {
	b        *built
	runs     int
	wantRows int
	wantSum  uint64
	wantEnf  uint64
	steps    int

	stepP50 map[string]time.Duration // traced pass: median per step
	runP50  time.Duration            // traced pass: median per run
	ch      *chain                   // the traced pass's chain
}

// Sizes: the table sits on the super-linear part of the ETL curve (94 ms
// at 20k, ~400 ms at 50k, 1.2 s at 100k prescriptions).
const (
	etlPrescriptions = 50000
	etlRunsPerSecond = 2.4
	etlSmokeRuns     = 3
	etlSmokeRows     = 4000
)

func (w *etlWorkload) setup(e *env) error {
	b, err := buildEngine(dataSeed(e.opts.Seed, "etl"), e.scale(etlPrescriptions, etlSmokeRows), "", nil)
	if err != nil {
		return err
	}
	w.b = b
	w.runs = e.opCount(etlRunsPerSecond, etlSmokeRuns)
	w.steps = len(core.HealthcarePipeline(b.eng).Steps)
	// The build's own ETL run is the reference every timed run must
	// reproduce; its render warms nothing that survives a rebuild.
	t, ok := b.eng.Catalog.Table("rx_wide")
	if !ok {
		return fmt.Errorf("rx_wide missing after build")
	}
	if w.wantRows, w.wantSum, err = tableChecksum(t); err != nil {
		return err
	}
	enf, err := b.eng.Render(primary.report, primary.consumer)
	if err != nil {
		return err
	}
	w.wantEnf = enforcedDigest(enf, true)
	return nil
}

func (w *etlWorkload) size() int { return w.runs }

// sourceRows is how many source rows one run extracts.
func (w *etlWorkload) sourceRows() int {
	n := 0
	for _, t := range []string{"prescriptions", "familydoctor", "drugcost", "residents"} {
		if tb, ok := w.b.eng.Catalog.Table(t); ok {
			n += tb.NumRows()
		}
	}
	return n
}

// tracedStep times one pipeline step from the harness's side.
type tracedStep struct {
	etl.Step
	rec    *Recorder
	op     *int
	parent *int
}

func (s tracedStep) Run(c *etl.Context) error {
	var err error
	s.rec.Time("etl.step", s.Name(), *s.op, *s.parent, func() { err = s.Step.Run(c) })
	return err
}

func (w *etlWorkload) run(e *env, rec *Recorder, n int) (*runStats, error) {
	eng := w.b.eng
	st := &runStats{detail: map[string]Measured{}, work: make([][]opRecord, 1)}
	p := core.HealthcarePipeline(eng)
	op, parent := 0, -1
	if rec != nil {
		// One worker, so that steps run one after another and their
		// spans add up to the run's.
		p.Workers = 1
		for i, s := range p.Steps {
			p.Steps[i] = tracedStep{Step: s, rec: rec, op: &op, parent: &parent}
		}
	}
	ch := newChain(rec, eng, nil, primary)
	hc := newHostClock()
	st.host = append(st.host, hc)
	for op = 0; op < n; op++ {
		hc.tick()
		var res etl.Result
		var err error
		var end func()
		start := time.Now()
		parent, end = rec.Begin("etl", "run", op, -1)
		res, err = eng.RunETL(p, false)
		end()
		lat := time.Since(start)
		st.primary = append(st.primary, lat)
		st.work[0] = append(st.work[0], opRecord{lat: lat})
		st.attempted++
		t, ok := eng.Catalog.Table("rx_wide")
		switch {
		case err != nil:
			st.fail("ETL run %d: %v", op, err)
		case res.StepsRun != w.steps || len(res.Violations) != 0:
			st.fail("ETL run %d: %d steps, %d violations (want %d, 0)", op, res.StepsRun, len(res.Violations), w.steps)
		case !ok:
			st.fail("ETL run %d left no rx_wide", op)
		default:
			if rows, sum, err := tableChecksum(t); err != nil || rows != w.wantRows || sum != w.wantSum {
				st.fail("ETL run %d: rx_wide has %d rows, checksum %x (want %d, %x): %v", op, rows, sum, w.wantRows, w.wantSum, err)
			}
		}

		st.attempted++
		start = time.Now()
		enf, err := eng.Render(primary.report, primary.consumer)
		lat = time.Since(start)
		st.work[0] = append(st.work[0], opRecord{lat: lat, render: true, entry: true})
		if err != nil {
			st.fail("render after ETL run %d: %v", op, err)
		} else if enforcedDigest(enf, true) != w.wantEnf {
			st.fail("render after ETL run %d differs from the render after the build", op)
		}
		if rec != nil {
			ch.render(primary, op, -1)
		}
	}
	if n := ch.failures(); n > 0 {
		st.fail("%d replayed calls returned an error", n)
	}
	w.ch = ch
	if rec != nil {
		w.runP50 = rec.P50("etl", "run")
		w.stepP50 = map[string]time.Duration{}
		for _, s := range p.Steps {
			w.stepP50[s.Name()] = rec.P50("etl.step", s.Name())
		}
		return st, nil
	}
	var total time.Duration
	for _, d := range st.primary {
		total += d
	}
	st.detail["etl_run_p50_ms"] = Measured{Value: ms(p50(st.primary)), Unit: "ms", Samples: len(st.primary)}
	st.detail["etl_rows_per_s"] = Measured{Value: float64(w.sourceRows()*n) / total.Seconds(), Unit: "1/s", Samples: n}
	return st, nil
}

// verify has nothing left to do: every run was checked against the
// build's output as it finished.
func (w *etlWorkload) verify(*env, *runStats) error { return nil }

func (w *etlWorkload) layers(e *env, rec *Recorder, out map[string]float64) error {
	if err := sharedLayers(w.b, e.dir, e.scale(5, 2), rec, w.ch, out); err != nil {
		return err
	}
	var ext, sum time.Duration
	for name, d := range w.stepP50 {
		sum += d
		if strings.HasPrefix(name, "ext-") {
			ext += d
		} else {
			out["etl.step."+name+"_ms"] = ms(d)
		}
	}
	out["etl.step.ext_ms"] = ms(ext)
	out["etl.self_ms"] = ms(w.runP50 - sum)
	return nil
}

func (w *etlWorkload) close() {}
