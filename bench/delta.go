package bench

import (
	"context"
	"fmt"
	"time"

	"plabi/internal/core"
)

// deltaWorkload is writes beside reads on the same layers: one thread
// alternates ApplyDelta and a render of the flagship report, so every
// render is the first after a commit. Serial on purpose — see the
// defects note in README.md.
type deltaWorkload struct {
	b     *built
	sched []DeltaOp

	incremental, rebuilt int    // steps, over the traced pass
	ch                   *chain // the traced pass's chain
}

const (
	deltaPrescriptions   = 50000
	deltaBlocksPerSecond = 0.8
	deltaSmokeRows       = 4000
)

// analystRenders are the renders a full rebuild must leave
// byte-identical after the last delta.
var analystRenders = renderMix[:3]

func (w *deltaWorkload) setup(e *env) error {
	rows := e.scale(deltaPrescriptions, deltaSmokeRows)
	b, err := buildEngine(dataSeed(e.opts.Seed, "delta"), rows, "", nil)
	if err != nil {
		return err
	}
	w.b = b
	w.sched = DeltaSchedule(e.opts.Seed, b.ds, rows, e.opCount(deltaBlocksPerSecond, 1))
	_, err = b.eng.Render(primary.report, primary.consumer)
	return err
}

func (w *deltaWorkload) size() int { return len(w.sched) }

func (w *deltaWorkload) run(e *env, rec *Recorder, n int) (*runStats, error) {
	// Whole blocks only: a block ends with the delete that restores the
	// table's size, which the next pass's row indices rely on.
	if n = n / deltaBlockOps * deltaBlockOps; n == 0 {
		n = deltaBlockOps
	}
	eng := w.b.eng
	ctx := context.Background()
	st := &runStats{detail: map[string]Measured{}, work: make([][]opRecord, 1), block: deltaBlockOps}
	ch := newChain(rec, eng, nil, primary)
	var applying time.Duration
	hc := newHostClock()
	st.host = append(st.host, hc)
	rows, incremental, rebuilt := 0, 0, 0
	for i, op := range w.sched[:n] {
		st.attempted++
		start := time.Now()
		_, end := rec.Begin("core", "delta:"+op.Kind.String(), i, -1)
		res, err := eng.ApplyDelta(ctx, op.Batch)
		end()
		lat := time.Since(start)
		st.primary = append(st.primary, lat)
		applying += lat
		rows += op.Rows
		if err != nil {
			st.fail("%s batch %d: %v", op.Kind, i, err)
		}
		incremental += res.StepsIncremental
		rebuilt += res.StepsRebuilt

		st.attempted++
		start = time.Now()
		_, err = eng.Render(primary.report, primary.consumer)
		rlat := time.Since(start)
		// render_p50_ms is the render after an insert commit, four cycles
		// in five. After an update or a delete the dictionaries are
		// rebuilt and the render costs twice as much; the median of all
		// renders sat where the cheap mode ends (p60 10.7 ms, p70 13.2 ms)
		// and moved by a third when the host slowed by a tenth. The costly
		// renders count in ops_per_s.
		st.work[0] = append(st.work[0], opRecord{lat: lat}, opRecord{lat: rlat, render: op.Kind == DeltaInsert, entry: true})
		if err != nil {
			st.fail("render after batch %d: %v", i, err)
		}
		if rec != nil {
			ch.render(primary, i, -1)
		}
		hc.tick()
	}
	if n := ch.failures(); n > 0 {
		st.fail("%d replayed calls returned an error", n)
	}
	w.ch = ch
	if t, ok := eng.Catalog.Table("prescriptions"); !ok || t.NumRows() != w.b.ds.Prescriptions.NumRows() {
		st.fail("prescriptions did not return to its base size after the last delete")
	}
	if rec != nil {
		w.incremental, w.rebuilt = incremental, rebuilt
		return st, nil
	}
	st.detail["delta_p50_ms"] = Measured{Value: ms(p50(st.primary)), Unit: "ms", Samples: len(st.primary)}
	st.detail["delta_rows_per_s"] = Measured{Value: float64(rows) / applying.Seconds(), Unit: "1/s", Samples: rows}
	return st, nil
}

// verify rebuilds the warehouse from the final sources: incremental
// refresh is correct when a full ETL run over what the deltas left
// changes nothing an analyst can see.
func (w *deltaWorkload) verify(e *env, st *runStats) error {
	eng := w.b.eng
	digests := func() ([]uint64, error) {
		var out []uint64
		for _, cb := range analystRenders {
			enf, err := eng.Render(cb.report, cb.consumer)
			if err != nil {
				return nil, fmt.Errorf("render %s: %w", cb.report, err)
			}
			out = append(out, enforcedDigest(enf, true))
		}
		return out, nil
	}
	incremental, err := digests()
	if err != nil {
		return err
	}
	if _, err := eng.RunETL(core.HealthcarePipeline(eng), false); err != nil {
		return err
	}
	rebuilt, err := digests()
	if err != nil {
		return err
	}
	for i, cb := range analystRenders {
		if incremental[i] != rebuilt[i] {
			st.fail("%s after the last delta differs from the same render after a full rebuild", cb.report)
		}
	}
	return nil
}

func (w *deltaWorkload) layers(e *env, rec *Recorder, out map[string]float64) error {
	if err := sharedLayers(w.b, e.dir, e.scale(5, 2), rec, w.ch, out); err != nil {
		return err
	}
	for k := DeltaInsert; k <= DeltaDelete; k++ {
		out["core.delta_"+k.String()+"_p50_ms"] = ms(rec.P50("core", "delta:"+k.String()))
	}
	out["etl.delta.steps_incremental"] = float64(w.incremental)
	out["etl.delta.steps_rebuilt"] = float64(w.rebuilt)
	return nil
}

func (w *deltaWorkload) close() {}
