package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"plabi/internal/audit"
	"plabi/internal/fault"
	"plabi/internal/obs"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/workload"
)

// chaosSeeds returns the fixed seed matrix, overridable with a
// comma-separated CHAOS_SEEDS environment variable.
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	spec := os.Getenv("CHAOS_SEEDS")
	if spec == "" {
		return []int64{101, 202, 303}
	}
	var seeds []int64
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEEDS: %v", err)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

// chaosInjector enables the full fault schedule over every boundary site.
func chaosInjector(seed int64) *fault.Injector {
	fi := fault.NewInjector(seed)
	fi.Enable(fault.SiteAuditSink, fault.SiteConfig{ErrorRate: 0.2, Transient: true})
	fi.Enable(fault.SiteETLExtract, fault.SiteConfig{ErrorRate: 0.1, Transient: true})
	fi.Enable(fault.SiteETLStep, fault.SiteConfig{ErrorRate: 0.02, PanicRate: 0.01})
	fi.Enable(fault.SiteETLDelta, fault.SiteConfig{ErrorRate: 0.08, PanicRate: 0.02})
	fi.Enable(fault.SiteRenderWorker, fault.SiteConfig{
		ErrorRate: 0.02, PanicRate: 0.02,
		LatencyRate: 0.05, Latency: 200 * time.Microsecond,
	})
	fi.Enable(fault.SiteReleaseSource, fault.SiteConfig{ErrorRate: 0.1, Transient: true})
	fi.Enable(fault.SiteSegmentRead, fault.SiteConfig{ErrorRate: 0.05, Transient: true})
	return fi
}

func chaosRetry() fault.RetryPolicy {
	return fault.RetryPolicy{MaxAttempts: 4, Base: 5 * time.Microsecond,
		Max: 100 * time.Microsecond, Multiplier: 2, Jitter: 0.5}
}

// chaosConfig is the fast-retrying configuration the chaos suites run fi
// under.
func chaosConfig(fi *fault.Injector) Config {
	r := chaosRetry()
	return Config{Faults: fi, Retry: &r}
}

// tolerable reports whether err is an expected chaos outcome: an injected
// fault, an isolated panic, or a fail-closed audit block. Anything else is
// a robustness bug.
func tolerable(err error) bool {
	return errors.Is(err, fault.ErrInjected) ||
		errors.Is(err, fault.ErrInternal) ||
		errors.Is(err, audit.ErrAuditUnavailable)
}

// TestChaosHealthcareScenario drives the full healthcare deployment under
// randomized (but seed-deterministic) fault schedules and asserts the
// fail-closed invariants:
//
//  1. faults never kill the process — every failure surfaces as a typed
//     error, and the engine keeps serving afterwards;
//  2. no goroutine leaks across the whole run;
//  3. every line the audit sink received is valid JSONL;
//  4. every successful render's correlation id is present in the sink —
//     no un-audited data release;
//  5. successful renders are byte-identical to the no-fault baseline.
//
// The chaos engines run segment-backed (every staging table spilled to
// disk, small partitions, transient faults injected at
// relation.segment.read), while the baseline stays fully in-memory and
// fault-free — so invariant 5 proves equality across fault schedules AND
// storage modes at once.
func TestChaosHealthcareScenario(t *testing.T) {
	cfg := workload.DefaultConfig(7)
	cfg.Prescriptions = 600
	cfg.Patients = 60
	consumers := []report.Consumer{
		{Name: "a1", Role: "analyst", Purpose: "quality"},
		{Name: "a2", Role: "auditor", Purpose: "quality"},
		{Name: "a3", Role: "analyst", Purpose: "reimbursement"},
	}

	// No-fault baseline: the byte-exact expected output per (report,
	// consumer) pair, plus the source-level release of the residents table
	// (the release.source site's ground truth).
	base, baseDS, err := BuildHealthcareEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseline := map[string]string{}
	for _, d := range base.Reports.All() {
		for _, c := range consumers {
			enf, err := base.Render(d.ID, c)
			if err != nil {
				t.Fatalf("baseline %s/%s: %v", d.ID, c.Name, err)
			}
			baseline[d.ID+"/"+c.Name] = enf.Table.String()
		}
	}
	baseRel, _, err := base.SourceEnforcer().Release(baseDS.Residents)
	if err != nil {
		t.Fatalf("baseline release: %v", err)
	}
	releaseBaseline := baseRel.String()

	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer fault.CheckLeaks(t)()
			fi := chaosInjector(seed)
			var sink bytes.Buffer
			t.Cleanup(func() { dumpChaosArtifacts(t, seed, fi, &sink) })

			// The scenario build itself runs under fault injection; ETL
			// failures are tolerated and retried from scratch.
			var e *Engine
			var ds *workload.Dataset
			segDir := t.TempDir()
			for attempt := 0; ; attempt++ {
				var err error
				e, ds, err = buildScenario(cfg, chaosConfig(fi), func(e *Engine) {
					e.Audit.SetSink(&sink)
					s := e.SetSegmentStore(segDir)
					s.SetPartitionRows(64)
					e.SetSpillThreshold(1)
				})
				if err == nil {
					break
				}
				if !tolerable(err) {
					t.Fatalf("build attempt %d: intolerable error: %v", attempt, err)
				}
				if attempt >= 50 {
					t.Fatalf("scenario build did not survive chaos in %d attempts: %v", attempt, err)
				}
			}

			const rounds = 4
			successes, failures := 0, 0
			var mustTrace []string
			for r := 0; r < rounds; r++ {
				for _, d := range e.Reports.All() {
					for _, c := range consumers {
						corr := fmt.Sprintf("chaos-s%d-r%d-%s-%s", seed, r, d.ID, c.Name)
						ctx := obs.WithCorrelationID(context.Background(), corr)
						enf, err := e.RenderContext(ctx, d.ID, c)
						if err != nil {
							if !tolerable(err) {
								t.Fatalf("render %s: intolerable error: %v", corr, err)
							}
							failures++
							continue
						}
						successes++
						mustTrace = append(mustTrace, corr)
						if got, want := enf.Table.String(), baseline[d.ID+"/"+c.Name]; got != want {
							t.Fatalf("render %s diverges from no-fault baseline:\n got:\n%s\nwant:\n%s", corr, got, want)
						}
					}
				}
				// Source-level release under the release.source site: an
				// injected fault degrades to a typed error with no partial
				// release; a successful release is byte-identical to the
				// no-fault baseline.
				rel, _, err := e.SourceEnforcer().Release(ds.Residents)
				if err != nil {
					if !tolerable(err) {
						t.Fatalf("release round %d: intolerable error: %v", r, err)
					}
					failures++
				} else {
					successes++
					if got := rel.String(); got != releaseBaseline {
						t.Fatalf("release round %d diverges from no-fault baseline:\n got:\n%s\nwant:\n%s", r, got, releaseBaseline)
					}
				}
			}
			if successes == 0 {
				t.Fatal("chaos schedule starved every render; lower the rates")
			}
			t.Logf("seed %d: %d renders ok, %d failed closed, %s", seed, successes, failures, fi)

			// The sink must hold only whole, parseable JSONL lines, and
			// every successful render's trace must be among them.
			traces := map[string]bool{}
			for _, line := range strings.Split(sink.String(), "\n") {
				if strings.TrimSpace(line) == "" {
					continue
				}
				var ev audit.Event
				if err := json.Unmarshal([]byte(line), &ev); err != nil {
					t.Fatalf("corrupt audit sink line %q: %v", line, err)
				}
				traces[ev.Trace] = true
			}
			for _, corr := range mustTrace {
				if !traces[corr] {
					t.Fatalf("successful render %s has no audit trace in the sink", corr)
				}
			}
		})
	}
}

// TestChaosReplaySchedule proves the chaos artifact is replayable: a
// run under a seeded random fault schedule, re-executed with
// fault.ReplaySchedule over the recorded fires, reproduces the exact
// same behavior — byte-identical audit sink, identical re-recorded
// schedule, identical per-render outcomes — even though the replay
// injector is configured with completely different rates. Workers is
// pinned to 1: replay pins faults to per-site call ordinals, so the
// engine's call order must be deterministic.
func TestChaosReplaySchedule(t *testing.T) {
	cfg := workload.DefaultConfig(7)
	cfg.Prescriptions = 200
	cfg.Patients = 40
	consumers := []report.Consumer{
		{Name: "a1", Role: "analyst", Purpose: "quality"},
		{Name: "a2", Role: "auditor", Purpose: "quality"},
	}

	// run builds the engine under fi with no sink attached — the build's
	// deterministic ETL reaches neither scheduled site, audit.sink.write
	// nor render.worker — then attaches the sink and drives a fixed
	// render sequence.
	run := func(t *testing.T, fi *fault.Injector) (sinkBytes string, sched []fault.Fire, outs []string) {
		t.Helper()
		ecfg := chaosConfig(fi)
		ecfg.Workers = 1
		e, _, err := buildScenario(cfg, ecfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var sink bytes.Buffer
		e.Audit.SetSink(&sink)
		for r := 0; r < 3; r++ {
			for _, d := range e.Reports.All() {
				for _, c := range consumers {
					corr := fmt.Sprintf("replay-r%d-%s-%s", r, d.ID, c.Name)
					ctx := obs.WithCorrelationID(context.Background(), corr)
					enf, err := e.RenderContext(ctx, d.ID, c)
					switch {
					case err == nil:
						outs = append(outs, corr+"=ok:"+enf.Table.String())
					case tolerable(err):
						outs = append(outs, corr+"=err:"+err.Error())
					default:
						t.Fatalf("render %s: intolerable error: %v", corr, err)
					}
				}
			}
		}
		return sink.String(), fi.Schedule(), outs
	}

	orig := fault.NewInjector(404)
	orig.Enable(fault.SiteAuditSink, fault.SiteConfig{ErrorRate: 0.15, Transient: true})
	orig.Enable(fault.SiteRenderWorker, fault.SiteConfig{ErrorRate: 0.05, PanicRate: 0.03})
	wantSink, recorded, wantOuts := run(t, orig)
	if len(recorded) == 0 {
		t.Fatal("seeded run fired nothing; raise the rates so the replay is meaningful")
	}

	rep := fault.NewInjector(1)
	// Deliberately different (and absurd) configuration: replay must
	// pin the schedule regardless.
	rep.Enable(fault.SiteAuditSink, fault.SiteConfig{ErrorRate: 1})
	rep.Enable(fault.SiteETLStep, fault.SiteConfig{PanicRate: 1})
	rep.ReplaySchedule(recorded)
	gotSink, replayed, gotOuts := run(t, rep)

	if !reflect.DeepEqual(wantOuts, gotOuts) {
		t.Fatalf("replay render outcomes diverge:\noriginal %v\nreplay   %v", wantOuts, gotOuts)
	}
	if !reflect.DeepEqual(recorded, replayed) {
		t.Fatalf("replay re-recorded a different fault schedule:\noriginal %v\nreplay   %v", recorded, replayed)
	}
	if wantSink != gotSink {
		t.Fatalf("replay audit sink is not byte-identical:\noriginal:\n%s\nreplay:\n%s", wantSink, gotSink)
	}
	t.Logf("replayed %d fires, %d renders, %d sink bytes byte-identical", len(recorded), len(wantOuts), len(wantSink))
}

// dumpChaosArtifacts writes the fault schedule and the audit sink contents
// to CHAOS_ARTIFACT_DIR when a chaos subtest fails, so a CI failure is
// replayable offline.
func dumpChaosArtifacts(t *testing.T, seed int64, fi *fault.Injector, sink *bytes.Buffer) {
	if !t.Failed() {
		return
	}
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos artifacts: %v", err)
		return
	}
	sched, err := json.MarshalIndent(fi.Schedule(), "", "  ")
	if err == nil {
		path := filepath.Join(dir, fmt.Sprintf("chaos_schedule_seed%d.json", seed))
		if werr := os.WriteFile(path, sched, 0o644); werr != nil {
			t.Logf("chaos artifacts: %v", werr)
		} else {
			t.Logf("chaos schedule written to %s", path)
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("chaos_audit_seed%d.jsonl", seed))
	if werr := os.WriteFile(path, sink.Bytes(), 0o644); werr != nil {
		t.Logf("chaos artifacts: %v", werr)
	} else {
		t.Logf("chaos audit log written to %s", path)
	}
}

// materializedRetry decodes a possibly segment-backed table, retrying
// injected segment-read faults.
func materializedRetry(t *testing.T, tb *relation.Table) *relation.Table {
	t.Helper()
	for attempt := 0; attempt < 100; attempt++ {
		m, err := tb.Materialize()
		if err == nil {
			return m
		}
		if !tolerable(err) {
			t.Fatalf("materialize: intolerable error: %v", err)
		}
	}
	t.Fatal("table never materialized under the chaos schedule")
	return nil
}

// TestChaosDeltaConvergence streams delta batches through a
// segment-backed deployment while faults fire mid-delta at the etl.delta
// site (plus the extract/step/segment/audit boundaries), and asserts the
// incremental-refresh invariants hold under chaos:
//
//  1. a failed delta is atomic — the retry applies the identical batch
//     against identical pre-delta state;
//  2. after the stream, every warehouse table and every render is
//     byte-identical to a fresh no-fault engine built from the final
//     source versions (delta refresh converges with full rebuild);
//  3. renders keep serving between batches.
func TestChaosDeltaConvergence(t *testing.T) {
	cfg := workload.DefaultConfig(13)
	cfg.Prescriptions = 500
	cfg.Patients = 60
	cfg.LabResults = 30
	consumers := []report.Consumer{
		{Name: "a1", Role: "analyst", Purpose: "quality"},
		{Name: "a2", Role: "auditor", Purpose: "quality"},
		{Name: "a3", Role: "analyst", Purpose: "reimbursement"},
	}
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer fault.CheckLeaks(t)()
			fi := chaosInjector(seed)
			var sink bytes.Buffer
			t.Cleanup(func() { dumpChaosArtifacts(t, seed, fi, &sink) })

			var e *Engine
			var ds *workload.Dataset
			segDir := t.TempDir()
			for attempt := 0; ; attempt++ {
				var err error
				e, ds, err = buildScenario(cfg, chaosConfig(fi), func(e *Engine) {
					e.Audit.SetSink(&sink)
					s := e.SetSegmentStore(segDir)
					s.SetPartitionRows(64)
					e.SetSpillThreshold(1)
				})
				if err == nil {
					break
				}
				if !tolerable(err) {
					t.Fatalf("build attempt %d: intolerable error: %v", attempt, err)
				}
				if attempt >= 50 {
					t.Fatalf("scenario build did not survive chaos in %d attempts: %v", attempt, err)
				}
			}

			defer verifyResident(t, e)

			rng := rand.New(rand.NewSource(seed))
			served := 0
			for round := 0; round < 4; round++ {
				applyWithRetry(t, e, randomBatch(t, rng, ds, e, round))
				// The engine keeps serving mid-stream; chaos failures
				// degrade to typed errors, never wrong data.
				for _, c := range consumers {
					if _, err := e.Render("drug-consumption", c); err == nil {
						served++
					} else if !tolerable(err) {
						t.Fatalf("round %d render: intolerable error: %v", round, err)
					}
				}
				verifyResident(t, e) // every committed version, not just the last
			}
			if served == 0 {
				t.Fatal("chaos schedule starved every mid-stream render")
			}

			// Fresh no-fault, in-memory mirror from the final sources.
			final := func(source, table string) *relation.Table {
				src, _ := e.Source(source)
				tb, _ := src.Table(table)
				return materializedRetry(t, tb).Clone()
			}
			mirror, err := buildEngineFromTables(
				final("hospital", "prescriptions"),
				final("familydoctors", "familydoctor"),
				final("healthagency", "drugcost"),
				final("laboratory", "labresults"),
				final("municipality", "residents"),
			)
			if err != nil {
				t.Fatalf("mirror build: %v", err)
			}

			for _, name := range []string{"prescriptions", "familydoctor", "drugcost",
				"familydoctor_resolved", "rx_cost", "rx_wide"} {
				lt, lok := e.Table(name)
				mt, mok := mirror.Table(name)
				if !lok || !mok {
					t.Fatalf("table %q: live=%v mirror=%v", name, lok, mok)
				}
				if got, want := materializedRetry(t, lt).String(), mt.String(); got != want {
					t.Fatalf("table %q diverges from full rebuild after chaos deltas:\n got:\n%s\nwant:\n%s", name, got, want)
				}
			}
			for _, def := range StandardReports() {
				for _, c := range consumers {
					if !containsRole(def.Roles, c.Role) {
						continue
					}
					want := renderKey(mirror, def.ID, c)
					for attempt := 0; ; attempt++ {
						enf, err := e.Render(def.ID, c)
						if err != nil {
							if !tolerable(err) {
								t.Fatalf("render %s/%s: intolerable error: %v", def.ID, c.Name, err)
							}
							if attempt >= 100 {
								t.Fatalf("render %s/%s never succeeded", def.ID, c.Name)
							}
							continue
						}
						if got := renderString(enf); got != want {
							t.Fatalf("render %s/%s diverges from full rebuild:\n got:\n%s\nwant:\n%s", def.ID, c.Name, got, want)
						}
						break
					}
				}
			}
		})
	}
}

func containsRole(roles []string, role string) bool {
	for _, r := range roles {
		if r == role {
			return true
		}
	}
	return false
}
