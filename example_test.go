package plabi_test

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"plabi"
	"plabi/internal/workload"
)

// ExampleOpen builds a minimal deployment through the public API: one
// source, one source-level PLA, one report, one enforced render.
func ExampleOpen() {
	e := plabi.Open()
	e.AddSource(plabi.NewSource("hospital", "hospital", workload.PrescriptionsFixture()))
	if err := e.AddPLAs(`
pla "src" { owner "hospital"; level source; scope "prescriptions";
    allow attribute drug; allow attribute date; }`); err != nil {
		panic(err)
	}
	if err := e.DefineReport(&plabi.ReportDefinition{ID: "drugs",
		Query: "SELECT drug, date FROM prescriptions ORDER BY date"}); err != nil {
		panic(err)
	}
	enf, err := e.Render(context.Background(), "drugs",
		plabi.Consumer{Name: "ana", Role: "analyst", Purpose: "quality"})
	if err != nil {
		panic(err)
	}
	fmt.Printf("rows=%d masked=%d\n", enf.Table.NumRows(), enf.MaskedCells)
	// Output: rows=5 masked=0
}

// ExampleWithAuditSink streams the audit trail to stable storage as JSONL
// while keeping the in-memory log queryable.
func ExampleWithAuditSink() {
	var sink strings.Builder
	e := plabi.Open(plabi.WithAuditSink(&sink))
	e.AddSource(plabi.NewSource("hospital", "hospital", workload.PrescriptionsFixture()))
	if err := e.AddPLAs(`pla "p" { owner "hospital"; level source;
		scope "prescriptions"; allow attribute *; }`); err != nil {
		panic(err)
	}
	lines := strings.Count(sink.String(), "\n")
	fmt.Printf("sink lines=%d in-memory events=%d\n", lines, e.Audit().Len())
	// Output: sink lines=2 in-memory events=2
}

// ExampleEngine_Render shows typed error handling: enforcement refusals
// wrap ErrPLAViolation, and errors.As recovers the concrete blocking
// decisions from the *BlockedError.
func ExampleEngine_Render() {
	e := plabi.Open()
	e.AddSource(plabi.NewSource("hospital", "hospital", workload.PrescriptionsFixture()))
	// A report-level threshold over a non-aggregated report is statically
	// blocked.
	if err := e.AddPLAs(`
pla "src" { owner "hospital"; level source; scope "prescriptions"; allow attribute *; }
pla "thresh" { owner "hospital"; level report; scope "rx"; aggregate min 3 by patient; }`); err != nil {
		panic(err)
	}
	if err := e.DefineReport(&plabi.ReportDefinition{ID: "rx",
		Query: "SELECT patient, drug FROM prescriptions"}); err != nil {
		panic(err)
	}
	_, err := e.Render(context.Background(), "rx", plabi.Consumer{Name: "u", Role: "analyst"})
	if errors.Is(err, plabi.ErrPLAViolation) {
		var be *plabi.BlockedError
		if errors.As(err, &be) {
			fmt.Printf("blocked by %s (pla %s)\n", be.Decisions[0].Rule, be.Decisions[0].PLAs[0])
		}
	}
	// Output: blocked by aggregation-threshold (pla thresh)
}

// ExampleEngine_CompileReport specializes one (report, role, purpose)
// triple into its residual render program — thresholds baked, filters
// pre-bound, dead rules pruned — and prints the compiled plan the render
// hot path executes.
func ExampleEngine_CompileReport() {
	e := plabi.Open()
	e.AddSource(plabi.NewSource("hospital", "hospital", workload.PrescriptionsFixture()))
	if err := e.AddPLAs(`
pla "src" { owner "hospital"; level source; scope "prescriptions"; allow attribute *; }
pla "agg" { owner "hospital"; level report; scope "by-drug";
    deny attribute patient; aggregate min 2 by patient; }`); err != nil {
		panic(err)
	}
	if err := e.DefineReport(&plabi.ReportDefinition{ID: "by-drug",
		Query: "SELECT drug, COUNT(*) AS n FROM prescriptions GROUP BY drug"}); err != nil {
		panic(err)
	}
	c := plabi.Consumer{Name: "ana", Role: "analyst", Purpose: "quality"}
	prog, err := e.CompileReport("by-drug", c)
	if err != nil {
		panic(err)
	}
	fmt.Printf("plas=%v live=%d/%d thresholds=%d\n",
		prog.PLAs, prog.LiveRules, prog.TotalRules, len(prog.Thresholds))
	plan, err := e.ExplainCompiled("by-drug", c)
	if err != nil {
		panic(err)
	}
	fmt.Print(plan)
	// Output:
	// plas=[src agg] live=2/2 thresholds=1
	// residual program by-drug (role analyst, purpose quality)
	//   generations: report v1, policy 2, catalog 1, scope 0
	//   governing PLAs (2): src, agg
	//   rules: 2 total, 2 live, 0 pruned (PL001)
	//   thresholds (baked, 1):
	//     - min 2 by "patient" pla=[agg]
	//   row filters: none
	//   columns (2):
	//     - drug: release
	//     - n: aggregate (threshold-governed)
	//   pipeline: exec -> thresholds -> mask
}

// ExampleEngine_MetricsSnapshot reads the enforcement counters after a
// render; the same snapshot is served by DebugHandler on /metrics.
func ExampleEngine_MetricsSnapshot() {
	e := plabi.Open()
	e.AddSource(plabi.NewSource("hospital", "hospital", workload.PrescriptionsFixture()))
	if err := e.AddPLAs(`pla "p" { owner "hospital"; level source;
		scope "prescriptions"; allow attribute *; }`); err != nil {
		panic(err)
	}
	if err := e.DefineReport(&plabi.ReportDefinition{ID: "r",
		Query: "SELECT drug FROM prescriptions"}); err != nil {
		panic(err)
	}
	ctx := context.Background()
	c := plabi.Consumer{Name: "u", Role: "analyst"}
	for i := 0; i < 3; i++ {
		if _, err := e.Render(ctx, "r", c); err != nil {
			panic(err)
		}
	}
	s := e.MetricsSnapshot()
	fmt.Printf("renders=%d cache hits=%d misses=%d spans=%d\n",
		s.Counters["render.total"], s.Counters["cache.hits"],
		s.Counters["cache.misses"], s.Histograms["span.render"].Count)
	// Output: renders=3 cache hits=2 misses=1 spans=3
}
