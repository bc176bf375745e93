// Command bidemo runs the paper's Fig. 1 outsourcing scenario end to end:
// multi-owner sources, PLAs, guarded ETL, warehouse load, enforced report
// rendering for two consumer roles, and an audit-trail summary with one
// provenance-backed dispute resolution — all through the public plabi API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"

	"plabi"
)

func main() {
	seed := flag.Int64("seed", 42, "workload seed")
	n := flag.Int("n", 5000, "number of prescriptions")
	showAudit := flag.Bool("audit", false, "dump the full audit log (JSONL)")
	workers := flag.Int("workers", 0, "enforcement workers (0 = one per CPU)")
	showMetrics := flag.Bool("metrics", false, "dump the metrics snapshot (JSON) after the run")
	serve := flag.String("serve", "", "serve /metrics and /debug/pprof on this address after the run (e.g. localhost:6060)")
	doLint := flag.Bool("lint", false, "statically lint the loaded scenario before serving; refuse to start on error-severity findings")
	chaos := flag.String("chaos", "", `fault-injection schedule, e.g. "render.worker:panic:0.05,audit.sink.write:error:0.2:transient"`)
	chaosSeed := flag.Int64("chaos-seed", 1, "fault-injector seed (fixed seed replays the same schedule)")
	flag.Parse()

	opts := []plabi.Option{plabi.WithWorkers(*workers)}
	var injector *plabi.FaultInjector
	if *chaos != "" {
		injector = plabi.NewFaultInjector(*chaosSeed)
		if err := injector.EnableSpec(*chaos); err != nil {
			fmt.Fprintln(os.Stderr, "bidemo: -chaos:", err)
			os.Exit(1)
		}
		opts = append(opts, plabi.WithFaultInjector(injector))
	}

	ctx := context.Background()
	e, err := plabi.OpenHealthcare(
		plabi.HealthcareConfig{Seed: *seed, Prescriptions: *n}, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bidemo:", err)
		os.Exit(1)
	}
	if *doLint {
		findings := plabi.Lint(e)
		if len(findings) > 0 {
			if err := plabi.WriteLintText(os.Stderr, findings); err != nil {
				fmt.Fprintln(os.Stderr, "bidemo:", err)
				os.Exit(1)
			}
		}
		if max, ok := plabi.MaxLintSeverity(findings); ok && max >= plabi.LintError {
			fmt.Fprintln(os.Stderr, "bidemo: refusing to start: scenario has error-severity lint findings")
			os.Exit(1)
		}
		fmt.Printf("lint: %d finding(s), none at error severity\n", len(findings))
	}
	for _, name := range []string{"prescriptions", "familydoctor", "drugcost", "labresults", "residents"} {
		if t, ok := e.Table(name); ok {
			fmt.Printf("source %s: %d rows\n", name, t.NumRows())
		}
	}
	fmt.Printf("meta-reports approved: %d\n\n", len(e.MetaReports()))

	consumers := []plabi.Consumer{
		{Name: "ana", Role: "analyst", Purpose: "quality"},
		{Name: "aud", Role: "auditor", Purpose: "quality"},
	}
	for _, c := range consumers {
		fmt.Printf("--- consumer %s (role=%s) ---\n", c.Name, c.Role)
		for _, d := range e.Reports() {
			enf, err := e.Render(ctx, d.ID, c)
			var blocked *plabi.BlockedError
			if errors.As(err, &blocked) {
				fmt.Printf("%s: BLOCKED (%s)\n", d.ID, blocked.Decisions[0].Rule)
				continue
			}
			if err != nil {
				// Under chaos, injected faults, isolated panics and
				// renders refused for want of an audit line are
				// expected outcomes, not crashes: report them and keep
				// serving.
				if injector != nil && (errors.Is(err, plabi.ErrInjected) ||
					errors.Is(err, plabi.ErrInternal) || errors.Is(err, plabi.ErrAuditUnavailable)) {
					fmt.Printf("%s: FAILED (%v)\n", d.ID, err)
					continue
				}
				fmt.Fprintln(os.Stderr, "bidemo:", err)
				os.Exit(1)
			}
			fmt.Printf("%s: %d rows, %d cells masked, %d rows suppressed, %d decisions\n",
				d.ID, enf.Table.NumRows(), enf.MaskedCells, enf.SuppressedRows, len(enf.Decisions))
			if d.ID == "drug-consumption" && enf.Table.NumRows() > 0 {
				fmt.Println(plabi.FormatTable(d.Title, enf.Table))
			}
		}
		fmt.Println()
	}

	// Dispute resolution: where does the first drug-consumption number
	// come from, and under which agreements?
	enf, err := e.Render(ctx, "drug-consumption", consumers[0])
	if err == nil && enf.Table.NumRows() > 0 {
		d, derr := e.ResolveDispute(enf.Table, 0, "consumption")
		if derr == nil {
			fmt.Println(d)
		}
	}

	stats := e.CacheStats()
	fmt.Printf("decision cache: %d hits / %d misses (%d entries)\n",
		stats.Hits, stats.Misses, stats.Entries)
	fmt.Printf("audit log: %d events (%d renders, %d transforms, %d violations)\n",
		e.Audit().Len(), len(e.Audit().ByKind("render")),
		len(e.Audit().ByKind("transform")), len(e.Audit().Violations()))
	if injector != nil {
		fmt.Println(injector)
	}
	if *showAudit {
		if err := e.Audit().WriteJSONL(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bidemo:", err)
			os.Exit(1)
		}
	}
	if *showMetrics {
		if err := e.WriteMetricsJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bidemo:", err)
			os.Exit(1)
		}
	}
	if *serve != "" {
		fmt.Printf("serving /metrics and /debug/pprof on http://%s\n", *serve)
		if err := http.ListenAndServe(*serve, e.DebugHandler()); err != nil {
			fmt.Fprintln(os.Stderr, "bidemo:", err)
			os.Exit(1)
		}
	}
}
