// Package plabi is a from-scratch Go reproduction of "Engineering
// Privacy Requirements in Business Intelligence Applications" (Chiasera,
// Casati, Daniel, Velegrakis — SDM 2008): a privacy-aware BI engine in
// which Privacy Level Agreements elicited from data-source owners are
// modeled, enforced, tested and audited at four levels of the BI stack —
// sources, warehouse/ETL, meta-reports, and delivered reports.
//
// The root package is the public API. Open an engine with functional
// options, register sources and PLAs, run guarded ETL, and render
// enforced reports:
//
//	engine := plabi.Open(plabi.WithAuditSink(w), plabi.WithWorkers(8))
//	engine.AddSource(plabi.NewSource("hospital", "hospital", table))
//	err := engine.AddPLAs(`pla "p" { owner "hospital"; level source;
//	    scope "prescriptions"; allow attribute drug; }`)
//	err = engine.DefineReport(&plabi.ReportDefinition{ID: "rx",
//	    Query: "SELECT drug FROM prescriptions"})
//	enf, err := engine.Render(ctx, "rx", plabi.Consumer{Role: "analyst"})
//
// Render, RunETL and CheckReportCompliance take a context.Context and
// are safe to call from many goroutines at once. Enforcement decisions
// that do not depend on the data (PLA composition, static checks,
// parsed plans) are cached per (report, role, purpose) in a sharded
// cache invalidated by generation counters, so AddPLAs and
// DeriveMetaReports take effect on the very next render. Refusals are
// typed: errors.Is(err, plabi.ErrPLAViolation) matches any enforcement
// block and errors.As recovers the *plabi.BlockedError carrying the
// decisions.
//
// Every engine is observable: a dependency-free metrics registry
// (counters, gauges, latency histograms) and span tracer instrument the
// whole enforcement path. MetricsSnapshot reads every metric (the
// decision-cache counters folded in), WriteMetricsJSON and DebugHandler
// expose the same snapshot as JSON and over HTTP (/metrics plus
// /debug/pprof), and Spans returns recent operations with their
// correlation ids — the same ids stamped on the audit events each
// operation appended, so the audit trail, metrics and spans join on one
// id. Ids are deterministic; WithCorrelationID stitches in an external
// request id.
// README.md § Observability lists every exported metric name.
//
// Engine lifecycle: an engine's configuration is fixed when it is opened;
// nothing re-configures it afterwards. Open and OpenHealthcare validate
// the options by one rule — option misuse (negative worker or cache
// bounds, a nil injector, retry overrides for a site that never
// retries) is returned as an error by OpenHealthcare, and Open, which has
// no error path, panics with that same error.
//
// An engine needs no explicit shutdown unless it streams audit events: Close
// flushes and closes the audit sink (when the writer supports it) and
// detaches it, so the trail reaches stable storage before the writer is
// released. Close never interrupts in-flight operations — worker pools
// are per-operation and drain with them — so callers stop issuing work,
// let it drain, then Close. This is exactly the teardown plabid performs
// when a tenant's policy bundle is swapped: build the new engine, swap
// the serving pointer, drain the old engine's in-flight requests, Close.
// WithRetryPolicyFor tunes the retry budget per operational site, e.g.
// retrying audit.sink.write much harder than etl.extract: a render whose
// audit line does not reach the sink is refused, so the budget is how
// long a sink may hiccup before renders stop.
//
// plabi.OpenHealthcare assembles the paper's Fig. 1 healthcare scenario
// (five owners, scenario PLAs, guarded ETL, report portfolio, approved
// meta-reports) over a deterministic synthetic workload. See README.md
// for the tour, docs/ARCHITECTURE.md for the level-by-level data flow,
// docs/PLA_REFERENCE.md for the PLA language, DESIGN.md for the system
// inventory and concurrency model, and EXPERIMENTS.md for the
// paper-claim vs measured results. bench_test.go carries one benchmark
// per experiment; bench/ (BENCHMARK.json) measures the render, ETL and
// serving paths on sized data.
package plabi
