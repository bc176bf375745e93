// Package plabi's root benchmark harness: one benchmark per experiment in
// DESIGN.md's index (E1–E11, regenerating each figure-level claim of the
// paper), plus micro-benchmarks of k-anonymization and the elicitation
// simulation. The relational, enforcement and serving layers are measured
// on sized data by bench/ (BENCHMARK.json).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package plabi

import (
	"fmt"
	"testing"

	"plabi/internal/anon"
	"plabi/internal/elicit"
	"plabi/internal/experiments"
	"plabi/internal/workload"
)

// benchExperiment runs one full experiment per iteration; the reported
// time is the cost of regenerating that figure end to end.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Lines) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkE1Pipeline regenerates Fig. 1: the end-to-end outsourced BI
// pipeline under PLAs at three scales.
func BenchmarkE1Pipeline(b *testing.B) { benchExperiment(b, "e1") }

// BenchmarkE2SourceEnforcement regenerates Fig. 2: source-level consent
// metadata, intensional associations, and the release filter.
func BenchmarkE2SourceEnforcement(b *testing.B) { benchExperiment(b, "e2") }

// BenchmarkE3ETLEnforcement regenerates Fig. 3: ETL-level join and
// integration permissions with lineage capture.
func BenchmarkE3ETLEnforcement(b *testing.B) { benchExperiment(b, "e3") }

// BenchmarkE4ReportEnforcement regenerates Fig. 4: the golden
// drug-consumption report with threshold sweep and the HIV condition.
func BenchmarkE4ReportEnforcement(b *testing.B) { benchExperiment(b, "e4") }

// BenchmarkE5Continuum regenerates Fig. 5: ease of elicitation vs
// stability across the four levels and four portfolio sizes.
func BenchmarkE5Continuum(b *testing.B) { benchExperiment(b, "e5") }

// BenchmarkE6OverEngineering regenerates the §3 over-engineering claim.
func BenchmarkE6OverEngineering(b *testing.B) { benchExperiment(b, "e6") }

// BenchmarkE7TestGeneration regenerates the §5–6 claim: PLA-derived test
// suites detect injected compliance bugs before deployment.
func BenchmarkE7TestGeneration(b *testing.B) { benchExperiment(b, "e7") }

// BenchmarkE8Anonymization regenerates the Fig. 2a anonymizing-release
// study: privacy guarantees vs aggregate utility.
func BenchmarkE8Anonymization(b *testing.B) { benchExperiment(b, "e8") }

// BenchmarkE9PlacementAblation regenerates the enforcement-placement
// ablation (source rewrite vs warehouse vs report-level).
func BenchmarkE9PlacementAblation(b *testing.B) { benchExperiment(b, "e9") }

// BenchmarkE10Granularity regenerates the §5 meta-report granularity
// ablation (narrow report-like metas vs one warehouse-like wide view).
func BenchmarkE10Granularity(b *testing.B) { benchExperiment(b, "e10") }

// BenchmarkE11Linkage regenerates the linkage-attack evaluation of the
// anonymizing release (raw vs k-anonymous vs k+l releases).
func BenchmarkE11Linkage(b *testing.B) { benchExperiment(b, "e11") }

// BenchmarkKAnonymize measures Mondrian k-anonymization.
func BenchmarkKAnonymize(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := workload.DefaultConfig(42)
			cfg.Patients = n
			ds, err := workload.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, err := anon.KAnonymize(ds.Residents, 5, []string{"age", "zip"})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkElicitationSimulation measures one full Fig. 5 evolution
// simulation (200 events over a 25-report portfolio).
func BenchmarkElicitationSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := elicit.BuildHealthcareScenario(42, 25)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := elicit.SimulateEvolution(s, 200, nil); err != nil {
			b.Fatal(err)
		}
	}
}
