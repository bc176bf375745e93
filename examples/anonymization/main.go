// Anonymization: the paper's Fig. 2a release filter — a municipality
// releases resident demographics to the BI provider only after
// k-anonymization with l-diversity, plus pseudonymized identities; the
// aggregate report computed downstream keeps its shape.
package main

import (
	_ "embed"
	"fmt"
	"log"

	"plabi"
	"plabi/internal/anon"
	"plabi/internal/relation"
	"plabi/internal/workload"
)

// The municipality's release agreement, kept as a standalone lintable
// DSL file (`plalint policy.pla`).
//
//go:embed policy.pla
var policyDSL string

func main() {
	ds, err := workload.Generate(workload.DefaultConfig(7))
	if err != nil {
		log.Fatal(err)
	}

	engine := plabi.Open()
	engine.AddSource(plabi.NewSource("municipality", "municipality", ds.Residents))
	if err := engine.AddPLAs(policyDSL); err != nil {
		log.Fatal(err)
	}

	released, rep, err := engine.ReleaseSource(ds.Residents)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("released %d of %d rows (%d suppressed to honour k=5/l=2)\n",
		released.NumRows(), rep.RowsIn, rep.RowsSuppressed)
	fmt.Printf("equivalence classes: %d, average size %.1f, discernibility %d\n",
		rep.KAnonStats.Partitions, rep.KAnonStats.AvgClassSize, rep.KAnonStats.Discernibility)
	fmt.Printf("anonymized columns: %v\n\n", rep.ColumnsAnon)

	// Show a few released rows: identities are pseudonyms, QI are ranges.
	fmt.Println("sample of the BI-accessible data:")
	fmt.Println(relation.Limit(released, 5))

	// Verify the guarantees hold on what actually left the source.
	okK, _, err := anon.CheckKAnonymity(released, 5, []string{"age", "zip"})
	if err != nil {
		log.Fatal(err)
	}
	okL, err := anon.CheckLDiversity(released, 2, []string{"age", "zip"}, "municipality")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("5-anonymity holds: %v, 2-diversity holds: %v\n", okK, okL)
}
