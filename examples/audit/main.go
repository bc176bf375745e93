// Audit: the paper's enforcement-and-auditing challenge (§2 iv) —
// PLA-derived compliance tests catch a non-compliant implementation
// before deployment, and a challenged report cell is resolved to its
// source cells, transformations, and governing agreements.
package main

import (
	"context"
	_ "embed"
	"fmt"
	"log"
	"os"

	"plabi"
	"plabi/internal/relation"
	"plabi/internal/workload"
)

// The agreements governing the audited deployment, kept as a standalone
// lintable DSL file (`plalint policy.pla`).
//
//go:embed policy.pla
var policyDSL string

func main() {
	// Stream the audit trail to stderr-free storage as it is written; the
	// in-memory log stays queryable.
	engine := plabi.Open()
	engine.AddSource(plabi.NewSource("hospital", "hospital", workload.Fig4Prescriptions(1)))
	if err := engine.AddPLAs(policyDSL); err != nil {
		log.Fatal(err)
	}
	def := &plabi.ReportDefinition{ID: "drug-consumption", Title: "Drug consumption",
		Query: "SELECT drug, COUNT(*) AS consumption FROM prescriptions GROUP BY drug ORDER BY drug"}
	if err := engine.DefineReport(def); err != nil {
		log.Fatal(err)
	}
	consumer := plabi.Consumer{Name: "ana", Role: "analyst", Purpose: "quality"}

	// 1. Generate the compliance suite from the agreed PLAs (§6:
	// "policies tested before they are put in operation").
	tests, err := engine.ComplianceSuite("drug-consumption", consumer)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d compliance tests from the PLAs\n", len(tests))

	// 2. A buggy implementation (the report's query over the raw table,
	// threshold forgotten) fails.
	raw, err := buggyDrugConsumption(engine)
	if err != nil {
		log.Fatal(err)
	}
	if fails := plabi.RunComplianceTests(tests, raw); len(fails) > 0 {
		fmt.Println("unenforced output DETECTED as non-compliant:")
		for _, f := range fails {
			fmt.Println("  FAIL:", f)
		}
	}

	// 3. The enforced output passes.
	enf, err := engine.Render(context.Background(), "drug-consumption", consumer)
	if err != nil {
		log.Fatal(err)
	}
	if fails := plabi.RunComplianceTests(tests, enf.Table); len(fails) == 0 {
		fmt.Println("enforced output passes the suite")
	}
	fmt.Println()
	fmt.Println(plabi.FormatTable("Drug consumption (enforced)", enf.Table))

	// 4. Dispute resolution: the DR count is challenged — trace it.
	for i := 0; i < enf.Table.NumRows(); i++ {
		if enf.Table.Get(i, "drug").S != "DR" {
			continue
		}
		dispute, err := engine.ResolveDispute(enf.Table, i, "consumption")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(dispute)
	}

	// 5. The audit trail is exportable as JSONL for third-party auditors.
	fmt.Printf("audit events recorded: %d (JSONL follows)\n", engine.Audit().Len())
	if err := engine.Audit().WriteJSONL(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// buggyDrugConsumption computes the drug-consumption report the way a
// non-compliant implementation would: straight from the prescriptions
// table, with no enforcement. Its rows keep their lineage, so the suite
// can count each row's supporting patients.
func buggyDrugConsumption(engine *plabi.Engine) (*plabi.Table, error) {
	rx, ok := engine.Table("prescriptions")
	if !ok {
		return nil, fmt.Errorf("no prescriptions table")
	}
	counts, err := relation.GroupBy(rx, []string{"drug"},
		[]relation.AggSpec{{Kind: relation.AggCount, As: "consumption"}})
	if err != nil {
		return nil, err
	}
	return relation.Sort(counts, relation.SortKey{Col: "drug"})
}
