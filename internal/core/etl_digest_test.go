package core

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"plabi/internal/workload"
)

// etlDigest hashes what the scenario ETL leaves in the catalog: per table,
// sorted by name, its column names, every cell (kind and key), every row's
// lineage set and every column's origins — what any storage of a table
// must reproduce exactly.
func etlDigest(t *testing.T, e *Engine) string {
	t.Helper()
	h := sha256.New()
	names := e.Catalog.TableNames()
	sort.Strings(names)
	for _, name := range names {
		tb, _ := e.Catalog.Table(name)
		m, err := tb.Materialize()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(h, "table %s %v %d\n", name, tb.Schema.ColumnNames(), tb.NumRows())
		for i, row := range m.Rows {
			for _, v := range row {
				fmt.Fprintf(h, "%d:%s|", v.Kind, v.Key())
			}
			fmt.Fprintf(h, " %v\n", tb.RowLineage(i))
		}
		for c := range tb.Schema.Columns {
			fmt.Fprintf(h, "origin %d %v\n", c, tb.ColumnOrigin(c))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestETLOutputDigest pins the scenario ETL's output at 2 000
// prescriptions for three seeds: cells, lineage and column origins of
// every table it registers. The digests were computed before the tables
// stored their cells as vectors, and the joins gathered them, and are
// expected to hold under any later change of representation.
func TestETLOutputDigest(t *testing.T) {
	want := map[int64]string{
		1: "46479bdc024300eb377fa469b6f2ac0d15a4b1cfedd94eac52e3322d6f74b33d",
		2: "11da8800c1f13d117d5ec695741d27f2d339723907cf325f11698eb039540528",
		3: "00b9566e5ebe3e9a60e42a6d2be5b6c9a21403f1b76e767c264e368ef367389e",
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := workload.DefaultConfig(seed)
		cfg.Prescriptions = 2000
		e, _, err := BuildHealthcareEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := etlDigest(t, e); got != want[seed] {
			t.Errorf("seed %d: ETL output digest %s, want %s", seed, got, want[seed])
		}
	}
}
