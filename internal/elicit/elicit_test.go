package elicit

import (
	"testing"

	"plabi/internal/policy"
	"plabi/internal/sql"
)

// profileOK reports whether a query still profiles.
func profileOK(cat *sql.Catalog, q string) bool {
	_, err := sql.ProfileSQL(cat, q)
	return err == nil
}

func scenario(t *testing.T, seed int64, n int) *Scenario {
	t.Helper()
	s, err := BuildHealthcareScenario(seed, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildScenario(t *testing.T) {
	s := scenario(t, 42, 8)
	if len(s.Reports.All()) != 8 {
		t.Errorf("reports = %d", len(s.Reports.All()))
	}
	if len(s.Metas) == 0 {
		t.Fatal("no meta-reports derived")
	}
	for _, d := range s.Reports.All() {
		if s.Assign[d.ID] == "" {
			t.Errorf("report %s unassigned", d.ID)
		}
		if !profileOK(s.Cat, d.Query) {
			t.Errorf("report %s does not profile", d.ID)
		}
	}
	if len(s.coveredCols) == 0 || len(s.sourceOnlyCols) == 0 {
		t.Errorf("pools: covered=%v sourceOnly=%v", s.coveredCols, s.sourceOnlyCols)
	}
}

// TestFig5EaseMonotonic verifies the horizontal axis of Fig. 5: per-
// discussion vocabulary shrinks (ease grows) monotonically from source to
// report level.
func TestFig5EaseMonotonic(t *testing.T) {
	s := scenario(t, 42, 8)
	costs, err := MeasureCosts(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 4 {
		t.Fatalf("levels = %d", len(costs))
	}
	order := []policy.Level{policy.LevelSource, policy.LevelWarehouse, policy.LevelMetaReport, policy.LevelReport}
	for i, lvl := range order {
		if costs[i].Level != lvl {
			t.Fatalf("order = %v", costs)
		}
	}
	for i := 1; i < 4; i++ {
		if costs[i].Ease < costs[i-1].Ease {
			t.Errorf("ease not monotonic: %s %.3f -> %s %.3f",
				costs[i-1].Level, costs[i-1].Ease, costs[i].Level, costs[i].Ease)
		}
	}
}

// TestFig5OverEngineeringMonotonic verifies §3's claim: over-engineering
// shrinks from source to report level, hitting 0 at the reports.
func TestFig5OverEngineeringMonotonic(t *testing.T) {
	s := scenario(t, 42, 8)
	costs, err := MeasureCosts(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if costs[i].OverEngineering > costs[i-1].OverEngineering+1e-9 {
			t.Errorf("over-engineering not monotonic: %s %.3f -> %s %.3f",
				costs[i-1].Level, costs[i-1].OverEngineering, costs[i].Level, costs[i].OverEngineering)
		}
	}
	if costs[0].OverEngineering <= 0 {
		t.Errorf("source level should over-engineer: %.3f", costs[0].OverEngineering)
	}
	if costs[3].OverEngineering != 0 {
		t.Errorf("report level should never over-engineer: %.3f", costs[3].OverEngineering)
	}
}

// TestFig5StabilityMonotonic verifies the vertical axis of Fig. 5:
// stability decreases monotonically from source to report level, with
// meta-reports strictly between warehouse and reports.
func TestFig5StabilityMonotonic(t *testing.T) {
	s := scenario(t, 42, 10)
	res, err := SimulateEvolution(s, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("levels = %d", len(res))
	}
	for i := 1; i < 4; i++ {
		if res[i].Stability > res[i-1].Stability+1e-9 {
			t.Errorf("stability not monotonic: %s %.3f -> %s %.3f",
				res[i-1].Level, res[i-1].Stability, res[i].Level, res[i].Stability)
		}
	}
	// Meta-reports must beat plain reports decisively.
	if res[2].Stability <= res[3].Stability {
		t.Errorf("meta %.3f should exceed report %.3f", res[2].Stability, res[3].Stability)
	}
	// Reports churn on most events.
	if res[3].Stability > 0.35 {
		t.Errorf("report stability suspiciously high: %.3f", res[3].Stability)
	}
	// Sources are nearly immutable.
	if res[0].Stability < 0.9 {
		t.Errorf("source stability too low: %.3f", res[0].Stability)
	}
	for _, r := range res {
		if r.Events != 200 {
			t.Errorf("%s events = %d", r.Level, r.Events)
		}
		if r.Reelicitations != 200-int(r.Stability*200+0.5) {
			t.Errorf("%s accounting: %d vs %.3f", r.Level, r.Reelicitations, r.Stability)
		}
	}
}

func TestSimulationDeterministic(t *testing.T) {
	a, err := SimulateEvolution(scenario(t, 7, 6), 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateEvolution(scenario(t, 7, 6), 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Reelicitations != b[i].Reelicitations {
			t.Errorf("%s: %d vs %d", a[i].Level, a[i].Reelicitations, b[i].Reelicitations)
		}
	}
}

func TestEvolutionKeepsReportsValid(t *testing.T) {
	s := scenario(t, 3, 6)
	if _, err := SimulateEvolution(s, 150, nil); err != nil {
		t.Fatal(err)
	}
	for _, d := range s.Reports.All() {
		if !profileOK(s.Cat, d.Query) {
			t.Errorf("report %s broken after evolution: %q", d.ID, d.Query)
		}
	}
	// Pools stay coherent.
	if len(s.coveredCols) == 0 {
		t.Error("covered pool emptied")
	}
}

func TestMixVariants(t *testing.T) {
	// A report-churn-only mix: sources and warehouse never re-elicit.
	mix := Mix{EvNewReportCovered: 0.5, EvChangeFilter: 0.5}
	res, err := SimulateEvolution(scenario(t, 9, 6), 80, mix)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Reelicitations != 0 || res[1].Reelicitations != 0 {
		t.Errorf("source/warehouse should be untouched: %v", res)
	}
	if res[3].Reelicitations != 80 {
		t.Errorf("report should re-elicit on every event: %d", res[3].Reelicitations)
	}
}

func TestEventKindNames(t *testing.T) {
	if EvNewSource.String() != "new-source" || EvChangeFilter.String() != "change-filter" {
		t.Error("bad names")
	}
	total := 0.0
	for _, p := range DefaultMix() {
		total += p
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("default mix sums to %f", total)
	}
}
