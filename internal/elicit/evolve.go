package elicit

import (
	"fmt"
	"strings"

	"plabi/internal/metareport"
	"plabi/internal/policy"
	"plabi/internal/relation"
	"plabi/internal/report"
)

// EventKind enumerates the evolution events the simulator draws (§2 iii:
// "BI reports are in constant evolution").
type EventKind int

// Evolution event kinds.
const (
	// EvNewReportCovered creates a report over attributes the approved
	// meta-reports already expose.
	EvNewReportCovered EventKind = iota
	// EvNewReportUncovered creates a report needing a warehouse column no
	// meta-report exposes yet.
	EvNewReportUncovered
	// EvAddColumnCovered adds a covered column to an existing report.
	EvAddColumnCovered
	// EvAddColumnUncovered adds an uncovered warehouse column.
	EvAddColumnUncovered
	// EvChangeFilter changes a report's WHERE clause within covered
	// attributes.
	EvChangeFilter
	// EvDeleteReport removes a report.
	EvDeleteReport
	// EvNewDataRequirement needs a source column not yet loaded into the
	// warehouse (DW schema extension).
	EvNewDataRequirement
	// EvNewSource onboards an entirely new data source.
	EvNewSource
)

var eventKindNames = map[EventKind]string{
	EvNewReportCovered: "new-report-covered", EvNewReportUncovered: "new-report-uncovered",
	EvAddColumnCovered: "add-column-covered", EvAddColumnUncovered: "add-column-uncovered",
	EvChangeFilter: "change-filter", EvDeleteReport: "delete-report",
	EvNewDataRequirement: "new-data-requirement", EvNewSource: "new-source",
}

// String returns the event kind name.
func (k EventKind) String() string { return eventKindNames[k] }

// Mix is the probability mass of each event kind.
type Mix map[EventKind]float64

// DefaultMix reflects the paper's observation: most churn is new or
// modified reports over already-agreed data; schema-extending events are
// rare and new sources rarer still.
func DefaultMix() Mix {
	return Mix{
		EvNewReportCovered:   0.30,
		EvNewReportUncovered: 0.08,
		EvAddColumnCovered:   0.22,
		EvAddColumnUncovered: 0.08,
		EvChangeFilter:       0.20,
		EvDeleteReport:       0.05,
		EvNewDataRequirement: 0.05,
		EvNewSource:          0.02,
	}
}

// StabilityResult reports, for one level, how often the simulated
// evolution forced going back to the source owners — the vertical axis of
// Fig. 5 (stability decreases toward the report level).
type StabilityResult struct {
	Level          policy.Level
	Events         int
	Reelicitations int
	// Stability is 1 - Reelicitations/Events.
	Stability float64
	// ByKind breaks re-elicitations down by triggering event kind.
	ByKind map[string]int
}

// SimulateEvolution applies n random evolution events to the scenario and
// counts, per level, the events that would have required renegotiating
// PLAs with the source owners. The scenario is mutated (reports evolve,
// meta-reports are re-derived on meta-level re-elicitations, the
// warehouse schema grows on data-requirement events).
func SimulateEvolution(s *Scenario, n int, mix Mix) ([]StabilityResult, error) {
	if mix == nil {
		mix = DefaultMix()
	}
	results := map[policy.Level]*StabilityResult{}
	for _, lvl := range policy.Levels() {
		results[lvl] = &StabilityResult{Level: lvl, ByKind: map[string]int{}}
	}
	record := func(lvl policy.Level, kind EventKind) {
		results[lvl].Reelicitations++
		results[lvl].ByKind[kind.String()]++
	}

	dwhWidth := func() int {
		t, ok := s.Cat.Table(s.Warehouse)
		if !ok {
			return 0
		}
		return t.Schema.Len()
	}

	for i := 0; i < n; i++ {
		kind := s.drawEvent(mix)
		widthBefore := dwhWidth()
		touched, err := s.apply(kind, i)
		if err != nil {
			return nil, fmt.Errorf("elicit: event %d (%s): %w", i, kind, err)
		}
		for _, lvl := range policy.Levels() {
			results[lvl].Events++
		}

		// Report level: every event that creates or modifies a delivered
		// report needs a fresh agreement on that report.
		switch kind {
		case EvNewReportCovered, EvNewReportUncovered, EvAddColumnCovered,
			EvAddColumnUncovered, EvChangeFilter, EvNewDataRequirement, EvNewSource:
			record(policy.LevelReport, kind)
		}

		// Meta-report level: re-elicit only when a touched report is no
		// longer derivable from the approved metas (checked with the real
		// containment machinery); then extend the metas.
		metaReelicit := false
		for _, id := range touched {
			d, ok := s.Reports.Get(id)
			if !ok {
				continue
			}
			covering, _, err := metareport.CoveringMeta(s.Cat, d, s.Metas)
			if err != nil {
				return nil, err
			}
			if covering == nil {
				metaReelicit = true
			}
		}
		if metaReelicit {
			record(policy.LevelMetaReport, kind)
			if err := s.rederiveMetas(); err != nil {
				return nil, err
			}
			s.rebuildPools()
		}

		// Warehouse level: re-elicit when the DW schema actually grew
		// (re-requesting an already-loaded column costs nothing).
		if (kind == EvNewDataRequirement || kind == EvNewSource) && dwhWidth() > widthBefore {
			record(policy.LevelWarehouse, kind)
		}
		// Source level: re-elicit only when a new source (new owner /
		// new agreement partner) appears.
		if kind == EvNewSource {
			record(policy.LevelSource, kind)
		}
	}

	out := make([]StabilityResult, 0, 4)
	for _, lvl := range policy.Levels() {
		r := results[lvl]
		if r.Events > 0 {
			r.Stability = 1 - float64(r.Reelicitations)/float64(r.Events)
		}
		out = append(out, *r)
	}
	return out, nil
}

func (s *Scenario) drawEvent(mix Mix) EventKind {
	x := s.rng.Float64()
	acc := 0.0
	kinds := []EventKind{EvNewReportCovered, EvNewReportUncovered, EvAddColumnCovered,
		EvAddColumnUncovered, EvChangeFilter, EvDeleteReport, EvNewDataRequirement, EvNewSource}
	for _, k := range kinds {
		acc += mix[k]
		if x < acc {
			return k
		}
	}
	return EvNewReportCovered
}

func (s *Scenario) pick(pool []string) (string, bool) {
	if len(pool) == 0 {
		return "", false
	}
	return pool[s.rng.Intn(len(pool))], true
}

func (s *Scenario) randomReportID() (string, bool) {
	all := s.Reports.All()
	if len(all) == 0 {
		return "", false
	}
	return all[s.rng.Intn(len(all))].ID, true
}

// apply executes one event against the scenario, returning the report ids
// whose definitions changed (for derivability checking).
func (s *Scenario) apply(kind EventKind, seq int) ([]string, error) {
	switch kind {
	case EvNewReportCovered, EvNewReportUncovered:
		pool := s.coveredCols
		if kind == EvNewReportUncovered {
			if len(s.dwUnusedCols) == 0 {
				pool = s.coveredCols // degraded to covered
			} else {
				pool = s.dwUnusedCols
			}
		}
		col, ok := s.pick(pool)
		if !ok {
			return nil, nil
		}
		group, ok := s.pick(s.coveredCols)
		if !ok {
			group = col
		}
		s.nextID++
		id := fmt.Sprintf("evo-report-%d", s.nextID)
		q := fmt.Sprintf("SELECT %s, COUNT(*) AS n FROM %s GROUP BY %s", col, s.Warehouse, col)
		if group != col {
			q = fmt.Sprintf("SELECT %s, %s, COUNT(*) AS n FROM %s GROUP BY %s, %s",
				group, col, s.Warehouse, group, col)
		}
		if err := s.Reports.Create(&report.Definition{ID: id, Title: id, Query: q}); err != nil {
			return nil, err
		}
		return []string{id}, nil

	case EvAddColumnCovered, EvAddColumnUncovered:
		id, ok := s.randomReportID()
		if !ok {
			return nil, nil
		}
		pool := s.coveredCols
		if kind == EvAddColumnUncovered && len(s.dwUnusedCols) > 0 {
			pool = s.dwUnusedCols
		}
		col, ok := s.pick(pool)
		if !ok {
			return nil, nil
		}
		d, _ := s.Reports.Get(id)
		if strings.Contains(d.Query, col) {
			// Already present; treat as a minimum-change event.
			return []string{id}, nil
		}
		// Aggregated reports get an aggregate column; append as
		// COUNT(DISTINCT col) which is always valid.
		if err := s.Reports.AddColumn(id, "COUNT(DISTINCT "+col+")", "d_"+col+itoa(seq)); err != nil {
			return nil, err
		}
		return []string{id}, nil

	case EvChangeFilter:
		id, ok := s.randomReportID()
		if !ok {
			return nil, nil
		}
		col, ok := s.pick(s.coveredCols)
		if !ok {
			return nil, nil
		}
		if err := s.Reports.SetFilter(id, col+" IS NOT NULL"); err != nil {
			return nil, err
		}
		return []string{id}, nil

	case EvDeleteReport:
		id, ok := s.randomReportID()
		if !ok || s.Reports == nil {
			return nil, nil
		}
		all := s.Reports.All()
		if len(all) <= 2 {
			return nil, nil // keep a minimal portfolio alive
		}
		if err := s.Reports.Delete(id); err != nil {
			return nil, err
		}
		return nil, nil

	case EvNewDataRequirement:
		// Load a source-only column into the warehouse, then use it in a
		// new report.
		qualified, ok := s.pick(s.sourceOnlyCols)
		if !ok {
			return s.apply(EvNewReportUncovered, seq)
		}
		parts := strings.SplitN(qualified, ".", 2)
		col := parts[1]
		if err := s.extendWarehouse(col); err != nil {
			return nil, err
		}
		s.nextID++
		id := fmt.Sprintf("evo-report-%d", s.nextID)
		q := fmt.Sprintf("SELECT %s, COUNT(*) AS n FROM %s GROUP BY %s", col, s.Warehouse, col)
		if err := s.Reports.Create(&report.Definition{ID: id, Title: id, Query: q}); err != nil {
			return nil, err
		}
		s.rebuildPools()
		return []string{id}, nil

	case EvNewSource:
		// A new owner's table appears and is loaded + reported on.
		s.nextID++
		name := fmt.Sprintf("newsource%d", s.nextID)
		col := name + "_metric"
		t := relation.NewBase(name, relation.NewSchema(
			relation.Col("patient", relation.TString),
			relation.Col(col, relation.TInt),
		))
		t.AppendVals(relation.Str("Alice Rossi"), relation.Int(1))
		s.Cat.Register(t)
		s.SourceTables = append(s.SourceTables, name)
		if err := s.extendWarehouse(col); err != nil {
			return nil, err
		}
		id := fmt.Sprintf("evo-report-%d", s.nextID)
		q := fmt.Sprintf("SELECT %s, COUNT(*) AS n FROM %s GROUP BY %s", col, s.Warehouse, col)
		if err := s.Reports.Create(&report.Definition{ID: id, Title: id, Query: q}); err != nil {
			return nil, err
		}
		s.rebuildPools()
		return []string{id}, nil
	}
	return nil, nil
}

// extendWarehouse adds a (synthetic NULL-filled) column to the warehouse
// table, modelling a DW schema extension.
func (s *Scenario) extendWarehouse(col string) error {
	dwh, ok := s.Cat.Table(s.Warehouse)
	if !ok {
		return fmt.Errorf("elicit: warehouse %q missing", s.Warehouse)
	}
	if dwh.Schema.HasColumn(col) {
		return nil
	}
	next := relation.NewBase(s.Warehouse, &relation.Schema{
		Columns: append(append([]relation.Column(nil), dwh.Schema.Columns...),
			relation.Col(col, relation.TString)),
	})
	cur, err := dwh.Materialize()
	if err != nil {
		return err
	}
	for _, r := range cur.Rows {
		nr := make(relation.Row, len(r)+1)
		copy(nr, r)
		nr[len(r)] = relation.Str("x")
		next.Rows = append(next.Rows, nr)
	}
	s.Cat.Register(next)
	return nil
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }
