package enforce

import (
	"context"
	"fmt"
	"strings"
	"time"

	"plabi/internal/anon"
	"plabi/internal/fault"
	"plabi/internal/metadata"
	"plabi/internal/obs"
	"plabi/internal/policy"
	"plabi/internal/relation"
)

// SourceEnforcer implements the paper's Fig. 2a data filter/anonymization
// box: before a source's data becomes BI-accessible, row filters, per-row
// consent metadata, per-attribute anonymization, and table-level release
// (k-anonymity / l-diversity) requirements are applied.
type SourceEnforcer struct {
	Registry *policy.Registry
	// Metadata optionally supplies per-row consent (Fig. 2b Policies and
	// intensional associations). Keys of the form "Show<Column>" mask
	// that column on rows where the value is boolean false.
	Metadata *metadata.Store
	// Hierarchies resolves generalize rules; defaults are used when nil.
	Hierarchies anon.HierarchySet
	// PseudonymKey keys the pseudonymizer.
	PseudonymKey []byte
	// PerturbSeed seeds perturbation noise.
	PerturbSeed int64
	// ConsentAliases maps consent-key suffixes to column names when they
	// differ (e.g. the paper's "ShowName" governs the "patient" column).
	ConsentAliases map[string]string
	// Now is the reference date for retention enforcement; the zero value
	// disables retention (useful for deterministic replays).
	Now time.Time
	// Metrics, when non-nil, receives release timings and intervention
	// counters (release.* names).
	Metrics *obs.Metrics
	// RetentionColumns maps a table name to the date column its retention
	// window is measured on; tables not listed default to a column named
	// "date" when present.
	RetentionColumns map[string]string
	// Faults, when non-nil, is consulted at the release.source site before
	// any rows are released, so chaos schedules cover source releases: an
	// injected failure degrades into a typed error and no partially
	// anonymized table ever becomes BI-accessible.
	Faults *fault.Injector
}

// ReleaseReport summarizes one source release.
type ReleaseReport struct {
	RowsIn         int
	RowsFiltered   int // removed by PLA row filters
	CellsMasked    int // blanked by consent metadata
	ColumnsAnon    []string
	RowsSuppressed int // removed by k-anonymity / l-diversity
	KAnonStats     anon.Stats
	Decisions      []Decision
}

// MaskValue is the placeholder released in place of a masked cell.
var MaskValue = relation.Str("***")

// Release produces the BI-accessible version of a source table under its
// source-level PLAs. A segment-backed table is read into memory first:
// consent, anonymization and the release rules work on its rows.
func (e *SourceEnforcer) Release(t *relation.Table) (*relation.Table, *ReleaseReport, error) {
	start := time.Now()
	if err := e.Faults.Hit(context.Background(), fault.SiteReleaseSource); err != nil {
		return nil, nil, fmt.Errorf("enforce: release %s: %w", t.Name, err)
	}
	mem, err := t.Materialize()
	if err != nil {
		return nil, nil, fmt.Errorf("enforce: release %s: %w", t.Name, err)
	}
	t = mem
	comp := e.Registry.ForScope(policy.LevelSource, t.Name)
	rep := &ReleaseReport{RowsIn: t.NumRows()}
	cur := t

	// 1. Row filters (VPD-style restriction at the source).
	for _, f := range comp.Filters() {
		sel, err := relation.Select(cur, f)
		if err != nil {
			return nil, nil, fmt.Errorf("enforce: release filter: %w", err)
		}
		removed := cur.NumRows() - sel.NumRows()
		if removed > 0 {
			rep.Decisions = append(rep.Decisions, Decision{
				Outcome: SuppressRow, Rule: "row-filter", Subject: t.Name,
				Detail: fmt.Sprintf("%d rows removed by %s", removed, f),
			})
		}
		rep.RowsFiltered += removed
		cur = sel
	}

	// 2. Retention: rows older than the strictest agreed window (and
	// rows whose age is unknown) are not released.
	if days := comp.Retention(); days > 0 && !e.Now.IsZero() {
		col := e.retentionColumn(t)
		if ci := cur.Schema.Index(col); ci >= 0 {
			cutoff := relation.Date(e.Now.AddDate(0, 0, -days))
			kept, err := relation.Select(cur,
				relation.Bin(relation.OpGe, relation.ColRefExpr(col), relation.Lit(cutoff)))
			if err != nil {
				return nil, nil, fmt.Errorf("enforce: retention: %w", err)
			}
			removed := cur.NumRows() - kept.NumRows()
			if removed > 0 {
				rep.RowsFiltered += removed
				rep.Decisions = append(rep.Decisions, Decision{
					Outcome: SuppressRow, Rule: "retention", Subject: t.Name,
					Detail: fmt.Sprintf("%d rows older than %d days (reference %s)",
						removed, days, e.Now.Format(relation.DateLayout)),
				})
			}
			cur = kept
		}
	}

	// 3. Per-row consent metadata: Show<Column>=false masks that cell.
	if e.Metadata != nil {
		masked, nMasked, err := e.applyConsent(cur, t.Name, rep)
		if err != nil {
			return nil, nil, err
		}
		rep.CellsMasked = nMasked
		cur = masked
	}

	// 4. Per-attribute anonymization.
	pseudo := anon.NewPseudonymizer(e.pseudoKey())
	for _, rule := range comp.AnonymizeRules() {
		if cur.Schema.Index(rule.Attribute) < 0 {
			continue
		}
		var err error
		switch rule.Method {
		case policy.AnonSuppress:
			cur, err = anon.SuppressColumn(cur, rule.Attribute)
		case policy.AnonPseudonym:
			cur, err = pseudo.PseudonymizeColumn(cur, rule.Attribute)
		case policy.AnonGeneralize:
			cur, err = anon.GeneralizeColumn(cur, rule.Attribute, e.hier().For(rule.Attribute), rule.Param)
		case policy.AnonPerturb:
			pct := rule.Param
			if pct <= 0 {
				pct = 10
			}
			cur, err = anon.PerturbColumn(cur, rule.Attribute, pct, e.PerturbSeed)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("enforce: anonymize %s: %w", rule.Attribute, err)
		}
		rep.ColumnsAnon = append(rep.ColumnsAnon, rule.Attribute)
		rep.Decisions = append(rep.Decisions, Decision{
			Outcome: Mask, Rule: "anonymize", Subject: rule.Attribute,
			Detail: rule.Method.String(),
		})
	}

	// 5. Table-level release requirements (k-anonymity, l-diversity).
	for _, rule := range comp.ReleaseRules() {
		quasi := presentColumns(cur, rule.Quasi)
		if len(quasi) == 0 {
			continue
		}
		anonT, stats, err := anon.KAnonymize(cur, rule.K, quasi)
		if err != nil {
			return nil, nil, fmt.Errorf("enforce: k-anonymize: %w", err)
		}
		rep.KAnonStats = stats
		rep.RowsSuppressed += stats.Suppressed
		cur = anonT
		if rule.L > 1 && cur.Schema.Index(rule.Sensitive) >= 0 {
			ld, suppressed, err := anon.EnforceLDiversity(cur, rule.L, quasi, rule.Sensitive)
			if err != nil {
				return nil, nil, fmt.Errorf("enforce: l-diversity: %w", err)
			}
			rep.RowsSuppressed += suppressed
			cur = ld
		}
		rep.Decisions = append(rep.Decisions, Decision{
			Outcome: Mask, Rule: "release-anonymity", Subject: t.Name,
			Detail: fmt.Sprintf("k=%d quasi=%v l=%d suppressed=%d", rule.K, quasi, rule.L, rep.RowsSuppressed),
		})
	}

	out := cur.Clone()
	out.Name = t.Name
	e.Metrics.Histogram("release.duration").Observe(time.Since(start))
	e.Metrics.Counter("release.rows.in").Add(uint64(rep.RowsIn))
	e.Metrics.Counter("release.rows.filtered").Add(uint64(rep.RowsFiltered))
	e.Metrics.Counter("release.rows.suppressed").Add(uint64(rep.RowsSuppressed))
	e.Metrics.Counter("release.cells.masked").Add(uint64(rep.CellsMasked))
	e.Metrics.Counter("release.columns.anonymized").Add(uint64(len(rep.ColumnsAnon)))
	return out, rep, nil
}

// applyConsent masks cells whose per-row metadata carries
// Show<Column>=false (Fig. 2b).
func (e *SourceEnforcer) applyConsent(t *relation.Table, originalName string, rep *ReleaseReport) (*relation.Table, int, error) {
	mem, err := t.Materialize()
	if err != nil {
		return nil, 0, err
	}
	out := mem.Clone()
	out.Name = originalName
	masked := 0
	// Pre-compute the columns any Show* key could refer to.
	for ri := range out.Rows {
		tags, err := e.Metadata.RowMetadata(out, ri)
		if err != nil {
			return nil, 0, fmt.Errorf("enforce: consent metadata: %w", err)
		}
		for _, tag := range tags {
			key := strings.ToLower(tag.Key)
			if !strings.HasPrefix(key, "show") || tag.Value.Kind != relation.TBool || tag.Value.B {
				continue
			}
			col := key[len("show"):]
			if alias, ok := e.ConsentAliases[col]; ok {
				col = alias
			}
			ci := out.Schema.Index(col)
			if ci < 0 {
				continue
			}
			if out.Rows[ri][ci].Equal(MaskValue) {
				continue
			}
			out.Rows[ri][ci] = MaskValue
			masked++
			rep.Decisions = append(rep.Decisions, Decision{
				Outcome: Mask, Rule: "consent-metadata",
				Subject: fmt.Sprintf("%s[%d].%s", originalName, ri, col),
				Detail:  tag.Source,
			})
		}
	}
	// Masked columns become strings.
	for ci := range out.Schema.Columns {
		for ri := range out.Rows {
			if out.Rows[ri][ci].Equal(MaskValue) {
				out.Schema.Columns[ci].Type = relation.TString
				break
			}
		}
	}
	return out, masked, nil
}

func (e *SourceEnforcer) hier() anon.HierarchySet {
	if e.Hierarchies != nil {
		return e.Hierarchies
	}
	return anon.DefaultHierarchies()
}

func (e *SourceEnforcer) pseudoKey() []byte {
	if len(e.PseudonymKey) > 0 {
		return e.PseudonymKey
	}
	return []byte("plabi-default-pseudonym-key")
}

// retentionColumn resolves the date column retention applies to.
func (e *SourceEnforcer) retentionColumn(t *relation.Table) string {
	if col, ok := e.RetentionColumns[strings.ToLower(t.Name)]; ok {
		return col
	}
	return "date"
}

func presentColumns(t *relation.Table, cols []string) []string {
	var out []string
	for _, c := range cols {
		if t.Schema.Index(c) >= 0 {
			out = append(out, c)
		}
	}
	return out
}
