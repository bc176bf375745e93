// Package metareport implements the paper's preferred elicitation
// artifact (§5, Fig. 5): meta-reports — wide views over the warehouse
// that sit between the warehouse's complexity/stability and the reports'
// simplicity/volatility. It derives a minimal covering set of
// meta-reports from a report portfolio, checks whether a (new or
// modified) report is derivable from an approved meta-report — so its
// PLAs carry over without re-eliciting — and generates compliance test
// cases from PLAs so policies are testable before they are put in
// operation (§6).
package metareport

import (
	"fmt"
	"sort"
	"strings"

	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/sql"
)

// MetaReport is one wide view over the warehouse, discussed with and
// approved by the source owners.
type MetaReport struct {
	ID    string
	Title string
	Query string
	// Approved records the owners' sign-off; PLAs attach to the ID.
	Approved bool
}

// Parse returns the parsed SELECT.
func (m *MetaReport) Parse() (*sql.SelectStmt, error) {
	return sql.ParseSelect(m.Query)
}

// Containment is the result of a derivability check.
type Containment struct {
	Derivable bool
	// Reasons explains failures (empty when derivable).
	Reasons []string
}

// IsDerivable reports whether the report can, at least conceptually, be
// expressed as a subset or view over the meta-report (§5): its base
// tables, output columns (by origin), join pairs, and filters must all be
// covered. The check is sound but incomplete — a false negative forces an
// unnecessary re-elicitation, never a privacy leak.
func IsDerivable(cat *sql.Catalog, def *report.Definition, meta *MetaReport) (Containment, error) {
	rp, err := sql.ProfileSQL(cat, def.Query)
	if err != nil {
		return Containment{}, fmt.Errorf("metareport: profile report %s: %w", def.ID, err)
	}
	mp, err := sql.ProfileSQL(cat, meta.Query)
	if err != nil {
		return Containment{}, fmt.Errorf("metareport: profile meta %s: %w", meta.ID, err)
	}
	var reasons []string

	if mp.Aggregated {
		reasons = append(reasons, "meta-report is aggregated; only wide tables support derivation")
	}
	metaTables := map[string]bool{}
	for _, t := range mp.BaseTables {
		metaTables[t] = true
	}
	for _, t := range rp.BaseTables {
		if !metaTables[t] {
			reasons = append(reasons, fmt.Sprintf("base table %q not covered", t))
		}
	}
	for _, c := range rp.OutputCols {
		if !mp.OutputCols.Contains(c) {
			reasons = append(reasons, fmt.Sprintf("output column %s not covered", c))
		}
	}
	metaJoins := map[sql.JoinPair]bool{}
	for _, j := range mp.JoinPairs {
		metaJoins[j] = true
	}
	for _, j := range rp.JoinPairs {
		if !metaJoins[j] {
			reasons = append(reasons, fmt.Sprintf("join %s-%s not covered", j.A, j.B))
		}
	}
	// The meta-report's filters must hold wherever the report's do —
	// otherwise the report could show rows the owners never saw during
	// elicitation.
	if len(mp.Conjuncts) > 0 {
		if rp.Opaque {
			reasons = append(reasons, "report filter too complex to prove containment in filtered meta-report")
		} else if !sql.ConjunctionImplies(rp.Conjuncts, mp.Conjuncts) {
			reasons = append(reasons, "report rows are not confined to the meta-report's filter")
		}
	}
	return Containment{Derivable: len(reasons) == 0, Reasons: reasons}, nil
}

// CoveringMeta returns the first approved meta-report the definition is
// derivable from, if any.
func CoveringMeta(cat *sql.Catalog, def *report.Definition, metas []*MetaReport) (*MetaReport, Containment, error) {
	var last Containment
	for _, m := range metas {
		c, err := IsDerivable(cat, def, m)
		if err != nil {
			return nil, Containment{}, err
		}
		if c.Derivable {
			return m, c, nil
		}
		last = c
	}
	return nil, last, nil
}

// Options controls derivation granularity — the paper's §5 design
// challenge: "how many meta-reports to define and how close they should
// be to the complexity of the data warehouse or the simplicity of the
// reports".
type Options struct {
	// MaxWidth bounds the number of columns per meta-report. 0 derives
	// one maximal wide view per table footprint (the warehouse-like
	// extreme); small values yield many narrow, report-like metas. A
	// single report needing more columns than MaxWidth still gets its
	// own meta-report (the bound is best-effort, never splitting one
	// report across metas).
	MaxWidth int
}

// Derive computes a minimal covering set of meta-reports for a report
// portfolio: reports are clustered by table footprint (footprints that
// are subsets of another merge into it), and each cluster yields one
// wide meta-report selecting every column any member report uses, joined
// with the join predicates the members themselves use. The returned map
// assigns each report id to its covering meta-report id.
func Derive(cat *sql.Catalog, defs []*report.Definition) ([]*MetaReport, map[string]string, error) {
	return DeriveWith(cat, defs, Options{})
}

// DeriveWith is Derive with explicit granularity options.
func DeriveWith(cat *sql.Catalog, defs []*report.Definition, opts Options) ([]*MetaReport, map[string]string, error) {
	type clusterInfo struct {
		tables  []string
		cols    relation.ColRefSet
		joinOn  map[sql.JoinPair]relation.Expr
		members []string
	}
	var clusters []*clusterInfo
	assign := map[string]string{}

	footKey := func(tables []string) string { return strings.Join(tables, ",") }

	// Collect per-report FROM footprints (the tables the report names in
	// its FROM clause — the "report universe"), referenced columns, and
	// join predicates. Derivation is syntactic over that universe;
	// containment checking separately resolves to true base origins.
	type repInfo struct {
		def    *report.Definition
		tables []string
		cols   relation.ColRefSet
		joinOn map[sql.JoinPair]relation.Expr
	}
	reps := make([]repInfo, 0, len(defs))
	for _, d := range defs {
		sel, err := d.Parse()
		if err != nil {
			return nil, nil, fmt.Errorf("metareport: derive: report %s: %w", d.ID, err)
		}
		tables := fromTables(sel)
		cols, err := referencedCols(cat.Snapshot(), sel)
		if err != nil {
			return nil, nil, fmt.Errorf("metareport: derive: report %s: %w", d.ID, err)
		}
		reps = append(reps, repInfo{def: d, tables: tables, cols: cols, joinOn: joinPredicates(sel)})
	}
	// Sort by decreasing footprint size so larger clusters absorb
	// subset footprints.
	sort.SliceStable(reps, func(i, j int) bool {
		if len(reps[i].tables) != len(reps[j].tables) {
			return len(reps[i].tables) > len(reps[j].tables)
		}
		return reps[i].def.ID < reps[j].def.ID
	})

	for _, r := range reps {
		var target *clusterInfo
		for _, cl := range clusters {
			if !subsetOf(r.tables, cl.tables) {
				continue
			}
			if opts.MaxWidth > 0 && len(cl.cols.Union(r.cols)) > opts.MaxWidth {
				continue // bin full; try the next or open a new one
			}
			target = cl
			break
		}
		if target == nil {
			target = &clusterInfo{tables: r.tables, joinOn: map[sql.JoinPair]relation.Expr{}}
			clusters = append(clusters, target)
		}
		// Referenced columns include WHERE/GROUP BY columns, so
		// intensional PLA conditions can be expressed on the meta-report
		// even when the column is hidden in the final reports (§5's
		// HIV-column-for-PLA-only trick).
		target.cols = target.cols.Union(r.cols)
		for jp, on := range r.joinOn {
			if _, ok := target.joinOn[jp]; !ok {
				target.joinOn[jp] = on
			}
		}
		target.members = append(target.members, r.def.ID)
	}

	var metas []*MetaReport
	for i, cl := range clusters {
		query, err := buildWideQuery(cat, cl.tables, cl.cols, cl.joinOn)
		if err != nil {
			return nil, nil, fmt.Errorf("metareport: derive cluster %s: %w", footKey(cl.tables), err)
		}
		m := &MetaReport{
			ID:    fmt.Sprintf("meta-%02d-%s", i+1, strings.Join(cl.tables, "-")),
			Title: "Meta-report over " + strings.Join(cl.tables, ", "),
			Query: query,
		}
		metas = append(metas, m)
		for _, member := range cl.members {
			assign[member] = m.ID
		}
	}
	return metas, assign, nil
}

// fromTables returns the sorted distinct table names a SELECT names in
// its FROM clause.
func fromTables(sel *sql.SelectStmt) []string {
	set := map[string]bool{strings.ToLower(sel.From.Name): true}
	for _, j := range sel.Joins {
		set[strings.ToLower(j.Table.Name)] = true
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// referencedCols resolves every column a SELECT references (outputs,
// filters, grouping) to (FROM-table, column) pairs using the catalog and
// view schemas. Unresolvable references are skipped (they surface later
// when the query runs).
func referencedCols(cat *sql.Snapshot, sel *sql.SelectStmt) (relation.ColRefSet, error) {
	// alias -> table name, plus table schemas for unqualified lookup.
	type rel struct {
		table  string
		schema *relation.Schema
	}
	schemaOf := func(name string) (*relation.Schema, error) {
		if t, ok := cat.Table(name); ok {
			return t.Schema, nil
		}
		if v, ok := cat.View(name); ok {
			h, err := cat.Header(v)
			if err != nil {
				return nil, err
			}
			return h.Schema, nil
		}
		return nil, fmt.Errorf("unknown relation %q", name)
	}
	var rels []rel
	byAlias := map[string]rel{}
	addRel := func(tr sql.TableRef) error {
		sc, err := schemaOf(tr.Name)
		if err != nil {
			return err
		}
		r := rel{table: strings.ToLower(tr.Name), schema: sc}
		rels = append(rels, r)
		byAlias[strings.ToLower(tr.EffName())] = r
		return nil
	}
	if err := addRel(sel.From); err != nil {
		return nil, err
	}
	for _, j := range sel.Joins {
		if err := addRel(j.Table); err != nil {
			return nil, err
		}
	}
	resolve := func(name string) (relation.ColRef, bool) {
		q, c := splitQualified(name)
		if q != "" {
			if r, ok := byAlias[q]; ok && r.schema.HasColumn(c) {
				return relation.ColRef{Table: r.table, Column: c}, true
			}
			return relation.ColRef{}, false
		}
		for _, r := range rels {
			if r.schema.HasColumn(c) {
				return relation.ColRef{Table: r.table, Column: c}, true
			}
		}
		return relation.ColRef{}, false
	}

	var refs []string
	for _, it := range sel.Items {
		switch {
		case it.Star:
			for _, r := range rels {
				for _, col := range r.schema.Columns {
					refs = append(refs, r.table+"."+strings.ToLower(col.Name))
				}
			}
		case it.Agg != nil:
			if it.Agg.Arg != nil {
				refs = it.Agg.Arg.ColumnRefs(refs)
			}
		default:
			refs = it.Expr.ColumnRefs(refs)
		}
	}
	if sel.Where != nil {
		refs = sel.Where.ColumnRefs(refs)
	}
	for _, g := range sel.GroupBy {
		refs = g.ColumnRefs(refs)
	}
	var out relation.ColRefSet
	for _, name := range refs {
		if ref, ok := resolve(strings.ToLower(name)); ok {
			out = append(out, ref)
		}
	}
	return out.Normalize(), nil
}

// joinPredicates extracts the ON expressions of a SELECT keyed by the
// base-table pair they connect (resolved via alias -> table name).
func joinPredicates(sel *sql.SelectStmt) map[sql.JoinPair]relation.Expr {
	alias := map[string]string{strings.ToLower(sel.From.EffName()): strings.ToLower(sel.From.Name)}
	for _, j := range sel.Joins {
		alias[strings.ToLower(j.Table.EffName())] = strings.ToLower(j.Table.Name)
	}
	out := map[sql.JoinPair]relation.Expr{}
	for _, j := range sel.Joins {
		be, ok := j.On.(*relation.BinExpr)
		if !ok || be.Op != relation.OpEq {
			continue
		}
		l, lok := be.L.(*relation.ColExpr)
		r, rok := be.R.(*relation.ColExpr)
		if !lok || !rok {
			continue
		}
		lt, lc := splitQualified(l.Name)
		rt, rc := splitQualified(r.Name)
		ltab, lfound := alias[lt]
		rtab, rfound := alias[rt]
		if !lfound || !rfound || ltab == rtab {
			continue
		}
		pair := sql.NewJoinPair(ltab, rtab)
		// Normalize to base-table-qualified column refs.
		out[pair] = relation.Eq(
			relation.ColRefExpr(ltab+"."+lc),
			relation.ColRefExpr(rtab+"."+rc))
	}
	return out
}

func splitQualified(name string) (qualifier, col string) {
	name = strings.ToLower(name)
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}

// buildWideQuery renders the meta-report SQL: all requested columns from
// the base tables, joined with the collected predicates (tables without a
// collected predicate are not joined — single-table clusters are the
// common case).
func buildWideQuery(cat *sql.Catalog, tables []string, cols relation.ColRefSet, joinOn map[sql.JoinPair]relation.Expr) (string, error) {
	if len(tables) == 0 {
		return "", fmt.Errorf("empty cluster")
	}
	// Column list: qualified, aliased to table_column when ambiguous.
	names := map[string]int{}
	for _, c := range cols {
		names[c.Column]++
	}
	var items []string
	for _, c := range cols {
		expr := c.Table + "." + c.Column
		if names[c.Column] > 1 {
			items = append(items, fmt.Sprintf("%s AS %s_%s", expr, c.Table, c.Column))
		} else {
			items = append(items, fmt.Sprintf("%s AS %s", expr, c.Column))
		}
	}
	if len(items) == 0 {
		// Degenerate: select everything from the first table.
		t, ok := cat.Table(tables[0])
		if !ok {
			return "", fmt.Errorf("unknown table %q", tables[0])
		}
		for _, col := range t.Schema.ColumnNames() {
			items = append(items, tables[0]+"."+col+" AS "+col)
		}
	}
	sort.Strings(items)

	var b strings.Builder
	b.WriteString("SELECT " + strings.Join(items, ", "))
	b.WriteString(" FROM " + tables[0])
	joined := map[string]bool{tables[0]: true}
	remaining := append([]string(nil), tables[1:]...)
	for len(remaining) > 0 {
		progressed := false
		for i, t := range remaining {
			var on relation.Expr
			for jp, e := range joinOn {
				if (jp.A == t && joined[jp.B]) || (jp.B == t && joined[jp.A]) {
					on = e
					break
				}
			}
			if on == nil {
				continue
			}
			b.WriteString(" JOIN " + t + " ON " + on.String())
			joined[t] = true
			remaining = append(remaining[:i], remaining[i+1:]...)
			progressed = true
			break
		}
		if !progressed {
			return "", fmt.Errorf("no join predicate connects %v to %v", remaining, tables)
		}
	}
	return b.String(), nil
}

func subsetOf(sub, super []string) bool {
	set := map[string]bool{}
	for _, s := range super {
		set[s] = true
	}
	for _, s := range sub {
		if !set[s] {
			return false
		}
	}
	return true
}
