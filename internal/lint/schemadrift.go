package lint

import (
	"fmt"
	"sort"
	"strings"

	"plabi/internal/policy"
)

// schemaDrift (PL003) proves that every name a PLA references still
// exists: scope tables and attributes against the catalog, join partners
// against known relations, integration beneficiaries against known
// owners, report and meta-report scopes against the registered
// definitions. A rule about a name that resolves to nothing silently
// enforces nothing — the agreement and the schema have drifted apart
// (§3: requirements are elicited once, schemas evolve).
type schemaDrift struct{}

func init() { Register(schemaDrift{}) }

func (schemaDrift) Code() string { return "PL003" }
func (schemaDrift) Name() string { return "schema-drift" }
func (schemaDrift) Doc() string {
	return "PLA references to tables, attributes, reports, meta-reports or owners that " +
		"no longer exist in the catalog: the rule matches nothing and enforces nothing."
}

func (schemaDrift) Run(p *Pass) []Finding {
	var out []Finding
	for _, pla := range p.PLAs {
		switch pla.Level {
		case policy.LevelSource, policy.LevelWarehouse:
			out = append(out, driftTableScoped(p, pla)...)
		case policy.LevelReport:
			out = append(out, driftReportScoped(p, pla)...)
		case policy.LevelMetaReport:
			out = append(out, driftMetaScoped(p, pla)...)
		}
	}
	return out
}

func driftTableScoped(p *Pass, pla *policy.PLA) []Finding {
	if p.Catalog == nil {
		return nil
	}
	var out []Finding
	if pla.Scope != "*" && !p.knownRelation(pla.Scope) {
		snap := p.Catalog.Snapshot()
		names := append(snap.TableNames(), snap.ViewNames()...)
		out = append(out, drift(pla, pla.Pos, pla.Scope,
			fmt.Sprintf("PLA %q is scoped to table %q, which is not in the catalog%s — none of its rules can ever apply",
				pla.ID, pla.Scope, didYouMean(pla.Scope, names))))
		return out // attribute checks are meaningless without the table
	}
	cols, haveCols := p.relationColumns(pla.Scope)
	colNames := sortedSet(cols)
	checkAttr := func(pos policy.Pos, attr, what string) {
		if !haveCols || attr == "*" || attr == "" || cols[strings.ToLower(attr)] {
			return
		}
		out = append(out, drift(pla, pos, attr,
			fmt.Sprintf("%s in PLA %q references attribute %q, which does not exist in table %q%s — the rule matches nothing",
				what, pla.ID, attr, pla.Scope, didYouMean(attr, colNames))))
	}
	for _, r := range pla.Access {
		checkAttr(r.Pos, r.Attribute, fmt.Sprintf("%s rule", r.Effect))
	}
	for _, r := range pla.Anonymize {
		checkAttr(r.Pos, r.Attribute, "anonymize rule")
	}
	for _, r := range pla.Aggregations {
		checkAttr(r.Pos, r.By, "aggregation threshold")
	}
	for _, r := range pla.Release {
		for _, q := range r.Quasi {
			checkAttr(r.Pos, q, "release rule quasi-identifier")
		}
		checkAttr(r.Pos, r.Sensitive, "release rule sensitive attribute")
	}
	for _, r := range pla.Joins {
		if r.Other != "*" && !p.knownRelation(r.Other) {
			snap := p.Catalog.Snapshot()
			names := append(snap.TableNames(), snap.ViewNames()...)
			out = append(out, drift(pla, r.Pos, r.Other,
				fmt.Sprintf("join rule in PLA %q references relation %q, which is not in the catalog%s — the permission can never be consulted",
					pla.ID, r.Other, didYouMean(r.Other, names))))
		}
	}
	if len(p.Owners) > 0 {
		for _, r := range pla.Integrations {
			if r.Beneficiary != "*" && !containsFold(p.Owners, r.Beneficiary) {
				out = append(out, drift(pla, r.Pos, r.Beneficiary,
					fmt.Sprintf("integration rule in PLA %q references owner %q, which is not a registered source owner%s",
						pla.ID, r.Beneficiary, didYouMean(r.Beneficiary, p.Owners))))
			}
		}
	}
	return out
}

func driftReportScoped(p *Pass, pla *policy.PLA) []Finding {
	if len(p.Reports) == 0 {
		return nil
	}
	var out []Finding
	if pla.Scope == "*" {
		return nil
	}
	def := p.reportByID(pla.Scope)
	if def == nil {
		var ids []string
		for _, d := range p.Reports {
			ids = append(ids, d.ID)
		}
		sort.Strings(ids)
		return []Finding{drift(pla, pla.Pos, pla.Scope,
			fmt.Sprintf("PLA %q is scoped to report %q, which is not defined%s — none of its rules can ever apply",
				pla.ID, pla.Scope, didYouMean(pla.Scope, ids)))}
	}
	prof := p.profile(def)
	if prof == nil {
		return out
	}
	// A report-level rule speaks about output column names, or about base
	// attributes of the tables the report reads (an aggregation "by"
	// counts distinct source values that need not reach the output).
	known := map[string]bool{}
	for name, origins := range prof.OutputNames {
		known[name] = true
		for _, ref := range origins {
			known[strings.ToLower(ref.Column)] = true
		}
	}
	for _, t := range prof.BaseTables {
		if cols, ok := p.relationColumns(t); ok {
			for c := range cols {
				known[c] = true
			}
		}
	}
	names := sortedSet(known)
	checkAttr := func(pos policy.Pos, attr, what string) {
		if attr == "*" || attr == "" || known[strings.ToLower(attr)] {
			return
		}
		out = append(out, drift(pla, pos, attr,
			fmt.Sprintf("%s in PLA %q references %q, which is neither an output column nor a base attribute of report %q%s",
				what, pla.ID, attr, def.ID, didYouMean(attr, names))))
	}
	for _, r := range pla.Access {
		checkAttr(r.Pos, r.Attribute, fmt.Sprintf("%s rule", r.Effect))
	}
	for _, r := range pla.Anonymize {
		checkAttr(r.Pos, r.Attribute, "anonymize rule")
	}
	for _, r := range pla.Aggregations {
		checkAttr(r.Pos, r.By, "aggregation threshold")
	}
	return out
}

func driftMetaScoped(p *Pass, pla *policy.PLA) []Finding {
	if len(p.Metas) == 0 || pla.Scope == "*" {
		return nil
	}
	var ids []string
	for _, m := range p.Metas {
		if strings.EqualFold(m.ID, pla.Scope) {
			return nil
		}
		ids = append(ids, m.ID)
	}
	sort.Strings(ids)
	return []Finding{drift(pla, pla.Pos, pla.Scope,
		fmt.Sprintf("PLA %q is scoped to meta-report %q, which does not exist%s — none of its rules can ever apply",
			pla.ID, pla.Scope, didYouMean(pla.Scope, ids)))}
}

func drift(pla *policy.PLA, pos policy.Pos, subject, msg string) Finding {
	return Finding{
		Code: "PL003", Severity: SevError, Level: pla.Level, Pos: pos,
		Subject: pla.ID + "/" + subject, Message: msg, PLAs: []string{pla.ID},
	}
}

func containsFold(list []string, s string) bool {
	for _, v := range list {
		if strings.EqualFold(v, s) {
			return true
		}
	}
	return false
}
