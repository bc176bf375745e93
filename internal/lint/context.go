package lint

import (
	"fmt"
	"sort"
	"strings"

	"plabi/internal/enforce"
	"plabi/internal/etl"
	"plabi/internal/metareport"
	"plabi/internal/obs"
	"plabi/internal/policy"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/sql"
	"plabi/internal/textutil"
)

// Pass carries everything the analyzers may inspect. Only PLAs is
// mandatory: a bare-file lint has no catalog, reports, metas or
// pipelines, and analyzers abstain from checks whose inputs are absent.
type Pass struct {
	// PLAs are the agreements under analysis.
	PLAs []*policy.PLA
	// Registry indexes the same PLAs; built from PLAs when nil.
	Registry *policy.Registry
	// Catalog is the warehouse catalog (tables, views), or nil.
	Catalog *sql.Catalog
	// Reports are the defined reports, or nil.
	Reports []*report.Definition
	// Metas are the derived meta-reports, or nil.
	Metas []*metareport.MetaReport
	// Assign maps report id -> meta-report id.
	Assign map[string]string
	// Pipelines are the ETL plans to run over zero rows, or nil.
	Pipelines []*etl.Pipeline
	// Owners are the known source-owner names (integration
	// beneficiaries); empty means "unknown", not "none".
	Owners []string
	// Metrics receives lint.* counters; nil is fine.
	Metrics *obs.Metrics

	profiles map[string]*sql.Profile
	enf      *enforce.ReportEnforcer
}

// prepare normalizes the pass before a run: a registry over the PLAs,
// deterministic PLA order, and lazy caches.
func (p *Pass) prepare() {
	if p.Registry == nil {
		reg := policy.NewRegistry()
		for _, pla := range p.PLAs {
			_ = reg.Add(pla) // duplicates are rejected by LintFiles before Run
		}
		p.Registry = reg
	}
	if len(p.PLAs) == 0 && p.Registry != nil {
		p.PLAs = p.Registry.All()
	}
	sort.SliceStable(p.PLAs, func(i, j int) bool { return p.PLAs[i].ID < p.PLAs[j].ID })
	p.profiles = map[string]*sql.Profile{}
}

// group is a set of PLAs that co-govern the same data: same level, same
// scope (case-insensitive), with "*"-scoped PLAs of the level joined in.
type group struct {
	level policy.Level
	scope string
	plas  []*policy.PLA
}

// scopeGroups partitions the PLAs into composition groups, in
// deterministic (level, scope) order, members ordered by id.
func (p *Pass) scopeGroups() []group {
	type key struct {
		level policy.Level
		scope string
	}
	concrete := map[key][]*policy.PLA{}
	stars := map[policy.Level][]*policy.PLA{}
	for _, pla := range p.PLAs {
		if pla.Scope == "*" {
			stars[pla.Level] = append(stars[pla.Level], pla)
			continue
		}
		k := key{pla.Level, strings.ToLower(pla.Scope)}
		concrete[k] = append(concrete[k], pla)
	}
	var keys []key
	for k := range concrete {
		keys = append(keys, k)
	}
	for lvl, plas := range stars {
		// A level with only "*" agreements still forms one group.
		found := false
		for k := range concrete {
			if k.level == lvl {
				found = true
				break
			}
		}
		if !found {
			concrete[key{lvl, "*"}] = plas
			keys = append(keys, key{lvl, "*"})
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].level != keys[j].level {
			return keys[i].level < keys[j].level
		}
		return keys[i].scope < keys[j].scope
	})
	var out []group
	for _, k := range keys {
		members := append([]*policy.PLA(nil), concrete[k]...)
		if k.scope != "*" {
			members = append(members, stars[k.level]...)
		}
		sort.SliceStable(members, func(i, j int) bool { return members[i].ID < members[j].ID })
		out = append(out, group{level: k.level, scope: k.scope, plas: members})
	}
	return out
}

// enforcer lazily builds a report enforcer over the pass state for
// static decision checks. Requires Catalog.
func (p *Pass) enforcer() *enforce.ReportEnforcer {
	if p.enf == nil {
		p.enf = enforce.NewReportEnforcer(p.Registry, p.Catalog, enforce.Config{})
		scopes := map[string][]string{}
		for rid, mid := range p.Assign {
			scopes[rid] = []string{mid}
		}
		p.enf.SetExtraScopes(scopes)
	}
	return p.enf
}

// profile returns the cached SQL profile of a report (nil when the query
// does not profile against the catalog).
func (p *Pass) profile(def *report.Definition) *sql.Profile {
	if p.Catalog == nil {
		return nil
	}
	if prof, ok := p.profiles[def.ID]; ok {
		return prof
	}
	prof, err := sql.ProfileSQL(p.Catalog, def.Query)
	if err != nil {
		prof = nil
	}
	p.profiles[def.ID] = prof
	return prof
}

// reportByID resolves a report id case-insensitively.
func (p *Pass) reportByID(id string) *report.Definition {
	for _, d := range p.Reports {
		if strings.EqualFold(d.ID, id) {
			return d
		}
	}
	return nil
}

// knownRelation reports whether name is a catalog table or view.
func (p *Pass) knownRelation(name string) bool {
	if p.Catalog == nil {
		return false
	}
	snap := p.Catalog.Snapshot()
	_, isTable := snap.Table(name)
	_, isView := snap.View(name)
	return isTable || isView
}

// relationColumns returns the lowercase column set of a catalog table or
// view (a view's is its executed header's).
func (p *Pass) relationColumns(name string) (map[string]bool, bool) {
	if p.Catalog == nil {
		return nil, false
	}
	snap := p.Catalog.Snapshot()
	t, ok := snap.Table(name)
	if !ok {
		v, isView := snap.View(name)
		if !isView {
			return nil, false
		}
		var err error
		if t, err = snap.Header(v); err != nil {
			return nil, false
		}
	}
	cols := map[string]bool{}
	for _, c := range t.Schema.ColumnNames() {
		cols[strings.ToLower(c)] = true
	}
	return cols, true
}

// plaPos returns the declaration position of the first named PLA that
// has one.
func (p *Pass) plaPos(ids []string) policy.Pos {
	for _, id := range ids {
		if pla, ok := p.Registry.ByID(id); ok && pla.Pos.IsValid() {
			return pla.Pos
		}
	}
	return policy.Pos{}
}

// rolesFor returns the role universe for a report: its delivery roles
// when declared, otherwise every role mentioned anywhere.
func (p *Pass) rolesFor(def *report.Definition) []string {
	if len(def.Roles) > 0 {
		return normalized(def.Roles)
	}
	return p.allRoles()
}

// purposesFor returns the purpose universe for a report: its declared
// purpose, otherwise every purpose mentioned anywhere plus "".
func (p *Pass) purposesFor(def *report.Definition) []string {
	if def.Purpose != "" {
		return []string{strings.ToLower(def.Purpose)}
	}
	set := map[string]bool{"": true}
	for _, pla := range p.PLAs {
		for _, v := range pla.Purposes {
			set[strings.ToLower(v)] = true
		}
		for _, r := range pla.Access {
			for _, v := range r.Purposes {
				set[strings.ToLower(v)] = true
			}
		}
	}
	return sortedSet(set)
}

// allRoles collects every role mentioned in PLAs or report definitions.
func (p *Pass) allRoles() []string {
	set := map[string]bool{}
	for _, pla := range p.PLAs {
		for _, r := range pla.Access {
			for _, v := range r.Roles {
				set[strings.ToLower(v)] = true
			}
		}
	}
	for _, d := range p.Reports {
		for _, v := range d.Roles {
			set[strings.ToLower(v)] = true
		}
	}
	return sortedSet(set)
}

func normalized(in []string) []string {
	set := map[string]bool{}
	for _, v := range in {
		set[strings.ToLower(v)] = true
	}
	return sortedSet(set)
}

func sortedSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// nearest suggests the closest candidate name, or "" when nothing is
// similar enough to be a plausible typo.
func nearest(name string, candidates []string) string {
	best, bestScore := "", 0.0
	for _, c := range candidates {
		if s := textutil.JaroWinkler(strings.ToLower(name), strings.ToLower(c)); s > bestScore {
			best, bestScore = c, s
		}
	}
	if bestScore >= 0.84 {
		return best
	}
	return ""
}

// didYouMean renders the suggestion suffix for nearest.
func didYouMean(name string, candidates []string) string {
	if s := nearest(name, candidates); s != "" {
		return fmt.Sprintf("; did you mean %q?", s)
	}
	return ""
}

// conditionColumns returns the unqualified lowercase column names an
// intensional condition references.
func conditionColumns(e relation.Expr) []string {
	var out []string
	for _, c := range relation.ColumnsOf(e) {
		if i := strings.LastIndexByte(c, '.'); i >= 0 {
			c = c[i+1:]
		}
		out = append(out, strings.ToLower(c))
	}
	sort.Strings(out)
	return out
}
