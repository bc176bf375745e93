// Package diff implements semantic policy-change impact analysis: it
// compares two deployment states (policy registries + report definitions
// + catalog) and reports, per (report, role, purpose) triple, how the
// change moves the privacy boundary. The comparison is static and
// data-flow-free — it diffs the render programs the enforcer builds for
// each triple (enforce.Program, the plan every render executes), not the
// raw rule text, so a rewrite that preserves semantics is silent while a
// cosmetically small edit that widens disclosure is loud.
//
// Impacts carry stable codes:
//
//	PD000  compiler translation divergence (see Validate)
//	PD001  NEW-ALLOW privilege expansion (new/uncovered allow, lifted block)
//	PD002  NEW-DENY regression (new block/mask/deny, removed report)
//	PD003  aggregation threshold loosened / tightened
//	PD004  row filter weakened / strengthened
//	PD005  column release plan widened (mask dropped, condition dropped)
//
// Expansions are error severity; restrictions are info or warning. The
// plabid reload gate refuses manifests whose diff contains error-severity
// impacts unless explicitly overridden.
package diff

import (
	"fmt"
	"sort"
	"strings"

	"plabi/internal/enforce"
	"plabi/internal/lint"
	"plabi/internal/policy"
	"plabi/internal/report"
	"plabi/internal/sql"
)

// Impact codes.
const (
	CodeTranslation = "PD000" // compiled program diverges from interpreted composite
	CodeNewAllow    = "PD001" // NEW-ALLOW privilege expansion
	CodeNewDeny     = "PD002" // NEW-DENY regression
	CodeThreshold   = "PD003" // aggregation threshold changed
	CodeRowFilter   = "PD004" // row filter changed
	CodeColumnPlan  = "PD005" // column release plan widened
)

// State is one deployment snapshot: everything needed to compile the
// residual program of every (report, role, purpose) triple.
type State struct {
	Policies *policy.Registry
	Catalog  *sql.Catalog
	Reports  []*report.Definition
	// Scopes maps report id -> extra meta-report PLA scopes (the
	// engine's report->meta assignment).
	Scopes map[string][]string
}

// newEnforcer builds a throwaway enforcer over the state. Only the
// static compilation path is used, so no tracer state accumulates.
func (s *State) newEnforcer() *enforce.ReportEnforcer {
	enf := enforce.NewReportEnforcer(s.Policies, s.Catalog, enforce.Config{})
	if len(s.Scopes) > 0 {
		enf.SetExtraScopes(s.Scopes)
	}
	return enf
}

func (s *State) report(id string) *report.Definition {
	for _, d := range s.Reports {
		if d.ID == id {
			return d
		}
	}
	return nil
}

// Impact is one semantic policy-change finding for a (report, role,
// purpose) triple.
type Impact struct {
	Code     string
	Severity lint.Severity
	Report   string
	Role     string // "" = report has no declared roles
	Purpose  string
	Subject  string // column, threshold key, filter expression, rule attribute
	Message  string
	PLAs     []string
	Pos      policy.Pos // position of the responsible rule, when attributable
}

// Finding renders the impact in the lint vocabulary so the existing
// text/JSON renderers and severity filters apply unchanged.
func (im Impact) Finding() lint.Finding {
	role, purpose := im.Role, im.Purpose
	if role == "" {
		role = "*"
	}
	if purpose == "" {
		purpose = "*"
	}
	triple := im.Report + "/" + strings.ToLower(role) + "/" + strings.ToLower(purpose)
	subj := triple
	if im.Subject != "" {
		subj += ": " + im.Subject
	}
	return lint.Finding{
		Code: im.Code, Severity: im.Severity, Level: policy.LevelReport,
		Pos: im.Pos, Subject: subj, Message: triple + ": " + im.Message,
		PLAs: append([]string(nil), im.PLAs...),
	}
}

// Findings converts impacts to lint findings in the canonical lint order.
func Findings(imps []Impact) []lint.Finding {
	fs := make([]lint.Finding, len(imps))
	for i, im := range imps {
		fs[i] = im.Finding()
	}
	lint.Sort(fs)
	return fs
}

// MaxSeverity returns the highest severity among the impacts (SevInfo
// when empty).
func MaxSeverity(imps []Impact) lint.Severity {
	max := lint.SevInfo
	for _, im := range imps {
		if im.Severity > max {
			max = im.Severity
		}
	}
	return max
}

// Expansions filters the error-severity impacts — the privilege
// expansions the reload gate refuses.
func Expansions(imps []Impact) []Impact {
	var out []Impact
	for _, im := range imps {
		if im.Severity >= lint.SevError {
			out = append(out, im)
		}
	}
	return out
}

// Diff compares two deployment states and returns the impact records,
// deterministically ordered by (report, role, code, subject, message).
func Diff(oldS, newS *State) ([]Impact, error) {
	oldE, newE := oldS.newEnforcer(), newS.newEnforcer()
	var imps []Impact

	ids := map[string]bool{}
	for _, d := range oldS.Reports {
		ids[d.ID] = true
	}
	for _, d := range newS.Reports {
		ids[d.ID] = true
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)

	for _, id := range sorted {
		od, nd := oldS.report(id), newS.report(id)
		switch {
		case od == nil:
			got, err := newReport(newE, nd)
			if err != nil {
				return nil, err
			}
			imps = append(imps, got...)
		case nd == nil:
			for _, role := range tripleRoles(od, nil) {
				imps = append(imps, Impact{
					Code: CodeNewDeny, Severity: lint.SevWarning,
					Report: id, Role: role, Purpose: od.Purpose,
					Message: fmt.Sprintf("report %q removed: consumers lose access", id),
				})
			}
		default:
			got, err := diffReport(oldE, newE, od, nd)
			if err != nil {
				return nil, err
			}
			imps = append(imps, got...)
		}
	}
	sortImpacts(imps)
	return imps, nil
}

// newReport classifies every triple of a report that exists only in the
// new state: delivering data where nothing was delivered before is an
// expansion; a statically blocked addition is inert.
func newReport(newE *enforce.ReportEnforcer, nd *report.Definition) ([]Impact, error) {
	var imps []Impact
	for _, role := range tripleRoles(nil, nd) {
		prog, _, err := newE.ProgramFor(nd, role, nd.Purpose)
		if err != nil {
			return nil, fmt.Errorf("diff: compile new %s/%s: %w", nd.ID, role, err)
		}
		if prog.Blocked() {
			imps = append(imps, Impact{
				Code: CodeNewAllow, Severity: lint.SevInfo,
				Report: nd.ID, Role: role, Purpose: nd.Purpose,
				Message: fmt.Sprintf("report %q is new but statically blocked", nd.ID),
			})
			continue
		}
		imps = append(imps, Impact{
			Code: CodeNewAllow, Severity: lint.SevError,
			Report: nd.ID, Role: role, Purpose: nd.Purpose,
			Message: fmt.Sprintf("report %q is new and delivers data to role %q", nd.ID, displayRole(role)),
		})
	}
	return imps, nil
}

// diffReport compares one report present in both states across the union
// of its declared roles.
func diffReport(oldE, newE *enforce.ReportEnforcer, od, nd *report.Definition) ([]Impact, error) {
	ocomp, _, err := oldE.CompositeFor(od)
	if err != nil {
		return nil, fmt.Errorf("diff: compose old %s: %w", od.ID, err)
	}
	ncomp, _, err := newE.CompositeFor(nd)
	if err != nil {
		return nil, fmt.Errorf("diff: compose new %s: %w", nd.ID, err)
	}
	var imps []Impact
	if !strings.EqualFold(od.Purpose, nd.Purpose) {
		imps = append(imps, Impact{
			Code: CodeNewDeny, Severity: lint.SevWarning,
			Report: nd.ID, Purpose: nd.Purpose,
			Message: fmt.Sprintf("report purpose changed from %q to %q", od.Purpose, nd.Purpose),
		})
	}
	for _, role := range tripleRoles(od, nd) {
		P, _, err := oldE.ProgramFor(od, role, od.Purpose)
		if err != nil {
			return nil, fmt.Errorf("diff: compile old %s/%s: %w", od.ID, role, err)
		}
		Q, _, err := newE.ProgramFor(nd, role, nd.Purpose)
		if err != nil {
			return nil, fmt.Errorf("diff: compile new %s/%s: %w", nd.ID, role, err)
		}
		t := triple{report: nd.ID, role: role, purpose: nd.Purpose}
		imps = append(imps, diffStatic(t, P, Q)...)
		imps = append(imps, diffThresholds(t, P, Q)...)
		imps = append(imps, diffFilters(t, P, Q)...)
		imps = append(imps, diffColumns(t, P, Q)...)
		imps = append(imps, diffRules(t, ocomp, ncomp)...)
	}
	return imps, nil
}

type triple struct{ report, role, purpose string }

func (t triple) impact(code string, sev lint.Severity, subject, msg string, plas []string) Impact {
	return Impact{Code: code, Severity: sev, Report: t.report, Role: t.role,
		Purpose: t.purpose, Subject: subject, Message: msg, PLAs: plas}
}

// diffStatic compares the folded block verdicts. Mask verdicts are
// intentionally skipped here — they mirror the column plans and are
// diffed (with more context) by diffColumns.
func diffStatic(t triple, P, Q *enforce.Program) []Impact {
	oldBlocks := blockVerdicts(P)
	newBlocks := blockVerdicts(Q)
	var imps []Impact
	for _, key := range sortedKeys(oldBlocks) {
		if _, ok := newBlocks[key]; ok {
			continue
		}
		v := oldBlocks[key]
		sev, note := lint.SevError, "report now renders"
		if Q.Blocked() {
			sev, note = lint.SevInfo, "report remains blocked by another verdict"
		}
		imps = append(imps, t.impact(CodeNewAllow, sev, v.Subject,
			fmt.Sprintf("static %s block on %q lifted: %s", v.Rule, v.Subject, note), v.PLAs))
	}
	for _, key := range sortedKeys(newBlocks) {
		if _, ok := oldBlocks[key]; ok {
			continue
		}
		v := newBlocks[key]
		imps = append(imps, t.impact(CodeNewDeny, lint.SevWarning, v.Subject,
			fmt.Sprintf("new static %s block on %q: report no longer renders for this triple", v.Rule, v.Subject), v.PLAs))
	}
	return imps
}

func blockVerdicts(p *enforce.Program) map[string]enforce.Decision {
	out := map[string]enforce.Decision{}
	for _, d := range enforce.Blocked(p.Static) {
		out[d.Rule+"|"+d.Subject] = d
	}
	return out
}

// diffThresholds compares the baked aggregation thresholds per grouping
// attribute: a lowered or dropped minimum is an expansion.
func diffThresholds(t triple, P, Q *enforce.Program) []Impact {
	oldT := thresholdMap(P)
	newT := thresholdMap(Q)
	var imps []Impact
	for _, by := range sortedKeys(oldT) {
		o := oldT[by]
		n, ok := newT[by]
		switch {
		case !ok:
			// A report that stopped aggregating folds its thresholds
			// into a static block — strictly more restrictive, and
			// already reported by diffStatic.
			if !Q.Aggregated && Q.Blocked() {
				continue
			}
			imps = append(imps, t.impact(CodeThreshold, lint.SevError, thresholdSubject(by),
				fmt.Sprintf("aggregation threshold min %d by %s removed", o.Min, thresholdSubject(by)), o.PLAs))
		case n.Min < o.Min:
			imps = append(imps, t.impact(CodeThreshold, lint.SevError, thresholdSubject(by),
				fmt.Sprintf("aggregation threshold by %s loosened: min %d -> %d", thresholdSubject(by), o.Min, n.Min), n.PLAs))
		case n.Min > o.Min:
			imps = append(imps, t.impact(CodeThreshold, lint.SevInfo, thresholdSubject(by),
				fmt.Sprintf("aggregation threshold by %s tightened: min %d -> %d", thresholdSubject(by), o.Min, n.Min), n.PLAs))
		}
	}
	for _, by := range sortedKeys(newT) {
		if _, ok := oldT[by]; ok {
			continue
		}
		n := newT[by]
		imps = append(imps, t.impact(CodeThreshold, lint.SevInfo, thresholdSubject(by),
			fmt.Sprintf("new aggregation threshold min %d by %s", n.Min, thresholdSubject(by)), n.PLAs))
	}
	return imps
}

func thresholdMap(p *enforce.Program) map[string]enforce.Threshold {
	out := map[string]enforce.Threshold{}
	for _, th := range p.Thresholds {
		out[th.By] = th
	}
	return out
}

func thresholdSubject(by string) string {
	if by == "" {
		return "rows"
	}
	return by
}

// diffFilters compares the pre-bound row filters by expression text.
func diffFilters(t triple, P, Q *enforce.Program) []Impact {
	oldF := stringSet(predicateTexts(P.Filters))
	newF := stringSet(predicateTexts(Q.Filters))
	var imps []Impact
	for _, expr := range sortedKeys(oldF) {
		if _, ok := newF[expr]; ok {
			continue
		}
		imps = append(imps, t.impact(CodeRowFilter, lint.SevError, expr,
			fmt.Sprintf("row filter %s dropped: previously suppressed rows are released", expr), P.FilterPLAs))
	}
	for _, expr := range sortedKeys(newF) {
		if _, ok := oldF[expr]; ok {
			continue
		}
		imps = append(imps, t.impact(CodeRowFilter, lint.SevInfo, expr,
			fmt.Sprintf("new row filter %s", expr), Q.FilterPLAs))
	}
	return imps
}

// predicateTexts renders bound predicates as their expression text, the
// form in which programs are compared.
func predicateTexts(ps []enforce.BoundPredicate) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = fmt.Sprint(p.Expr)
	}
	return out
}

// diffColumns compares the static column release plans: a mask dropped,
// a release condition dropped, or a fresh raw column is a widening.
func diffColumns(t triple, P, Q *enforce.Program) []Impact {
	oldC := columnMap(P)
	newC := columnMap(Q)
	var imps []Impact
	for _, name := range sortedKeys(oldC) {
		o := oldC[name]
		n, ok := newC[name]
		if !ok {
			imps = append(imps, t.impact(CodeNewDeny, lint.SevWarning, name,
				fmt.Sprintf("column %q removed from the report", name), nil))
			continue
		}
		switch {
		case o.Masked && !n.Masked && !n.Aggregate:
			imps = append(imps, t.impact(CodeColumnPlan, lint.SevError, name,
				fmt.Sprintf("column %q released: previously masked (%s)", name, o.Decision.Rule), o.Decision.PLAs))
		case !o.Masked && n.Masked:
			imps = append(imps, t.impact(CodeNewDeny, lint.SevWarning, name,
				fmt.Sprintf("column %q now masked (%s)", name, n.Decision.Rule), n.Decision.PLAs))
		case o.Aggregate && !n.Aggregate && !n.Masked:
			imps = append(imps, t.impact(CodeColumnPlan, lint.SevError, name,
				fmt.Sprintf("column %q now released as raw values (was aggregate)", name), nil))
		case !o.Aggregate && n.Aggregate && !o.Masked:
			imps = append(imps, t.impact(CodeColumnPlan, lint.SevInfo, name,
				fmt.Sprintf("column %q now aggregated (was raw)", name), nil))
		}
		if !o.Masked && !n.Masked {
			imps = append(imps, diffConditions(t, name, o, n)...)
		}
	}
	for _, name := range sortedKeys(newC) {
		if _, ok := oldC[name]; ok {
			continue
		}
		n := newC[name]
		switch {
		case n.Masked:
			imps = append(imps, t.impact(CodeColumnPlan, lint.SevInfo, name,
				fmt.Sprintf("new column %q (masked)", name), n.Decision.PLAs))
		case n.Aggregate:
			imps = append(imps, t.impact(CodeColumnPlan, lint.SevInfo, name,
				fmt.Sprintf("new column %q (aggregate, threshold-governed)", name), nil))
		default:
			imps = append(imps, t.impact(CodeColumnPlan, lint.SevError, name,
				fmt.Sprintf("new column %q released as raw values", name), nil))
		}
	}
	return imps
}

// diffConditions compares the intensional release conditions of one
// released column: dropping a condition releases previously guarded
// cells.
func diffConditions(t triple, name string, o, n enforce.ColumnPlan) []Impact {
	oldC := stringSet(predicateTexts(o.Conditions))
	newC := stringSet(predicateTexts(n.Conditions))
	var imps []Impact
	for _, cond := range sortedKeys(oldC) {
		if _, ok := newC[cond]; ok {
			continue
		}
		imps = append(imps, t.impact(CodeColumnPlan, lint.SevError, name,
			fmt.Sprintf("release condition %s on column %q dropped", cond, name), nil))
	}
	for _, cond := range sortedKeys(newC) {
		if _, ok := oldC[cond]; ok {
			continue
		}
		imps = append(imps, t.impact(CodeColumnPlan, lint.SevInfo, name,
			fmt.Sprintf("new release condition %s on column %q", cond, name), nil))
	}
	return imps
}

func columnMap(p *enforce.Program) map[string]enforce.ColumnPlan {
	out := map[string]enforce.ColumnPlan{}
	for _, c := range p.Columns {
		out[c.Name] = c
	}
	return out
}

// ownedRule is an access rule tagged with its PLA of origin.
type ownedRule struct {
	pla   string
	owner string
	r     policy.AccessRule
}

// diffRules is the symbolic leg: independent of what the current query
// projects, a new allow no previous allow covers (or a deny no remaining
// deny covers) moves the boundary for every future query under the same
// composite. Covering uses RuleCoversWhen, so a condition change is a
// move, not a rewrite.
func diffRules(t triple, ocomp, ncomp *policy.Composite) []Impact {
	oldAllow, oldDeny := accessRules(ocomp, t.role, t.purpose)
	newAllow, newDeny := accessRules(ncomp, t.role, t.purpose)
	var imps []Impact
	for _, nr := range newAllow {
		if coveredByOwner(oldAllow, nr) {
			continue
		}
		im := t.impact(CodeNewAllow, lint.SevError, nr.r.Attribute,
			fmt.Sprintf("new allow of attribute %q (pla %q) not covered by any previous allow", nr.r.Attribute, nr.pla),
			[]string{nr.pla})
		im.Pos = nr.r.Pos
		imps = append(imps, im)
	}
	for _, or := range oldDeny {
		if coveredBy(newDeny, or.r) {
			continue
		}
		imps = append(imps, t.impact(CodeNewAllow, lint.SevError, or.r.Attribute,
			fmt.Sprintf("deny of attribute %q (pla %q) removed: no remaining deny covers it", or.r.Attribute, or.pla),
			[]string{or.pla}))
	}
	for _, nr := range newDeny {
		if coveredBy(oldDeny, nr.r) {
			continue
		}
		im := t.impact(CodeNewDeny, lint.SevWarning, nr.r.Attribute,
			fmt.Sprintf("new deny of attribute %q (pla %q)", nr.r.Attribute, nr.pla),
			[]string{nr.pla})
		im.Pos = nr.r.Pos
		imps = append(imps, im)
	}
	for _, or := range oldAllow {
		if coveredByOwner(newAllow, or) {
			continue
		}
		imps = append(imps, t.impact(CodeNewDeny, lint.SevWarning, or.r.Attribute,
			fmt.Sprintf("allow of attribute %q (pla %q) removed or narrowed", or.r.Attribute, or.pla),
			[]string{or.pla}))
	}
	return imps
}

// accessRules collects the composite's access rules that can apply to
// the triple's (role, purpose), split by effect. An empty triple role
// matches every rule (conservative: report all movements).
func accessRules(comp *policy.Composite, role, purpose string) (allow, deny []ownedRule) {
	for _, p := range comp.PLAs {
		for _, r := range p.Access {
			if !ruleAppliesTo(r, role, purpose) {
				continue
			}
			if r.Effect == policy.Allow {
				allow = append(allow, ownedRule{pla: p.ID, owner: p.Owner, r: r})
			} else {
				deny = append(deny, ownedRule{pla: p.ID, owner: p.Owner, r: r})
			}
		}
	}
	return allow, deny
}

func ruleAppliesTo(r policy.AccessRule, role, purpose string) bool {
	if role != "" && len(r.Roles) > 0 && !containsFold(r.Roles, role) {
		return false
	}
	if purpose != "" && len(r.Purposes) > 0 && !containsFold(r.Purposes, purpose) {
		return false
	}
	return true
}

func coveredBy(set []ownedRule, r policy.AccessRule) bool {
	for _, s := range set {
		if policy.RuleCoversWhen(s.r, r) {
			return true
		}
	}
	return false
}

// coveredByOwner is coveredBy restricted to rules of the same owner.
// Used for allow coverage: closed-world access is per owner, so one
// owner's allow (even `allow attribute *`) cannot release data another
// owner's rules govern — only a matching allow by the same owner makes
// a new allow a covered rewrite rather than an expansion. Deny coverage
// stays cross-owner: under most-restrictive-wins, any owner's remaining
// deny keeps the restriction alive.
func coveredByOwner(set []ownedRule, or ownedRule) bool {
	for _, s := range set {
		if s.owner == or.owner && policy.RuleCoversWhen(s.r, or.r) {
			return true
		}
	}
	return false
}

func containsFold(list []string, s string) bool {
	for _, v := range list {
		if strings.EqualFold(v, s) {
			return true
		}
	}
	return false
}

// tripleRoles returns the union of the declared roles of both
// definitions (either may be nil), lowercased, sorted, defaulting to the
// anonymous role when no roles are declared anywhere.
func tripleRoles(od, nd *report.Definition) []string {
	seen := map[string]bool{}
	var roles []string
	add := func(d *report.Definition) {
		if d == nil {
			return
		}
		for _, r := range d.Roles {
			lr := strings.ToLower(r)
			if !seen[lr] {
				seen[lr] = true
				roles = append(roles, lr)
			}
		}
	}
	add(od)
	add(nd)
	if len(roles) == 0 {
		return []string{""}
	}
	sort.Strings(roles)
	return roles
}

func displayRole(role string) string {
	if role == "" {
		return "*"
	}
	return role
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func stringSet(list []string) map[string]bool {
	out := map[string]bool{}
	for _, s := range list {
		out[s] = true
	}
	return out
}

func sortImpacts(imps []Impact) {
	sort.SliceStable(imps, func(i, j int) bool {
		a, b := imps[i], imps[j]
		if a.Report != b.Report {
			return a.Report < b.Report
		}
		if a.Role != b.Role {
			return a.Role < b.Role
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		return a.Message < b.Message
	})
}
