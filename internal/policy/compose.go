package policy

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"plabi/internal/relation"
)

// Conflict records an explicit allow/deny disagreement between two PLAs on
// the same subject — surfaced to the requirements engineer rather than
// silently resolved (§2 challenge ii).
type Conflict struct {
	Kind    string // "access" | "join" | "integration"
	Subject string // attribute, relation, or beneficiary
	AllowBy string // PLA id granting
	DenyBy  string // PLA id denying
}

// String renders the conflict.
func (c Conflict) String() string {
	return fmt.Sprintf("%s conflict on %q: allowed by %s, denied by %s",
		c.Kind, c.Subject, c.AllowBy, c.DenyBy)
}

// Composite is the integration of several PLAs governing the same data.
// All decision methods apply most-restrictive-wins: a deny in any member
// PLA dominates, thresholds take the maximum, conditions conjoin.
type Composite struct {
	PLAs      []*PLA
	Conflicts []Conflict
}

// Compose integrates PLAs from multiple sources. Conflicts are detected
// eagerly (explicit allow in one PLA vs explicit deny in another for the
// same subject) and recorded; decisions still resolve restrictively.
func Compose(plas ...*PLA) *Composite {
	c := &Composite{PLAs: plas}
	c.detectConflicts()
	return c
}

func (c *Composite) detectConflicts() {
	type ad struct{ allowBy, denyBy string }
	access := map[string]*ad{}
	joins := map[string]*ad{}
	integ := map[string]*ad{}

	record := func(m map[string]*ad, key, id string, e Effect) {
		entry := m[key]
		if entry == nil {
			entry = &ad{}
			m[key] = entry
		}
		if e == Allow && entry.allowBy == "" {
			entry.allowBy = id
		}
		if e == Deny && entry.denyBy == "" {
			entry.denyBy = id
		}
	}

	for _, p := range c.PLAs {
		for _, r := range p.Access {
			key := strings.ToLower(r.Attribute)
			// Role-specific rules conflict only when role sets overlap;
			// approximate with attribute+role keys.
			if len(r.Roles) == 0 {
				record(access, key, p.ID, r.Effect)
			} else {
				for _, role := range r.Roles {
					record(access, key+"/"+strings.ToLower(role), p.ID, r.Effect)
				}
			}
		}
		for _, r := range p.Joins {
			record(joins, strings.ToLower(r.Other), p.ID, r.Effect)
		}
		for _, r := range p.Integrations {
			record(integ, strings.ToLower(r.Beneficiary), p.ID, r.Effect)
		}
	}
	emit := func(kind string, m map[string]*ad) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			e := m[k]
			if e.allowBy != "" && e.denyBy != "" && e.allowBy != e.denyBy {
				c.Conflicts = append(c.Conflicts, Conflict{
					Kind: kind, Subject: k, AllowBy: e.allowBy, DenyBy: e.denyBy,
				})
			}
		}
	}
	emit("access", access)
	emit("join", joins)
	emit("integration", integ)
}

// DecideAttribute integrates attribute access across all member PLAs whose
// scope covers the data: every PLA with matching rules must allow; any
// deny dominates; PLAs with no matching rule abstain, and if every PLA
// abstains the result is deny (closed world). Conditions from all
// allowing PLAs conjoin.
func (c *Composite) DecideAttribute(attr, role, purpose string) AccessDecision {
	out := AccessDecision{Effect: Deny}
	sawAllow := false
	for _, p := range c.PLAs {
		d := p.DecideAttribute(attr, role, purpose)
		if len(d.Matched) == 0 {
			continue // abstain
		}
		out.Matched = append(out.Matched, d.Matched...)
		out.PLAs = mergeIDs(out.PLAs, d.PLAs)
		if d.Effect == Deny {
			return AccessDecision{Effect: Deny, Matched: d.Matched, PLAs: d.PLAs}
		}
		sawAllow = true
		out.Conditions = append(out.Conditions, d.Conditions...)
	}
	if sawAllow {
		out.Effect = Allow
	}
	return out
}

// AttrRef names an attribute together with the base table it originates
// from; Table "" denotes a report-level output name with no single
// origin.
type AttrRef struct {
	Name  string
	Table string
}

// DecideAttributeRefs integrates attribute access across the composite
// with *scoped* matching: source- and warehouse-level PLAs only govern
// attributes originating from their own scope table (a drugcost PLA's
// "allow attribute *" says nothing about prescription columns), while
// meta-report- and report-level PLAs speak about any referenced name.
// Deny dominates; no matching rule anywhere means deny (closed world).
func (c *Composite) DecideAttributeRefs(refs []AttrRef, role, purpose string) AccessDecision {
	out := AccessDecision{Effect: Deny}
	sawAllow := false
	for _, p := range c.PLAs {
		for _, ref := range refs {
			if p.Level == LevelSource || p.Level == LevelWarehouse {
				if ref.Table == "" || (p.Scope != "*" && !strings.EqualFold(p.Scope, ref.Table)) {
					continue
				}
			}
			d := p.DecideAttribute(ref.Name, role, purpose)
			if len(d.Matched) == 0 {
				continue
			}
			out.Matched = append(out.Matched, d.Matched...)
			out.PLAs = mergeIDs(out.PLAs, d.PLAs)
			if d.Effect == Deny {
				return AccessDecision{Effect: Deny, Matched: d.Matched, PLAs: d.PLAs}
			}
			sawAllow = true
			out.Conditions = append(out.Conditions, d.Conditions...)
		}
	}
	if sawAllow {
		out.Effect = Allow
	}
	return out
}

// JoinAllowed integrates join permissions: denied if any PLA denies.
func (c *Composite) JoinAllowed(other string) (bool, string) {
	id, reason := c.JoinDenial(other)
	return id == "", reason
}

// JoinDenial returns the id of the first member PLA forbidding a join with
// the named relation and why, naming the rule that does; "" when none does.
func (c *Composite) JoinDenial(other string) (id, reason string) {
	for _, p := range c.PLAs {
		if ok, rule := p.JoinAllowed(other); !ok {
			if rule != nil {
				return p.ID, fmt.Sprintf("%s (forbid join with %s)", p.ID, rule.Other)
			}
			return p.ID, p.ID
		}
	}
	return "", ""
}

// IntegrationAllowed integrates cleaning permissions: denied if any PLA
// denies.
func (c *Composite) IntegrationAllowed(beneficiary string) (bool, string) {
	id, reason := c.IntegrationDenial(beneficiary)
	return id == "", reason
}

// IntegrationDenial returns the id of the first member PLA forbidding
// integration for the named beneficiary and why; "" when none does.
func (c *Composite) IntegrationDenial(beneficiary string) (id, reason string) {
	for _, p := range c.PLAs {
		if ok, rule := p.IntegrationAllowed(beneficiary); !ok {
			if rule != nil {
				return p.ID, fmt.Sprintf("%s (forbid integration for %s)", p.ID, rule.Beneficiary)
			}
			return p.ID, p.ID
		}
	}
	return "", ""
}

// MinAggregation integrates aggregation thresholds: the maximum across
// member PLAs.
func (c *Composite) MinAggregation(by string) int {
	best := 0
	for _, p := range c.PLAs {
		if m := p.MinAggregation(by); m > best {
			best = m
		}
	}
	return best
}

// AggregationRules returns the union of member aggregation rules.
func (c *Composite) AggregationRules() []AggregationRule {
	var out []AggregationRule
	for _, p := range c.PLAs {
		out = append(out, p.Aggregations...)
	}
	return out
}

// AggregationPLAs returns the ids of the member PLAs imposing aggregation
// thresholds — the deciding agreements behind a threshold block.
func (c *Composite) AggregationPLAs() []string {
	var out []string
	for _, p := range c.PLAs {
		if len(p.Aggregations) > 0 {
			out = mergeIDs(out, []string{p.ID})
		}
	}
	return out
}

// FilterPLAs returns the ids of the member PLAs imposing row filters.
func (c *Composite) FilterPLAs() []string {
	var out []string
	for _, p := range c.PLAs {
		if len(p.Filters) > 0 {
			out = mergeIDs(out, []string{p.ID})
		}
	}
	return out
}

// mergeIDs appends the ids not already present, preserving order.
func mergeIDs(dst, add []string) []string {
	for _, id := range add {
		found := false
		for _, have := range dst {
			if have == id {
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, id)
		}
	}
	return dst
}

// AnonymizeRules returns the union of member anonymization rules.
func (c *Composite) AnonymizeRules() []AnonymizeRule {
	var out []AnonymizeRule
	for _, p := range c.PLAs {
		out = append(out, p.Anonymize...)
	}
	return out
}

// ReleaseRules returns the union of member release (k-anonymity) rules.
func (c *Composite) ReleaseRules() []ReleaseRule {
	var out []ReleaseRule
	for _, p := range c.PLAs {
		out = append(out, p.Release...)
	}
	return out
}

// Filters returns the conjunction of member row filters (all must hold).
func (c *Composite) Filters() []relation.Expr {
	var out []relation.Expr
	for _, p := range c.PLAs {
		for _, f := range p.Filters {
			out = append(out, f.When)
		}
	}
	return out
}

// Retention integrates retention: the minimum number of days across
// members (strictest), or 0 when none constrains it.
func (c *Composite) Retention() int {
	best := 0
	for _, p := range c.PLAs {
		if p.Retention == nil {
			continue
		}
		if best == 0 || p.Retention.Days < best {
			best = p.Retention.Days
		}
	}
	return best
}

// Registry indexes PLAs by scope and level; the per-deployment store of
// agreed requirements. It is safe for concurrent use: reads take a shared
// lock and every successful Add bumps the registry generation, which
// downstream decision caches key on for invalidation.
type Registry struct {
	mu   sync.RWMutex
	gen  atomic.Uint64
	plas []*PLA
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Generation returns a counter that increases whenever the set of agreed
// PLAs changes. A cached decision computed at generation g is valid only
// while Generation() == g.
func (r *Registry) Generation() uint64 { return r.gen.Load() }

// Add validates and stores a PLA.
func (r *Registry) Add(p *PLA) error {
	if err := p.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, existing := range r.plas {
		if existing.ID == p.ID {
			return fmt.Errorf("policy: duplicate PLA id %q", p.ID)
		}
	}
	r.plas = append(r.plas, p)
	r.gen.Add(1)
	return nil
}

// All returns every stored PLA.
func (r *Registry) All() []*PLA {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*PLA(nil), r.plas...)
}

// ByID returns the PLA with the given id.
func (r *Registry) ByID(id string) (*PLA, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, p := range r.plas {
		if p.ID == id {
			return p, true
		}
	}
	return nil, false
}

// ForScope returns the composite of all PLAs at the given level whose
// scope matches name (case-insensitive; "*" scopes match everything).
// Selected PLAs are ordered by id, never by registration order, so that
// composition — and in particular which of two equally specific
// agreements is reported as the deciding one — is identical across runs
// regardless of load order.
func (r *Registry) ForScope(level Level, name string) *Composite {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var sel []*PLA
	for _, p := range r.plas {
		if p.Level != level {
			continue
		}
		if p.Scope == "*" || strings.EqualFold(p.Scope, name) {
			sel = append(sel, p)
		}
	}
	sortByID(sel)
	return Compose(sel...)
}

// ForTable composes the source- and warehouse-level agreements governing
// one base table: what its joins and integrations must satisfy.
func (r *Registry) ForTable(table string) *Composite {
	return Compose(append(r.ForScope(LevelSource, table).PLAs, r.ForScope(LevelWarehouse, table).PLAs...)...)
}

// ForScopes returns the composite of all PLAs at the given level matching
// any of the names (e.g. every base table a report reads), ordered by id
// for run-to-run determinism.
func (r *Registry) ForScopes(level Level, names []string) *Composite {
	var sel []*PLA
	seen := map[string]bool{}
	for _, n := range names {
		for _, p := range r.ForScope(level, n).PLAs {
			if !seen[p.ID] {
				seen[p.ID] = true
				sel = append(sel, p)
			}
		}
	}
	sortByID(sel)
	return Compose(sel...)
}

// sortByID orders PLAs lexicographically by id — the deterministic
// tie-break applied before composition.
func sortByID(plas []*PLA) {
	sort.Slice(plas, func(i, j int) bool { return plas[i].ID < plas[j].ID })
}

// AtomCount sums elicited atoms across all PLAs at a level (Fig. 5 and E6
// metric).
func (r *Registry) AtomCount(level Level) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, p := range r.plas {
		if p.Level == level {
			n += p.Atoms()
		}
	}
	return n
}
