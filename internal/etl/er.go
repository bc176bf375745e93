package etl

import (
	"fmt"
	"strings"

	"plabi/internal/relation"
	"plabi/internal/textutil"
)

// EntityResolution resolves dirty entity references in one column of a
// staging table against a canonical list drawn from another (donor)
// table — the paper's "integration" use of data: information from one
// owner cleaning/resolving another owner's data (§5 v). The guard's
// CheckIntegration is consulted with the donor table and the beneficiary
// owner before any donor value is used.
type EntityResolution struct {
	baseStep
	// Input is the staging table whose Column gets resolved.
	Input  string
	Column string
	// Canon is the staging table supplying canonical values from
	// CanonColumn.
	Canon       string
	CanonColumn string
	// Beneficiary is the owner of the Input data (the party whose data is
	// being cleaned with the donor's values).
	Beneficiary string
	// Threshold is the Jaro-Winkler similarity above which a dirty value
	// snaps to its best canonical match.
	Threshold float64
	Out       string

	// Stats of the last run.
	Resolved  int
	Unmatched int
}

// NewEntityResolution builds a guarded entity-resolution step.
func NewEntityResolution(name, input, column, canon, canonColumn, beneficiary string, threshold float64, output string) *EntityResolution {
	return &EntityResolution{
		baseStep: baseStep{name}, Input: input, Column: column,
		Canon: canon, CanonColumn: canonColumn, Beneficiary: beneficiary,
		Threshold: threshold, Out: output,
	}
}

// Op implements Step.
func (e *EntityResolution) Op() string { return "entity-resolution" }

// Inputs implements Step.
func (e *EntityResolution) Inputs() []string { return []string{e.Input, e.Canon} }

// Output implements Step.
func (e *EntityResolution) Output() string { return e.Out }

// Run implements Step.
func (e *EntityResolution) Run(c *Context) error {
	e.Resolved, e.Unmatched = 0, 0
	out, err := e.resolve(c, nil)
	if err != nil {
		return err
	}
	c.Put(e.Out, out)
	return nil
}

// resolve is the step body: the guard check, the matcher built from the
// canon, and the column rewritten over the input rows at the indices in
// dirty (nil = the whole input — a full Run; the delta path passes the
// changed rows). Stats accumulate; Run resets them first.
func (e *EntityResolution) resolve(c *Context, dirty []int) (*relation.Table, error) {
	in, err := c.Get(e.Input)
	if err != nil {
		return nil, err
	}
	canon, err := c.Get(e.Canon)
	if err != nil {
		return nil, err
	}
	for _, donor := range baseTablesOf(canon) {
		if err := c.Guard.CheckIntegration(donor, e.Beneficiary); err != nil {
			return nil, &ViolationError{Step: e.name, Rule: "integration-permission",
				Detail: fmt.Sprintf("donor %s cleaning data of %s: %v", donor, e.Beneficiary, err), Cause: err}
		}
	}
	ci := canon.Schema.Index(e.CanonColumn)
	if ci < 0 {
		return nil, fmt.Errorf("entity-resolution: canonical column %q not found", e.CanonColumn)
	}
	canon, err = canon.Materialize()
	if err != nil {
		return nil, err
	}
	matcher := newMatcher()
	for _, r := range canon.Rows {
		if v := r[ci]; v.Kind == relation.TString {
			matcher.add(v.S)
		}
	}
	ti := in.Schema.Index(e.Column)
	if ti < 0 {
		return nil, fmt.Errorf("entity-resolution: column %q not found", e.Column)
	}
	if dirty != nil {
		if in, err = relation.SliceRows(in, dirty); err != nil {
			return nil, err
		}
	}
	resolved, unmatched := 0, 0
	out, err := mapCol(c.Ctx(), in, ti, func(v relation.Value) relation.Value {
		if v.Kind != relation.TString {
			return v
		}
		best, ok := matcher.match(v.S, e.Threshold)
		if !ok {
			unmatched++
			return v
		}
		if best != v.S {
			resolved++
		}
		return relation.Str(best)
	})
	if err != nil {
		return nil, err
	}
	e.Resolved += resolved
	e.Unmatched += unmatched
	out.Name = e.Out
	return out, nil
}

// matcher indexes canonical strings with cheap blocking (first letter of
// each word, normalized) so resolution stays near-linear. Candidates carry
// their normalized form, computed once at add time — normalization is
// re-done per dirty value but never per (dirty value, candidate) pair.
type matcher struct {
	exact  map[string]string      // normalized -> canonical
	blocks map[string][]candidate // block key -> canonical candidates
}

// candidate is a canonical string plus its cached normalization.
type candidate struct {
	canon string
	norm  string
}

func newMatcher() *matcher {
	return &matcher{exact: map[string]string{}, blocks: map[string][]candidate{}}
}

func blockKeys(norm string) []string {
	words := strings.Fields(norm)
	keys := make([]string, 0, len(words))
	for _, w := range words {
		keys = append(keys, w[:1])
	}
	if len(keys) == 0 {
		keys = append(keys, "")
	}
	return keys
}

func (m *matcher) add(canonical string) {
	norm := textutil.Normalize(canonical)
	if _, ok := m.exact[norm]; ok {
		return
	}
	m.exact[norm] = canonical
	for _, k := range blockKeys(norm) {
		m.blocks[k] = append(m.blocks[k], candidate{canon: canonical, norm: norm})
	}
}

// match finds the best canonical candidate above the threshold.
func (m *matcher) match(s string, threshold float64) (string, bool) {
	norm := textutil.Normalize(s)
	if c, ok := m.exact[norm]; ok {
		return c, true
	}
	seen := map[string]bool{}
	best, bestScore := "", 0.0
	for _, k := range blockKeys(norm) {
		for _, cand := range m.blocks[k] {
			if seen[cand.canon] {
				continue
			}
			seen[cand.canon] = true
			score := textutil.JaroWinkler(norm, cand.norm)
			if score > bestScore {
				best, bestScore = cand.canon, score
			}
		}
	}
	if bestScore >= threshold {
		return best, true
	}
	return "", false
}
