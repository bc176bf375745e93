package lint

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"plabi/internal/enforce"
	"plabi/internal/etl"
	"plabi/internal/policy"
)

// etlLeaks (PL006) checks ETL plans with the runtime's own guard: each
// pipeline runs over zero-row copies of its extracted tables
// (etl.Pipeline.RunEmpty), reading no data, and every join and integration
// check that run makes is put to enforce.PLAGuard over the pass's
// agreements. A plan the guard would stop at run time — or that loads an
// attribute no role may ever see — is reported at lint time, the paper's
// level-2 compliance check (§5, Fig. 3) moved before deployment.
type etlLeaks struct{}

func init() { Register(etlLeaks{}) }

func (etlLeaks) Code() string { return "PL006" }
func (etlLeaks) Name() string { return "etl-leak-paths" }
func (etlLeaks) Doc() string {
	return "ETL steps whose run over zero rows the runtime guard refuses a join or an integration, " +
		"or that extract attributes denied to every role into the warehouse."
}

func (etlLeaks) Run(p *Pass) []Finding {
	var out []Finding
	for _, pipe := range p.Pipelines {
		g := &askAll{guard: enforce.NewPLAGuard(p.Registry)}
		pipe.RunEmpty(g, func(s etl.Step, err error) {
			if st, ok := s.(*etl.Extract); ok {
				out = append(out, extractLeaks(p, pipe, st)...)
			}
			for _, r := range g.refused {
				out = append(out, r.finding(p, pipe, s))
			}
			g.refused = g.refused[:0]
			if err != nil {
				out = append(out, Finding{
					Code: "PL006", Severity: SevWarning, Level: policy.LevelWarehouse,
					Subject: fmt.Sprintf("%s/%s", pipe.Name, s.Name()),
					Message: fmt.Sprintf("ETL step %q of pipeline %q fails over zero rows, so the joins and integrations from it on are not checked: %v",
						s.Name(), pipe.Name, err),
				})
			}
		})
	}
	return out
}

// askAll puts every check a run makes to the runtime guard, records each
// refusal and lets the run go on.
type askAll struct {
	guard   etl.Guard
	refused []refusal
}

// refusal is a decision of the guard refusing the join of tables a and b,
// or the integration of donor table a's data for owner b.
type refusal struct {
	join bool
	a, b string
	d    enforce.Decision
}

func (g *askAll) CheckJoin(l, r string) error { return g.note(true, l, r, g.guard.CheckJoin(l, r)) }

func (g *askAll) CheckIntegration(donor, owner string) error {
	return g.note(false, donor, owner, g.guard.CheckIntegration(donor, owner))
}

func (g *askAll) note(join bool, a, b string, err error) error {
	var be *enforce.BlockedError
	if errors.As(err, &be) {
		for _, d := range be.Decisions {
			g.refused = append(g.refused, refusal{join, a, b, d})
		}
	}
	return nil
}

// finding reports the refusal r in step s of pipe, located at the rule of
// the refusing PLA that names the other side (at the PLA when none does).
func (r refusal) finding(p *Pass, pipe *etl.Pipeline, s etl.Step) Finding {
	// The decision's evidence is the refusing table, then the other side.
	denier, other := r.d.Evidence[0], r.d.Evidence[1]
	f := Finding{Code: "PL006", Severity: SevError, Level: policy.LevelWarehouse, PLAs: r.d.PLAs}
	if pla, ok := p.Registry.ByID(r.d.PLAs[0]); ok {
		f.Pos = pla.Pos
		if _, rule := pla.JoinAllowed(other); r.join && rule != nil {
			f.Pos = rule.Pos
		}
		if _, rule := pla.IntegrationAllowed(other); !r.join && rule != nil {
			f.Pos = rule.Pos
		}
	}
	if !r.join {
		f.Subject = fmt.Sprintf("%s/%s: %s for %s", pipe.Name, s.Name(), denier, other)
		f.Message = fmt.Sprintf("ETL step %q of pipeline %q uses %q to clean data of owner %q, forbidden by PLA %s — the pipeline will be blocked at run time",
			s.Name(), pipe.Name, denier, other, r.d.Detail)
		return f
	}
	f.Subject = fmt.Sprintf("%s/%s: %s JOIN %s", pipe.Name, s.Name(), r.a, r.b)
	f.Message = fmt.Sprintf("ETL step %q of pipeline %q joins data from %q with %q, forbidden by PLA %s — the pipeline will be blocked at run time",
		s.Name(), pipe.Name, denier, other, r.d.Detail)
	return f
}

// extractLeaks flags extraction of attributes that an unconditional,
// role-free deny rule makes invisible to every consumer: loading them
// into the warehouse creates a copy no report may ever release.
func extractLeaks(p *Pass, pipe *etl.Pipeline, st *etl.Extract) []Finding {
	t, ok := st.Source.Table(st.Table)
	if !ok {
		return nil
	}
	var out []Finding
	comp := p.Registry.ForScope(policy.LevelSource, st.Table)
	for _, col := range t.Schema.ColumnNames() {
		for _, pla := range comp.PLAs {
			for _, r := range pla.Access {
				if r.Effect != policy.Deny || len(r.Roles) > 0 || len(r.Purposes) > 0 {
					continue
				}
				if r.Attribute != "*" && !strings.EqualFold(r.Attribute, col) {
					continue
				}
				out = append(out, Finding{
					Code: "PL006", Severity: SevWarning, Level: policy.LevelWarehouse,
					Pos:     r.Pos,
					Subject: fmt.Sprintf("%s/%s: %s.%s", pipe.Name, st.Name(), st.Table, col),
					Message: fmt.Sprintf("ETL step %q of pipeline %q extracts attribute %q of %q into the warehouse although PLA %q denies it to every role — no report can ever release it; project it away before loading",
						st.Name(), pipe.Name, col, st.Table, pla.ID),
					PLAs: []string{pla.ID},
				})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Subject < out[j].Subject })
	return out
}
