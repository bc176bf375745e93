package lint

import (
	"fmt"

	"plabi/internal/enforce"
	"plabi/internal/policy"
	"plabi/internal/report"
)

// blockedReports (PL004) statically proves, via the same decision logic
// the runtime uses, that a report can never render: every role/purpose
// combination in the report's audience yields at least one Block
// decision. A report nobody can ever see is a misconfiguration, not
// protection — the paper's pre-deployment check (§5) should catch it
// before the first consumer does.
type blockedReports struct{}

func init() { Register(blockedReports{}) }

func (blockedReports) Code() string { return "PL004" }
func (blockedReports) Name() string { return "always-blocked" }
func (blockedReports) Doc() string {
	return "Reports for which no role/purpose combination can ever pass the static " +
		"decision checks (join permissions, aggregation thresholds): dead deliverables."
}

func (blockedReports) Run(p *Pass) []Finding {
	if p.Catalog == nil || len(p.Reports) == 0 {
		return nil
	}
	var out []Finding
	for _, def := range p.Reports {
		if f, ok := alwaysBlocked(p, def); ok {
			out = append(out, f)
		}
	}
	return out
}

func alwaysBlocked(p *Pass, def *report.Definition) (Finding, bool) {
	roles := p.rolesFor(def)
	if len(roles) == 0 {
		return Finding{}, false // no role universe to quantify over
	}
	purposes := p.purposesFor(def)
	enf := p.enforcer()
	var sample enforce.Decision
	sampleRole, samplePurpose := "", ""
	for _, role := range roles {
		for _, purpose := range purposes {
			decs, err := enf.StaticCheck(def, role, purpose)
			if err != nil {
				return Finding{}, false // unprofilable query; not provable
			}
			blocked := enforce.Blocked(decs)
			if len(blocked) == 0 {
				return Finding{}, false // someone can render it
			}
			if sample.Rule == "" {
				sample, sampleRole, samplePurpose = blocked[0], role, purpose
			}
		}
	}
	purposeStr := samplePurpose
	if purposeStr == "" {
		purposeStr = "any"
	}
	return Finding{
		Code: "PL004", Severity: SevWarning, Level: policy.LevelReport,
		Pos:     p.plaPos(sample.PLAs),
		Subject: def.ID,
		Message: fmt.Sprintf("report %q can never render: every role/purpose combination is statically blocked (e.g. role %q, purpose %s: %s — %s)",
			def.ID, sampleRole, purposeStr, sample.Rule, sample.Detail),
		PLAs: sample.PLAs,
	}, true
}

// CheckQuery statically checks one report definition for one consumer
// with the decision logic a render runs first, over the pass's agreements
// and catalog. Every static decision becomes a PL004 finding: error
// severity when it blocks the render, info when the render proceeds with
// the subject masked.
func CheckQuery(p *Pass, def *report.Definition, role, purpose string) ([]Finding, error) {
	p.prepare()
	decs, err := p.enforcer().StaticCheck(def, role, purpose)
	if err != nil {
		return nil, err
	}
	out := make([]Finding, len(decs))
	for i, d := range decs {
		sev := SevInfo
		if d.Outcome == enforce.Block {
			sev = SevError
		}
		out[i] = Finding{
			Code: "PL004", Severity: sev, Level: policy.LevelReport,
			Pos: p.plaPos(d.PLAs), Subject: d.Subject, PLAs: d.PLAs,
			Message: fmt.Sprintf("query for role %q: %s", role, d),
		}
	}
	return out, nil
}
