package lint

import (
	"fmt"
	"strings"

	"plabi/internal/policy"
)

// deadRules (PL001) finds access rules that can never influence a
// decision under compose.go's most-restrictive-wins semantics: an allow
// rule fully covered by an unconditional deny in any co-governing
// agreement (shadowed — the author believes access is granted, the
// runtime always refuses), and a rule fully covered by an earlier,
// broader rule of the same effect in the same agreement (redundant).
type deadRules struct{}

func init() { Register(deadRules{}) }

func (deadRules) Code() string { return "PL001" }
func (deadRules) Name() string { return "dead-rules" }
func (deadRules) Doc() string {
	return "Access rules that are unreachable under most-restrictive-wins composition: " +
		"allow rules always overridden by an unconditional deny (shadowed), and rules " +
		"subsumed by an earlier broader rule of the same effect (redundant)."
}

func (deadRules) Run(p *Pass) []Finding {
	var out []Finding
	for _, g := range p.scopeGroups() {
		for _, pla := range g.plas {
			for i, r := range pla.Access {
				// The dead-rule search is policy's, shared with the render
				// programs, which prune exactly the rules reported here.
				if r.Effect == policy.Allow {
					if by, si := policy.ShadowingDeny(g.plas, r); by != nil {
						out = append(out, shadowFinding(pla, i, r, by, by.Access[si]))
						continue
					}
				}
				if j := policy.CoveredEarlier(pla, i); j >= 0 {
					out = append(out, redundantFinding(pla, i, j))
				}
			}
		}
	}
	return out
}

func shadowFinding(pla *policy.PLA, idx int, r policy.AccessRule, by *policy.PLA, s policy.AccessRule) Finding {
	at := ""
	if s.Pos.IsValid() {
		at = fmt.Sprintf(" at %s", s.Pos)
	}
	return Finding{
		Code: "PL001", Severity: SevWarning, Level: pla.Level, Pos: r.Pos,
		Subject: pla.ID + "/" + r.Attribute,
		Message: fmt.Sprintf("allow rule for attribute %q%s in PLA %q is dead: always overridden by the deny rule%s in PLA %q (most-restrictive-wins)",
			r.Attribute, ruleScopeSuffix(r), pla.ID, at, by.ID),
		PLAs: plaIDs(pla, by),
		SuggestedFix: &Fix{
			Summary: fmt.Sprintf("remove the shadowed allow rule for %q from PLA %q", r.Attribute, pla.ID),
			PLAID:   pla.ID, Kind: "access", Index: idx, Action: "remove",
		},
	}
}

func redundantFinding(pla *policy.PLA, i, j int) Finding {
	r, s := pla.Access[i], pla.Access[j]
	return Finding{
		Code: "PL001", Severity: SevInfo, Level: pla.Level, Pos: r.Pos,
		Subject: pla.ID + "/" + r.Attribute,
		Message: fmt.Sprintf("%s rule for attribute %q%s in PLA %q is redundant: already covered by the broader %s rule for %q",
			r.Effect, r.Attribute, ruleScopeSuffix(r), pla.ID, s.Effect, s.Attribute),
		PLAs: []string{pla.ID},
		SuggestedFix: &Fix{
			Summary: fmt.Sprintf("remove the redundant %s rule for %q from PLA %q", r.Effect, r.Attribute, pla.ID),
			PLAID:   pla.ID, Kind: "access", Index: i, Action: "remove",
		},
	}
}

// ruleScopeSuffix renders the role/purpose restriction of a rule for
// messages (" (roles analyst)", "").
func ruleScopeSuffix(r policy.AccessRule) string {
	var parts []string
	if len(r.Roles) > 0 {
		parts = append(parts, "roles "+strings.Join(r.Roles, ", "))
	}
	if len(r.Purposes) > 0 {
		parts = append(parts, "purpose "+strings.Join(r.Purposes, ", "))
	}
	if len(parts) == 0 {
		return ""
	}
	return " (" + strings.Join(parts, "; ") + ")"
}

func plaIDs(plas ...*policy.PLA) []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range plas {
		if !seen[p.ID] {
			seen[p.ID] = true
			out = append(out, p.ID)
		}
	}
	return out
}
