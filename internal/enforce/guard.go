package enforce

import "plabi/internal/policy"

// PLAGuard is the policy-backed etl.Guard: joins and integrations during
// ETL are checked against the source- and warehouse-level PLAs elicited
// for the involved base tables (Fig. 3; policy.Registry.ForTable). A
// refusal is a *BlockedError wrapping ErrPLAViolation; its decision lists
// the refusing PLA's id, gives the reason as its detail, and names as its
// evidence the refusing table, then the other table or the beneficiary.
type PLAGuard struct {
	Registry *policy.Registry
}

// NewPLAGuard builds a guard over the registry.
func NewPLAGuard(reg *policy.Registry) *PLAGuard { return &PLAGuard{Registry: reg} }

// CheckJoin implements etl.Guard: both sides' PLAs must permit joining
// with the other.
func (g *PLAGuard) CheckJoin(left, right string) error {
	for _, s := range [2][2]string{{left, right}, {right, left}} {
		if d := joinRefusal(g.Registry, s[0], s[1]); d != nil {
			d.Evidence = s[:]
			return &BlockedError{Op: "join", Subject: d.Subject, Decisions: []Decision{*d}}
		}
	}
	return nil
}

// joinRefusal is the refusal by table's PLAs of joining it with other —
// the join-permission decision of a report and of the ETL guard — or nil.
func joinRefusal(reg *policy.Registry, table, other string) *Decision {
	if id, reason := reg.ForTable(table).JoinDenial(other); id != "" {
		return &Decision{Outcome: Block, Rule: "join-permission", Subject: table + " JOIN " + other,
			PLAs: []string{id}, Detail: reason}
	}
	return nil
}

// CheckIntegration implements etl.Guard: the donor table's PLAs must
// permit using its data for the beneficiary owner.
func (g *PLAGuard) CheckIntegration(donorTable, beneficiaryOwner string) error {
	if id, reason := g.Registry.ForTable(donorTable).IntegrationDenial(beneficiaryOwner); id != "" {
		return &BlockedError{Op: "integration", Subject: donorTable, Decisions: []Decision{{
			Outcome: Block, Rule: "integration-permission", Subject: donorTable, PLAs: []string{id}, Detail: reason,
			Evidence: []string{donorTable, beneficiaryOwner},
		}}}
	}
	return nil
}
