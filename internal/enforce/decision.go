// Package enforce implements PLA enforcement at every level the paper
// studies: source-level release filtering and anonymization (§3, Fig. 2a),
// VPD-style query rewriting (§3), warehouse/ETL guarding of joins and
// integrations (§4, Fig. 3), and report-level static checking plus
// runtime cell/row/group enforcement with provenance-resolved intensional
// conditions (§5, Fig. 4). Every decision is a value carrying the rule,
// the PLAs involved, and provenance evidence, so audits are self-contained.
//
// A report's enforcement is read from the composed PLAs once per (report,
// role, purpose) into a Program: the render plan, stored in a
// generation-keyed cache. The static check, row enforcement, Explain and
// pladiff all read that one value.
package enforce

import (
	"fmt"
	"strings"
)

// Outcome is the effect of one enforcement decision.
type Outcome int

// Decision outcomes.
const (
	// Permit releases the element unchanged.
	Permit Outcome = iota
	// Mask blanks a cell or column but keeps the row.
	Mask
	// SuppressRow removes a row.
	SuppressRow
	// SuppressGroup removes an aggregate row below its threshold.
	SuppressGroup
	// Block refuses the whole operation (query, join, report).
	Block
)

var outcomeNames = map[Outcome]string{
	Permit: "permit", Mask: "mask", SuppressRow: "suppress-row",
	SuppressGroup: "suppress-group", Block: "block",
}

// String returns the outcome name.
func (o Outcome) String() string { return outcomeNames[o] }

// Decision is one enforcement decision with its justification.
type Decision struct {
	Outcome Outcome
	// Rule names the requirement kind that fired, e.g. "access-deny",
	// "access-default-deny", "condition", "aggregation-threshold",
	// "join-permission", "row-filter", "integration-permission".
	Rule string
	// Subject is the element decided on (column, row index, join pair).
	Subject string
	// PLAs lists the ids of the PLAs that matched.
	PLAs []string
	// Detail is a human-readable explanation.
	Detail string
	// Evidence carries provenance strings backing the decision.
	Evidence []string
}

// String renders the decision as one audit line.
func (d Decision) String() string {
	s := fmt.Sprintf("%s %s (%s)", d.Outcome, d.Subject, d.Rule)
	if len(d.PLAs) > 0 {
		s += " pla=[" + strings.Join(d.PLAs, ",") + "]"
	}
	if d.Detail != "" {
		s += ": " + d.Detail
	}
	return s
}

// Summary aggregates decisions by outcome for reporting.
type Summary struct {
	Permitted  int
	Masked     int
	RowsOut    int
	GroupsOut  int
	Blocked    int
	TotalCells int
}

// Summarize counts decisions by outcome.
func Summarize(decisions []Decision) Summary {
	var s Summary
	for _, d := range decisions {
		switch d.Outcome {
		case Permit:
			s.Permitted++
		case Mask:
			s.Masked++
		case SuppressRow:
			s.RowsOut++
		case SuppressGroup:
			s.GroupsOut++
		case Block:
			s.Blocked++
		}
	}
	return s
}
