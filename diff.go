package plabi

import (
	"fmt"
	"io"
	"os"
	"strings"

	"plabi/internal/diff"
	"plabi/internal/policy"
)

// Semantic policy-change impact analysis ("pladiff"): compares two
// deployment states and reports, per (report, role, purpose) triple, how
// the change moves the privacy boundary — NEW-ALLOW expansions, NEW-DENY
// regressions, loosened thresholds, weakened row filters, widened column
// release plans. The comparison runs over the compiled residual render
// programs, not the raw rule text. Codes are stable (PD001…PD005); see
// docs/DIFF.md.

// Impact is one semantic policy-change finding.
type Impact = diff.Impact

// Impact codes.
const (
	DiffNewAllow   = diff.CodeNewAllow   // PD001 privilege expansion
	DiffNewDeny    = diff.CodeNewDeny    // PD002 new-deny regression
	DiffThreshold  = diff.CodeThreshold  // PD003 threshold change
	DiffRowFilter  = diff.CodeRowFilter  // PD004 row filter change
	DiffColumnPlan = diff.CodeColumnPlan // PD005 column plan widening
)

// Diff compares two engines' deployment states and returns the impact
// records in deterministic order.
func Diff(oldE, newE *Engine) ([]Impact, error) {
	return diff.Diff(oldE.core.DiffState(), newE.core.DiffState())
}

// DiffFiles compares two PLA bundles in the healthcare deployment
// context: each state is the standard scenario with the bundle's
// agreements layered on top (mirroring how plabid tenants compose a
// scenario with manifest extra PLAs). A tiny fixed workload keeps the
// comparison fast; impact analysis never reads data.
func DiffFiles(oldPath, newPath string) ([]Impact, error) {
	oldE, err := openDiffContext(oldPath)
	if err != nil {
		return nil, err
	}
	defer oldE.Close()
	newE, err := openDiffContext(newPath)
	if err != nil {
		return nil, err
	}
	defer newE.Close()
	return Diff(oldE, newE)
}

func openDiffContext(bundle string) (*Engine, error) {
	e, err := OpenHealthcare(HealthcareConfig{Seed: 1, Prescriptions: 60})
	if err != nil {
		return nil, err
	}
	if bundle != "" {
		src, err := os.ReadFile(bundle)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("diff: %w", err)
		}
		// A bundle with no agreements diffs against the bare scenario.
		if plas, perr := policy.ParseFileNamed(bundle, string(src)); perr != nil && len(plas) == 0 && strings.Contains(perr.Error(), "no PLA blocks") {
			return e, nil
		}
		if err := e.AddPLAs(string(src)); err != nil {
			e.Close()
			return nil, fmt.Errorf("diff: %s: %w", bundle, err)
		}
	}
	return e, nil
}

// ImpactFindings converts impacts to lint findings (canonical order) so
// they flow through the lint renderers and severity filters.
func ImpactFindings(imps []Impact) []LintFinding { return diff.Findings(imps) }

// FilterImpacts returns the impacts at or above the given severity.
func FilterImpacts(imps []Impact, min LintSeverity) []Impact { return diff.Filter(imps, min) }

// Expansions returns the error-severity impacts — the privilege
// expansions the plabid reload gate refuses.
func Expansions(imps []Impact) []Impact { return diff.Expansions(imps) }

// WriteImpactsText renders impacts one per line in the lint text form.
func WriteImpactsText(w io.Writer, imps []Impact) error { return diff.WriteText(w, imps) }

// WriteImpactsJSON renders impacts as a JSON array ([] when clean).
func WriteImpactsJSON(w io.Writer, imps []Impact) error { return diff.WriteJSON(w, imps) }
