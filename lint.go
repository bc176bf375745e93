package plabi

import (
	"fmt"
	"io"
	"os"

	"plabi/internal/lint"
	"plabi/internal/policy"
)

// Static analysis ("plalint"): the paper's pre-deployment compliance
// check (§5). Lint walks the whole engine state — agreements, catalog,
// reports, meta-report assignments and recorded ETL plans — and proves
// properties about the deployment reading no data row.
// Findings carry stable codes (PL001…), source positions and, where an
// edit provably cannot weaken enforcement, a machine-applicable fix.

// Re-exported lint vocabulary.
type (
	// LintFinding is one defect discovered by the static analyzer.
	LintFinding = lint.Finding
	// LintFix is a machine-applicable remediation attached to a finding.
	LintFix = lint.Fix
	// LintSeverity ranks findings (info < warning < error).
	LintSeverity = lint.Severity
	// LintAnalyzer is one registered static pass.
	LintAnalyzer = lint.Analyzer
)

// Lint severities.
const (
	LintInfo    = lint.SevInfo
	LintWarning = lint.SevWarning
	LintError   = lint.SevError
)

// Lint statically analyzes a deployment and returns the findings in
// deterministic order. Metrics are emitted to the engine's registry
// under lint.*.
func Lint(e *Engine) []LintFinding { return e.core.Lint() }

// Lint is the method form of the package-level Lint.
func (e *Engine) Lint() []LintFinding { return e.core.Lint() }

// LintFiles parses and lints standalone PLA DSL documents. Without an
// engine there is no catalog, report set or ETL plan, so only the
// agreement-level analyzers apply (dead rules, conflicts); the returned
// error covers unreadable files, parse failures and duplicate PLA ids.
func LintFiles(paths ...string) ([]LintFinding, error) {
	reg := policy.NewRegistry()
	var plas []*policy.PLA
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		parsed, err := policy.ParseFileNamed(path, string(src))
		if err != nil {
			return nil, err
		}
		for _, p := range parsed {
			if err := reg.Add(p); err != nil {
				return nil, fmt.Errorf("lint: %s: %w", path, err)
			}
			plas = append(plas, p)
		}
	}
	return lint.Run(&lint.Pass{PLAs: plas, Registry: reg}), nil
}

// MaxLintSeverity returns the highest severity among the findings, and
// false when there are none.
func MaxLintSeverity(fs []LintFinding) (LintSeverity, bool) { return lint.MaxSeverity(fs) }

// WriteLintText renders findings one per line in the canonical text
// form.
func WriteLintText(w io.Writer, fs []LintFinding) error { return lint.WriteText(w, fs) }

// WriteLintJSON renders findings as a JSON array ([] when clean).
func WriteLintJSON(w io.Writer, fs []LintFinding) error { return lint.WriteJSON(w, fs) }
