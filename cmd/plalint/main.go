// Command plalint statically analyzes PLA deployments: dead and
// shadowed rules, cross-agreement conflicts, schema drift, reports no
// consumer can ever see, threshold contradictions across levels, ETL
// plans that leak, and conditions the runtime cannot evaluate.
//
// With -query it also checks an ad-hoc report query statically against
// the agreements (a blocked query is an error-severity PL004 finding);
// -dump prints the parsed agreements as JSON instead of linting.
//
// Usage:
//
//	plalint [flags] file.pla [file2.pla ...]
//	plalint -healthcare            # lint the built-in Fig. 1 deployment
//	plalint -query "SELECT ..." -role analyst -tables prescriptions:patient:drug file.pla
//	plalint -dump file.pla
//
// Exit codes: 0 no findings at or above -severity, 1 findings reported,
// 2 unreadable input, parse failure or bad configuration.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"plabi"
	"plabi/internal/lint"
	"plabi/internal/policy"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/sql"
)

func main() {
	asJSON := flag.Bool("json", false, "emit findings as a JSON array")
	sevName := flag.String("severity", "warning", "minimum severity to report and gate on (info|warning|error)")
	applyFix := flag.Bool("fix", false, "apply machine-applicable suggested fixes to the input files (rewrites them in canonical form)")
	healthcare := flag.Bool("healthcare", false, "lint the built-in healthcare scenario deployment (catalog, reports, ETL plan and meta-reports included)")
	query := flag.String("query", "", "also check this report query statically against the PLAs (a blocked query is an error finding)")
	role := flag.String("role", "analyst", "consumer role for -query")
	purpose := flag.String("purpose", "", "consumer purpose for -query")
	tables := flag.String("tables", "", "comma-separated table:col1:col2 schemas -query runs over")
	dump := flag.Bool("dump", false, "print the parsed PLAs as JSON (for external auditing tools) instead of linting")
	flag.Parse()

	minSev, err := lint.ParseSeverity(*sevName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "plalint:", err)
		os.Exit(2)
	}
	if flag.NArg() == 0 && !*healthcare {
		fmt.Fprintln(os.Stderr, "plalint: no PLA files given (and -healthcare not set)")
		flag.Usage()
		os.Exit(2)
	}

	var findings []plabi.LintFinding
	if flag.NArg() > 0 {
		fs, err := plabi.LintFiles(flag.Args()...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "plalint:", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	if *dump || *query != "" {
		fs, err := checkFiles(flag.Args(), *dump, *query, *role, *purpose, *tables)
		if err != nil {
			fmt.Fprintln(os.Stderr, "plalint:", err)
			os.Exit(2)
		}
		if *dump {
			return
		}
		findings = append(findings, fs...)
	}
	if *healthcare {
		// A small workload suffices: lint inspects agreements, schemas and
		// plans, never row counts.
		e, err := plabi.OpenHealthcare(plabi.HealthcareConfig{Seed: 1, Prescriptions: 200})
		if err != nil {
			fmt.Fprintln(os.Stderr, "plalint:", err)
			os.Exit(2)
		}
		findings = append(findings, plabi.Lint(e)...)
	}
	lint.Sort(findings)

	if *applyFix && flag.NArg() > 0 {
		if err := fixFiles(flag.Args(), lint.Fixes(findings)); err != nil {
			fmt.Fprintln(os.Stderr, "plalint:", err)
			os.Exit(2)
		}
	}

	shown := lint.Filter(findings, minSev)
	if *asJSON {
		err = plabi.WriteLintJSON(os.Stdout, shown)
	} else {
		err = plabi.WriteLintText(os.Stdout, shown)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "plalint:", err)
		os.Exit(2)
	}
	if len(shown) > 0 {
		os.Exit(1)
	}
}

// checkFiles serves -dump and -query over the agreements in paths
// (LintFiles has already rejected unreadable files and duplicate ids):
// dump prints them as JSON; otherwise query is checked for the consumer
// against a catalog of the table:col1:col2 schemas in tables.
func checkFiles(paths []string, dump bool, query, role, purpose, tables string) ([]plabi.LintFinding, error) {
	var plas []*policy.PLA
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		parsed, err := policy.ParseFileNamed(path, string(src))
		if err != nil {
			return nil, err
		}
		plas = append(plas, parsed...)
	}
	if dump {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return nil, enc.Encode(plas)
	}
	cat := sql.NewCatalog()
	for _, spec := range strings.Split(tables, ",") {
		if spec == "" {
			continue
		}
		parts := strings.Split(spec, ":")
		cols := make([]relation.Column, 0, len(parts)-1)
		for _, c := range parts[1:] {
			cols = append(cols, relation.Col(c, relation.TString))
		}
		cat.Register(relation.NewBase(parts[0], &relation.Schema{Columns: cols}))
	}
	return lint.CheckQuery(&lint.Pass{PLAs: plas, Catalog: cat}, &report.Definition{ID: "cli-check", Query: query}, role, purpose)
}

// fixFiles rewrites each input file whose PLAs have applicable fixes.
// Files are re-parsed individually so fixes land in the file that
// declared the agreement; untouched files are left byte-identical.
func fixFiles(paths []string, fixes []lint.Fix) error {
	if len(fixes) == 0 {
		return nil
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		plas, err := policy.ParseFileNamed(path, string(src))
		if err != nil {
			return err
		}
		local := map[string]bool{}
		for _, p := range plas {
			local[p.ID] = true
		}
		var mine []lint.Fix
		for _, fx := range fixes {
			if local[fx.PLAID] {
				mine = append(mine, fx)
			}
		}
		applied := lint.ApplyFixes(plas, mine)
		if applied == 0 {
			continue
		}
		if err := os.WriteFile(path, []byte(lint.FormatPLAs(plas)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "plalint: %s: applied %d fix(es)\n", path, applied)
	}
	return nil
}
