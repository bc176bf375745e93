// Command pladiff runs semantic policy-change impact analysis between
// two deployment states: NEW-ALLOW privilege expansions, NEW-DENY
// regressions, loosened/tightened aggregation thresholds, weakened row
// filters and widened column release plans, computed per (report, role,
// purpose) triple over the compiled residual render programs (codes
// PD001…PD005; see docs/DIFF.md).
//
// Usage:
//
//	pladiff [flags] old.pla new.pla       # two bundles in the healthcare context
//	pladiff [flags] - new.pla             # "-" is the bare scenario (no bundle)
//	pladiff [flags] -manifest old.json new.json   # two plabid manifests, per tenant
//
// Exit codes: 0 no impacts at or above -severity, 1 impacts reported,
// 2 unreadable input, parse failure or bad configuration.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"plabi"
	"plabi/internal/lint"
	"plabi/internal/serve"
)

func main() {
	asJSON := flag.Bool("json", false, "emit impacts as JSON")
	sevName := flag.String("severity", "warning", "minimum severity to report and gate on (info|warning|error)")
	manifests := flag.Bool("manifest", false, "treat the two arguments as plabid manifests and diff each tenant's effective bundle")
	flag.Parse()

	minSev, err := lint.ParseSeverity(*sevName)
	if err != nil {
		fail(err)
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "pladiff: exactly two inputs required (old, new)")
		flag.Usage()
		os.Exit(2)
	}
	oldPath, newPath := flag.Arg(0), flag.Arg(1)

	if *manifests {
		diffManifests(oldPath, newPath, minSev, *asJSON)
		return
	}
	// "-" names the bare scenario, so a single bundle can be diffed
	// against its deployment context without a second file.
	if oldPath == "-" {
		oldPath = ""
	}
	if newPath == "-" {
		newPath = ""
	}

	imps, err := plabi.DiffFiles(oldPath, newPath)
	if err != nil {
		fail(err)
	}
	shown := plabi.FilterImpacts(imps, minSev)
	if *asJSON {
		err = plabi.WriteImpactsJSON(os.Stdout, shown)
	} else {
		err = plabi.WriteImpactsText(os.Stdout, shown)
	}
	if err != nil {
		fail(err)
	}
	if len(shown) > 0 {
		os.Exit(1)
	}
}

// diffManifests compares the effective per-tenant deployments of two
// plabid manifests: each tenant state is its scenario engine with the
// manifest's extra agreements layered on top. Tenants present in only
// one manifest are reported as wholesale additions or removals.
func diffManifests(oldPath, newPath string, minSev lint.Severity, asJSON bool) {
	oldM, err := readManifest(oldPath)
	if err != nil {
		fail(err)
	}
	newM, err := readManifest(newPath)
	if err != nil {
		fail(err)
	}
	oldT := tenantMap(oldM)
	newT := tenantMap(newM)
	names := map[string]bool{}
	for n := range oldT {
		names[n] = true
	}
	for n := range newT {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	perTenant := map[string][]plabi.LintFinding{}
	total := 0
	for _, name := range sorted {
		oc, oldOK := oldT[name]
		nc, newOK := newT[name]
		switch {
		case !oldOK:
			fmt.Fprintf(os.Stderr, "pladiff: tenant %q is new (no old state to compare)\n", name)
			continue
		case !newOK:
			fmt.Fprintf(os.Stderr, "pladiff: tenant %q removed\n", name)
			continue
		}
		oldE, err := buildTenant(oc)
		if err != nil {
			fail(fmt.Errorf("tenant %s (old): %w", name, err))
		}
		newE, err := buildTenant(nc)
		if err != nil {
			oldE.Close()
			fail(fmt.Errorf("tenant %s (new): %w", name, err))
		}
		imps, err := plabi.Diff(oldE, newE)
		oldE.Close()
		newE.Close()
		if err != nil {
			fail(fmt.Errorf("tenant %s: %w", name, err))
		}
		shown := plabi.FilterImpacts(imps, minSev)
		perTenant[name] = plabi.ImpactFindings(shown)
		total += len(shown)
		if !asJSON && len(shown) > 0 {
			fmt.Printf("# tenant %s\n", name)
			if err := plabi.WriteImpactsText(os.Stdout, shown); err != nil {
				fail(err)
			}
		}
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(perTenant); err != nil {
			fail(err)
		}
	}
	if total > 0 {
		os.Exit(1)
	}
}

func readManifest(path string) (*serve.Manifest, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return serve.ParseManifest(src)
}

func tenantMap(m *serve.Manifest) map[string]serve.TenantConfig {
	out := map[string]serve.TenantConfig{}
	for _, tc := range m.Tenants {
		out[tc.Name] = tc
	}
	return out
}

func buildTenant(tc serve.TenantConfig) (*plabi.Engine, error) {
	e, err := plabi.OpenHealthcare(plabi.HealthcareConfig{Seed: tc.Seed, Prescriptions: tc.Prescriptions})
	if err != nil {
		return nil, err
	}
	if tc.ExtraPLAs != "" {
		if err := e.AddPLAs(tc.ExtraPLAs); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pladiff:", err)
	os.Exit(2)
}
