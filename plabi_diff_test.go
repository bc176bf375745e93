package plabi_test

import (
	"bytes"
	"strings"
	"testing"

	"plabi"
	"plabi/internal/diff"
)

// betaMask restricts the drug-consumption report: the drug column, the
// report's own group-by key, gets masked.
const betaMask = `pla "beta-mask" {
    owner "hospital"; level report; scope "drug-consumption";
    deny attribute drug;
}`

func openDiffEngine(t *testing.T) *plabi.Engine {
	t.Helper()
	e, err := plabi.OpenHealthcare(plabi.HealthcareConfig{Seed: 1, Prescriptions: 60})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestDiffIdentity: two equally built deployments diff silent.
func TestDiffIdentity(t *testing.T) {
	e1, e2 := openDiffEngine(t), openDiffEngine(t)
	imps, err := plabi.Diff(e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) != 0 {
		var b bytes.Buffer
		_ = plabi.WriteImpactsText(&b, imps)
		t.Fatalf("identity diff produced %d impacts:\n%s", len(imps), b.String())
	}
}

// TestDiffMaskAsymmetry: adding a report-level deny is a regression
// (warnings, never an expansion); removing it again is an expansion the
// reload gate must refuse.
func TestDiffMaskAsymmetry(t *testing.T) {
	base, masked := openDiffEngine(t), openDiffEngine(t)
	if err := masked.AddPLAs(betaMask); err != nil {
		t.Fatal(err)
	}

	restrict, err := plabi.Diff(base, masked)
	if err != nil {
		t.Fatal(err)
	}
	if len(restrict) == 0 {
		t.Fatal("masking a released column produced no impacts")
	}
	if exp := plabi.Expansions(restrict); len(exp) != 0 {
		var b bytes.Buffer
		_ = plabi.WriteImpactsText(&b, exp)
		t.Fatalf("restriction must not count as expansion:\n%s", b.String())
	}
	sawDeny := false
	for _, im := range restrict {
		if im.Code == plabi.DiffNewDeny {
			sawDeny = true
		}
	}
	if !sawDeny {
		t.Errorf("no %s impact among %d restriction findings", plabi.DiffNewDeny, len(restrict))
	}

	widen, err := plabi.Diff(masked, base)
	if err != nil {
		t.Fatal(err)
	}
	exp := plabi.Expansions(widen)
	if len(exp) == 0 {
		t.Fatal("dropping the mask produced no expansion impacts")
	}
	var b bytes.Buffer
	_ = plabi.WriteImpactsText(&b, exp)
	out := b.String()
	for _, want := range []string{plabi.DiffNewAllow, plabi.DiffColumnPlan, "drug-consumption"} {
		if !strings.Contains(out, want) {
			t.Errorf("expansion output missing %q:\n%s", want, out)
		}
	}
	if got := diff.MaxSeverity(widen); got != plabi.LintError {
		t.Errorf("max severity of a widening diff = %v, want %v", got, plabi.LintError)
	}
	if kept := plabi.FilterImpacts(widen, plabi.LintError); len(kept) != len(exp) {
		t.Errorf("FilterImpacts(error) kept %d, Expansions found %d", len(kept), len(exp))
	}
}

// TestDiffFilesBare: the file-path entry point behind `pladiff` is
// silent on two bare scenario contexts.
func TestDiffFilesBare(t *testing.T) {
	dimps, err := plabi.DiffFiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(dimps) != 0 {
		t.Fatalf("DiffFiles of two bare contexts produced %d impacts", len(dimps))
	}
}
