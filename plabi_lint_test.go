package plabi

import (
	"bytes"
	"strings"
	"testing"

	"plabi/internal/lint"
)

func TestLintFilesSample(t *testing.T) {
	fs, err := LintFiles("docs/sample.pla")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		var b bytes.Buffer
		_ = WriteLintText(&b, fs)
		t.Errorf("docs/sample.pla has findings:\n%s", b.String())
	}
}

func TestLintFilesErrors(t *testing.T) {
	if _, err := LintFiles("docs/no-such-file.pla"); err == nil {
		t.Error("missing file should error")
	}
}

func TestLintHealthcareEngine(t *testing.T) {
	e, err := OpenHealthcare(HealthcareConfig{Seed: 1, Prescriptions: 200})
	if err != nil {
		t.Fatal(err)
	}
	fs := Lint(e)
	if max, ok := MaxLintSeverity(fs); ok && max >= LintError {
		t.Errorf("scenario lints with errors: %v", fs)
	}
	var b bytes.Buffer
	if err := WriteLintJSON(&b, fs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "PL004") {
		t.Errorf("expected the PL004 always-blocked warning in %s", b.String())
	}
	if got := len(lint.Analyzers()); got != 7 {
		t.Errorf("analyzers = %d, want 7", got)
	}
}
