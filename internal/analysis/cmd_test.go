package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTempModule lays out a throwaway single-package module with one
// floatcmp violation, so the CLI smoke tests exercise the full
// load-analyze-report path without touching the real module.
func writeTempModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeModule(t, dir, map[string]string{
		"go.mod": "module smoketest\n\ngo 1.22\n",
		"lib.go": "package lib\n\nfunc cmp(a, b float64) bool {\n\treturn a*2 == b\n}\n",
	})
	return dir
}

func TestCLIReportsViolation(t *testing.T) {
	dir := writeTempModule(t)
	var out, errb strings.Builder
	code := CLIMain([]string{dir}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "[floatcmp]") || !strings.Contains(out.String(), "lib.go:4:") {
		t.Errorf("diagnostic output missing position or analyzer:\n%s", out.String())
	}
}

func TestCLIOnlySelectsAnalyzers(t *testing.T) {
	dir := writeTempModule(t)
	var out, errb strings.Builder
	if code := CLIMain([]string{"-only=errcheck-lite", dir}, &out, &errb); code != 0 {
		t.Errorf("errcheck-lite only should pass, exit = %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := CLIMain([]string{"-only=floatcmp", dir}, &out, &errb); code != 1 {
		t.Errorf("floatcmp only should fail, exit = %d", code)
	}
	if code := CLIMain([]string{"-only=nosuch", dir}, &out, &errb); code != 2 {
		t.Errorf("unknown analyzer should exit 2, got %d", code)
	}
}

func TestCLIJSONOutput(t *testing.T) {
	dir := writeTempModule(t)
	var out, errb strings.Builder
	if code := CLIMain([]string{"-json", dir}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var diags []Diagnostic
	if err := json.Unmarshal([]byte(out.String()), &diags); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(diags) != 1 || diags[0].Analyzer != "floatcmp" || diags[0].Pos.Line != 4 {
		t.Errorf("unexpected JSON diagnostics: %+v", diags)
	}
}

func TestCLIAllowlistSuppresses(t *testing.T) {
	dir := writeTempModule(t)
	lib := "package lib\n\nfunc cmp(a, b float64) bool {\n\treturn a*2 == b //cardopc:allow floatcmp smoke-test exception\n}\n"
	if err := os.WriteFile(filepath.Join(dir, "lib.go"), []byte(lib), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := CLIMain([]string{dir}, &out, &errb); code != 0 {
		t.Errorf("allowed run should pass, exit = %d:\n%s%s", code, out.String(), errb.String())
	}
}

func TestCLIListsAnalyzers(t *testing.T) {
	var out, errb strings.Builder
	if code := CLIMain([]string{"-analyzers"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, a := range All() {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("analyzer %s missing from listing", a.Name)
		}
	}
}
