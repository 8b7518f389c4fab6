package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// fixture returns the path of a testdata fixture.
func fixture(name string) string {
	return filepath.Join("testdata", name)
}

// checkInputs runs `benchdiff check` on a captured change/base output
// pair.
func checkInputs(head, base string, extra ...string) int {
	return run(append([]string{"check", "-input", head, "-base-input", base}, extra...))
}

func TestCheckCleanRunExitsZero(t *testing.T) {
	if code := checkInputs(fixture("base_run.txt"), fixture("base_run.txt")); code != 0 {
		t.Fatalf("check exit = %d, want 0 for an unchanged run", code)
	}
}

// TestCheckDoubledTimeExitsNonZero is the acceptance-criterion test: a
// 2× ns/op slowdown must yield a non-zero exit and name the offending
// benchmark in the JSON report.
func TestCheckDoubledTimeExitsNonZero(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.json")
	if code := checkInputs(fixture("slow_run.txt"), fixture("base_run.txt"), "-json-out", report); code != 1 {
		t.Fatalf("check exit = %d, want 1 for a 2x regression", code)
	}

	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var cmp struct {
		Results []struct {
			Name  string `json:"name"`
			Class string `json:"class"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &cmp); err != nil {
		t.Fatalf("json report does not parse: %v", err)
	}
	classes := map[string]string{}
	for _, r := range cmp.Results {
		classes[r.Name] = r.Class
	}
	if classes["cardopc/internal/fft.BenchmarkForward1024"] != "regressed" {
		t.Errorf("report classes = %v, want Forward1024 regressed", classes)
	}
	if classes["cardopc/internal/rtree.BenchmarkSearch1000"] != "ok" {
		t.Errorf("report classes = %v, want Search1000 ok", classes)
	}
}

// TestCheckVanishedGates: a benchmark only the base ran fails the check;
// the same pair the other way round, a benchmark only the change ran, is
// new and passes.
func TestCheckVanishedGates(t *testing.T) {
	partial := filepath.Join(t.TempDir(), "partial.txt")
	content := `pkg: cardopc/internal/fft
BenchmarkForward1024-4    	      10	     23000 ns/op	       0 B/op	       0 allocs/op
`
	if err := os.WriteFile(partial, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := checkInputs(partial, fixture("base_run.txt")); code != 1 {
		t.Errorf("check with a vanished benchmark exit = %d, want 1", code)
	}
	if code := checkInputs(fixture("base_run.txt"), partial); code != 0 {
		t.Errorf("check with a new benchmark exit = %d, want 0", code)
	}
}

func TestUnknownSubcommandExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"frobnicate"},
		{"record"},
		{"check", "-base", "no-such-rev-benchdiff"},
		{"check", "-input", fixture("base_run.txt")},
		{"check", "-baseline", fixture("base_run.txt")},
	} {
		if code := run(args); code != 2 {
			t.Errorf("benchdiff %q exit = %d, want 2", args, code)
		}
	}
}

// TestWithTreeUnpacksCommittedBytes: the base tree holds what the
// revision committed, not the working tree's edits, and is gone once
// withTree returns.
func TestWithTreeUnpacksCommittedBytes(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	repo := t.TempDir()
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{
			"-c", "user.name=benchdiff", "-c", "user.email=benchdiff@example.com",
			"-c", "commit.gpgsign=false",
		}, args...)...)
		cmd.Dir = repo
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	write := func(name, content string) {
		t.Helper()
		path := filepath.Join(repo, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git("init", "-q")
	write("internal/x/x.go", "package x // committed\n")
	git("add", "-A")
	git("commit", "-q", "-m", "x")
	write("internal/x/x.go", "package x // dirty\n")
	write("untracked.go", "package main\n")

	var dir string
	err := withTree(repo, "HEAD", func(d string) error {
		dir = d
		got, err := os.ReadFile(filepath.Join(d, "internal/x/x.go"))
		if err != nil {
			return err
		}
		if string(got) != "package x // committed\n" {
			t.Errorf("base tree holds %q, want the committed bytes", got)
		}
		if _, err := os.Stat(filepath.Join(d, "untracked.go")); !os.IsNotExist(err) {
			t.Errorf("base tree holds an untracked file (stat err %v)", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("base tree %s still exists after withTree returned (stat err %v)", dir, err)
	}
}
