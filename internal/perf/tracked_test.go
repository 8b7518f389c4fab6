package perf

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a throwaway module under dir: go.mod plus, per
// package name, one benchmark that fails unless its testdata file is
// found relative to the working directory.
func writeTree(t *testing.T, dir string, pkgs ...string) {
	t.Helper()
	files := map[string]string{"go.mod": "module m\n\ngo 1.22\n"}
	for _, p := range pkgs {
		files[p+"/testdata/x"] = "x"
		files[p+"/"+p+"_test.go"] = "package " + p + `

import (
	"os"
	"testing"
)

func Benchmark` + strings.ToUpper(p) + `(b *testing.B) {
	if _, err := os.Stat("testdata/x"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
	}
}
`
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunPair: both trees take Count samples of every package they hold,
// each from its package directory, the tree that runs first alternates,
// and a package missing from the base runs in head only.
func TestRunPair(t *testing.T) {
	head, base := t.TempDir(), t.TempDir()
	writeTree(t, head, "a", "b")
	writeTree(t, base, "a")
	set := []Tracked{
		{Pkg: "./a", Pattern: "^BenchmarkA$", Benchtime: "1x"},
		{Pkg: "./b", Pattern: "^BenchmarkB$", Benchtime: "1x"},
	}
	var log bytes.Buffer
	headOut, baseOut, err := RunPair(set, head, base, RunOptions{Count: 2, CPU: 1, Log: &log})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		side string
		out  []byte
		want map[string]int
	}{
		{"head", headOut, map[string]int{"m/a.BenchmarkA": 2, "m/b.BenchmarkB": 2}},
		{"base", baseOut, map[string]int{"m/a.BenchmarkA": 2}},
	} {
		res, err := Parse(bytes.NewReader(tc.out))
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		for name, samples := range res.Samples {
			got[name] = len(samples)
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s samples = %v, want %v", tc.side, got, tc.want)
		}
		for name, n := range tc.want {
			if got[name] != n {
				t.Errorf("%s samples = %v, want %v", tc.side, got, tc.want)
			}
		}
	}

	var order []string
	for _, line := range strings.Split(log.String(), "\n") {
		if strings.HasPrefix(line, "benchdiff: ") && strings.Contains(line, " ./a ") {
			order = append(order, strings.Fields(line)[1])
		}
	}
	if got := strings.Join(order, ","); got != "head,base,base,head" {
		t.Errorf("./a ran in tree order %s, want head,base,base,head", got)
	}
}
