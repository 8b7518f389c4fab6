package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// LoadDir parses and type-checks the single package in dir under the
// given import path, resolving all imports through the stdlib source
// importer. It serves the analyzer fixture tests, which live outside
// any module.
func LoadDir(dir, path string) (*Module, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkg, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("analysis: no Go sources in %s", dir)
	}
	pkg.Path = path
	if err := typeCheck(fset, pkg, newModuleImporter(fset, nil)); err != nil {
		return nil, err
	}
	return &Module{Fset: fset, Path: path, Root: dir, Pkgs: []*Package{pkg}}, nil
}

// fixtureCases maps each analyzer to its testdata directory. Every
// directory holds one known-bad and one known-good file; expected
// diagnostics are annotated in-line with `// want "substring"`.
var fixtureCases = []struct {
	analyzer *Analyzer
	dir      string
}{
	{FloatCmp, "floatcmp"},
	{NaNGuard, "nanguard"},
	{ErrCheckLite, "errchecklite"},
	{BufAlias, "bufalias"},
	{UnitCheck, "unitcheck"},
	{DetOrder, "detorder"},
	{PoolCheck, "poolcheck"},
	{NoAlloc, "noalloc"},
	{ObsGuard, "obsguard"},
	{CtxFlow, "ctxflow"},
	{NonBlock, "nonblock"},
}

// TestFixtureCasesMatchSuite ties the fixture table to the registry:
// fixtureCases lists exactly the analyzers of All(), in order, and every
// testdata/src directory belongs to one of them, so an analyzer cannot
// be registered without fixtures nor retired with its fixtures left
// behind.
func TestFixtureCasesMatchSuite(t *testing.T) {
	all := All()
	if len(fixtureCases) != len(all) {
		t.Fatalf("fixtureCases has %d rows, All() has %d analyzers", len(fixtureCases), len(all))
	}
	dirs := map[string]bool{}
	for i, tc := range fixtureCases {
		if tc.analyzer != all[i] {
			t.Errorf("fixtureCases[%d] is %s, All()[%d] is %s", i, tc.analyzer.Name, i, all[i].Name)
		}
		dirs[tc.dir] = true
	}
	ents, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !dirs[e.Name()] {
			t.Errorf("testdata/src/%s belongs to no registered analyzer", e.Name())
		}
	}
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

type wantAt struct {
	file string // base name
	line int
	sub  string
}

func TestAnalyzerFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.dir)
			mod, err := LoadDir(dir, "fixture/"+tc.dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, pkg := range mod.Pkgs {
				for _, terr := range pkg.TypeErrors {
					t.Errorf("fixture does not type-check: %v", terr)
				}
			}

			wants := collectWants(t, dir)
			diags := Run(mod, []*Analyzer{tc.analyzer})

			// Every diagnostic must land exactly on a want line with a
			// matching message, and every want must be hit.
			matched := make([]bool, len(wants))
			for _, d := range diags {
				base := filepath.Base(d.Pos.Filename)
				ok := false
				for i, w := range wants {
					if !matched[i] && w.file == base && w.line == d.Pos.Line && strings.Contains(d.Message, w.sub) {
						matched[i] = true
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("unexpected diagnostic: %v", d)
				}
			}
			for i, w := range wants {
				if !matched[i] {
					t.Errorf("missing diagnostic at %s:%d containing %q", w.file, w.line, w.sub)
				}
			}
			// Exact-position gate: the reported (file, line) multiset
			// must equal the annotated one.
			if got, want := positions(diags), wantPositions(wants); got != want {
				t.Errorf("diagnostic positions:\n got  %s\n want %s", got, want)
			}
		})
	}
}

func collectWants(t *testing.T, dir string) []wantAt {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []wantAt
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRe.FindStringSubmatch(line); m != nil {
				wants = append(wants, wantAt{file: e.Name(), line: i + 1, sub: m[1]})
			}
		}
	}
	return wants
}

func positions(diags []Diagnostic) string {
	var ps []string
	for _, d := range diags {
		ps = append(ps, fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line))
	}
	sort.Strings(ps)
	return strings.Join(ps, " ")
}

func wantPositions(wants []wantAt) string {
	var ps []string
	for _, w := range wants {
		ps = append(ps, fmt.Sprintf("%s:%d", w.file, w.line))
	}
	sort.Strings(ps)
	return strings.Join(ps, " ")
}

// writeModule lays out a throwaway module under dir: files maps
// slash-separated paths (go.mod included) to their contents.
func writeModule(t testing.TB, dir string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// writeFixtureModule lays out a tiny two-package module: package a trips
// floatcmp, package b imports a and trips detorder. Importing fmt makes
// the load go through the stdlib source importer, as a real module's
// does.
func writeFixtureModule(t testing.TB, dir string) {
	t.Helper()
	writeModule(t, dir, map[string]string{
		"go.mod": "module fixturemod\n\ngo 1.22\n",
		"a/a.go": `package a

import "fmt"

func Eq(x, y float64) bool { return x == y }

func Show(x float64) string { return fmt.Sprintf("%v", x) }
`,
		"b/b.go": `package b

import "fixturemod/a"

func Keys(m map[string]float64) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

func AnyZero(m map[string]float64) bool {
	for _, v := range m {
		if a.Eq(v, 0) {
			return true
		}
	}
	return false
}
`,
	})
}
