package analysis

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestBuildTagIncluded(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"unconstrained", "package x\n", true},
		{"custom tag excluded", "//go:build cardopc_pooldebug\n\npackage x\n", false},
		{"negated custom tag included", "//go:build !cardopc_pooldebug\n\npackage x\n", true},
		{"host goos", "//go:build " + runtime.GOOS + "\n\npackage x\n", true},
		{"foreign goos", "//go:build plan9\n\npackage x\n", runtime.GOOS == "plan9"},
		{"host goos and custom tag", "//go:build " + runtime.GOOS + " && cardopc_pooldebug\n\npackage x\n", false},
		{"host goos or custom tag", "//go:build " + runtime.GOOS + " || cardopc_pooldebug\n\npackage x\n", true},
		{"go version tag", "//go:build go1.21\n\npackage x\n", true},
		{"legacy plus build", "// +build cardopc_pooldebug\n\npackage x\n", false},
		{"doc comment then constraint", "// Package x does things.\n//go:build cardopc_pooldebug\n\npackage x\n", false},
		{"block comment header", "/*\nlicense text\n*/\n//go:build cardopc_pooldebug\n\npackage x\n", false},
		{"constraint after package clause ignored", "package x\n\n//go:build cardopc_pooldebug\n", true},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.name, " ", "_"), func(t *testing.T) {
			if got := buildTagIncluded([]byte(tc.src)); got != tc.want {
				t.Errorf("buildTagIncluded(%q) = %v, want %v", tc.src, got, tc.want)
			}
		})
	}
}

// writeBuildVariantPair adds a tag-gated file pair to the fixture
// module's package a. Both files declare debugMode — loading both would
// be a redeclaration type error — and the gated-on file carries a
// floatcmp violation that must stay invisible to the default build.
func writeBuildVariantPair(t testing.TB, dir string) {
	t.Helper()
	on := `//go:build cardopc_pooldebug

package a

const debugMode = true

func debugEq(x, y float64) bool { return x == y }
`
	off := `//go:build !cardopc_pooldebug

package a

const debugMode = false
`
	writeModule(t, dir, map[string]string{"a/dbg_on.go": on, "a/dbg_off.go": off})
}

// TestLoadModuleSkipsTagExcludedFiles pins the loader side of the
// contract: a //go:build-gated variant pair type-checks cleanly (no
// redeclaration) because only the default-build file is loaded, and no
// analyzer ever reports into the excluded file.
func TestLoadModuleSkipsTagExcludedFiles(t *testing.T) {
	dir := t.TempDir()
	writeFixtureModule(t, dir)
	writeBuildVariantPair(t, dir)

	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	var aPkg *Package
	for _, p := range mod.Pkgs {
		if p.Path == "fixturemod/a" {
			aPkg = p
		}
	}
	if aPkg == nil {
		t.Fatal("package fixturemod/a not loaded")
	}
	if len(aPkg.TypeErrors) != 0 {
		t.Fatalf("type errors loading variant pair: %v", aPkg.TypeErrors)
	}
	var names []string
	for _, f := range aPkg.Files {
		names = append(names, filepath.Base(mod.Fset.Position(f.Package).Filename))
	}
	if len(names) != 2 {
		t.Fatalf("loaded files %v, want a.go and dbg_off.go only", names)
	}
	for _, n := range names {
		if n == "dbg_on.go" {
			t.Fatalf("tag-excluded dbg_on.go was loaded: %v", names)
		}
	}
	for _, d := range Run(mod, All()) {
		if filepath.Base(d.Pos.Filename) == "dbg_on.go" {
			t.Errorf("diagnostic in tag-excluded file: %v", d)
		}
	}
}
