package analysis

import "testing"

// TestSelfCheck is the standing correctness gate: it runs the full
// analyzer suite over this module and fails on any diagnostic that is
// not covered by an inline //cardopc:allow directive. Because it runs
// under plain `go test ./...`, every future change inherits the gate.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("self-check loads and type-checks the whole module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}

	// The loader must see the same program the compiler does; type
	// errors here mean analyzers are running half-blind.
	for _, pkg := range mod.Pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error during analysis load: %v", pkg.Path, terr)
		}
	}

	for _, d := range Run(mod, All()) {
		t.Errorf("%v", d)
	}
}
