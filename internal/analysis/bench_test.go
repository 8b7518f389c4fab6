package analysis

import (
	"path/filepath"
	"testing"
)

// BenchmarkVetInterproc measures the interprocedural layer in
// isolation: call-graph construction (type-resolved edges, interface
// dispatch over the import closure, Tarjan SCCs) plus the bottom-up
// summary fixpoint, over the fixture packages that lean on it. This is
// the fixed per-module price the summary-powered analyzers added on
// top of the per-package dataflow cost.
func BenchmarkVetInterproc(b *testing.B) {
	var mods []*Module
	for _, name := range []string{"poolcheck", "ctxflow", "nonblock"} {
		mod, err := LoadDir(filepath.Join("testdata", "src", name), name)
		if err != nil {
			b.Fatal(err)
		}
		mods = append(mods, mod)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, mod := range mods {
			ip := buildInterproc(mod)
			n += len(ip.Graph.Funcs)
		}
		if n == 0 {
			b.Fatal("fixture packages produced no call-graph nodes")
		}
	}
}

// BenchmarkVetDataflow measures the CFG-based passes (poolcheck,
// noalloc, obsguard) over their own fixture packages, loaded and
// type-checked once outside the loop: pure analysis cost — CFG
// construction plus dataflow fixpoint plus reporting — which is the
// marginal price the dataflow layer adds to every run.
func BenchmarkVetDataflow(b *testing.B) {
	dataflow := []*Analyzer{PoolCheck, NoAlloc, ObsGuard}
	var mods []*Module
	for _, name := range []string{"poolcheck", "noalloc", "obsguard"} {
		mod, err := LoadDir(filepath.Join("testdata", "src", name), name)
		if err != nil {
			b.Fatal(err)
		}
		mods = append(mods, mod)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, mod := range mods {
			n += len(Run(mod, dataflow))
		}
		if n == 0 {
			b.Fatal("fixture packages produced no diagnostics")
		}
	}
}
