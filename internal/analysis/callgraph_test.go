package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// loadTestPkg writes src as a one-file package and loads it the way the
// fixture harness does.
func loadTestPkg(t *testing.T, pkgPath, src string) *Module {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	mod, err := LoadDir(dir, pkgPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range mod.Pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("test package does not type-check: %v", terr)
		}
	}
	return mod
}

// nodeByName indexes the graph by function name; the test sources keep
// names unique so methods need no receiver qualification.
func nodeByName(t *testing.T, cg *CallGraph) map[string]*FuncNode {
	t.Helper()
	out := map[string]*FuncNode{}
	for _, n := range cg.Funcs {
		if _, dup := out[n.Obj.Name()]; dup {
			t.Fatalf("test source has duplicate function name %s", n.Obj.Name())
		}
		out[n.Obj.Name()] = n
	}
	return out
}

func TestCallGraphSCCOrder(t *testing.T) {
	mod := loadTestPkg(t, "fixture/scc", `package fixture

func Leaf() int { return 1 }

func Mid() int { return Leaf() }

func Top() int { return Mid() }

func Ping(n int) int {
	if n <= 0 {
		return 0
	}
	return Pong(n - 1)
}

func Pong(n int) int { return Ping(n - 1) }
`)
	cg := mod.Interproc().Graph
	nodes := nodeByName(t, cg)

	sccOf := map[*FuncNode]int{}
	for i, scc := range cg.SCCs {
		for _, n := range scc {
			sccOf[n] = i
		}
	}

	// Bottom-up: every callee's component precedes its caller's.
	if !(sccOf[nodes["Leaf"]] < sccOf[nodes["Mid"]] && sccOf[nodes["Mid"]] < sccOf[nodes["Top"]]) {
		t.Errorf("SCCs not callees-first: Leaf=%d Mid=%d Top=%d",
			sccOf[nodes["Leaf"]], sccOf[nodes["Mid"]], sccOf[nodes["Top"]])
	}
	// Mutual recursion collapses into one component.
	if sccOf[nodes["Ping"]] != sccOf[nodes["Pong"]] {
		t.Errorf("Ping (scc %d) and Pong (scc %d) should share a component",
			sccOf[nodes["Ping"]], sccOf[nodes["Pong"]])
	}
	if got := len(cg.SCCs[sccOf[nodes["Ping"]]]); got != 2 {
		t.Errorf("recursive component size = %d, want 2", got)
	}
	// Direct edge sanity: Top calls Mid, Mid calls Leaf.
	if got := nodes["Top"].Callees; len(got) != 1 || got[0] != nodes["Mid"] {
		t.Errorf("Top callees = %v", got)
	}
}

func TestSummaryFixpoint(t *testing.T) {
	mod := loadTestPkg(t, "fixture/summary", `package fixture

import "context"

type Grid struct{}

func GetGrid(h, w int) *Grid { return &Grid{} }

func PutGrid(g *Grid) {}

func recv(ch chan int) int { return <-ch }

func viaRecv(ch chan int) int { return recv(ch) }

func checks(ctx context.Context) error { return ctx.Err() }

func forwards(ctx context.Context) error { return checks(ctx) }

func pump(ch chan int) {
	for {
		recv(ch)
	}
}

func even(ch chan int, n int) int {
	if n == 0 {
		return recv(ch)
	}
	return odd(ch, n-1)
}

func odd(ch chan int, n int) int { return even(ch, n-1) }

func provide(n int) *Grid {
	g := GetGrid(n, n)
	return g
}

func relay(n int) *Grid { return provide(n) }

func releases(g *Grid) { PutGrid(g) }

func releasesVia(x int, g *Grid) { releases(g) }

var sink *Grid

func escapes(g *Grid) { sink = g }

type store struct {
	grids []*Grid
}

func (s *store) Release() {
	for _, g := range s.grids {
		PutGrid(g)
	}
}

func (s *store) putAll() {
	for _, g := range s.grids {
		PutGrid(g)
	}
}

func (s *store) Reset() { s.putAll() }
`)
	ip := mod.Interproc()
	nodes := nodeByName(t, ip.Graph)
	sum := func(name string) *FuncSummary {
		s := ip.SummaryOf(nodes[name].Obj)
		if s == nil {
			t.Fatalf("no summary for %s", name)
		}
		return s
	}

	if !sum("recv").Blocks {
		t.Error("recv should block (channel receive)")
	}
	if !sum("viaRecv").Blocks {
		t.Error("viaRecv should block through its callee")
	}
	if !sum("checks").ChecksCtx {
		t.Error("checks should check ctx")
	}
	if !sum("forwards").ChecksCtx {
		t.Error("forwards should check ctx through its callee")
	}
	if s := sum("pump"); !s.Blocks || !s.BlockingLoop {
		t.Errorf("pump summary = %+v, want blocking loop", s)
	}
	// Mutual recursion: the blocking base case must reach both members
	// of the component through the fixpoint.
	if !sum("even").Blocks || !sum("odd").Blocks {
		t.Errorf("even/odd recursion: Blocks = %v/%v, want true/true",
			sum("even").Blocks, sum("odd").Blocks)
	}
	if got := sum("provide").PooledResults; !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("provide.PooledResults = %v, want [0]", got)
	}
	if got := sum("relay").PooledResults; !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("relay.PooledResults = %v, want [0] (return provide(n))", got)
	}
	if got := sum("releases").ReleasesParams; !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("releases.ReleasesParams = %v, want [0]", got)
	}
	if got := sum("releasesVia").ReleasesParams; !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("releasesVia.ReleasesParams = %v, want [1] (forwarded)", got)
	}
	if got := sum("escapes").EscapesParams; !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("escapes.EscapesParams = %v, want [0] (stored to global)", got)
	}
	if !sum("Release").ReleasesRecvHeld {
		t.Error("store.Release should have ReleasesRecvHeld")
	}
	if !sum("Reset").ReleasesRecvHeld {
		t.Error("store.Reset should have ReleasesRecvHeld (same-receiver call)")
	}
	if pkg := mod.Pkgs[0]; !ip.TypeReleasesHeld(pkg.Types.Scope().Lookup("store").Type()) {
		t.Error("TypeReleasesHeld(store) = false, want true")
	}
}

// TestPoolcheckAcrossPackages pins the summary-powered poolcheck
// finding across a package boundary: b's Waste discards the pooled
// result of a.Acquire, which only a's summary reveals, next to a's own
// intraprocedural leak in Drop. Careful releases what it acquires and
// stays silent.
func TestPoolcheckAcrossPackages(t *testing.T) {
	dir := t.TempDir()
	writeModule(t, dir, map[string]string{
		"go.mod": "module poolmod\n\ngo 1.22\n",
		"a/a.go": `package a

type Grid struct{ n int }

func GetGrid(h, w int) *Grid { return &Grid{n: h * w} }

func PutGrid(g *Grid) {}

func Acquire(n int) *Grid {
	g := GetGrid(n, n)
	return g
}

func Drop(n int) {
	GetGrid(n, n)
}
`,
		"b/b.go": `package b

import "poolmod/a"

func Waste(n int) {
	a.Acquire(n)
}

func Careful(n int) {
	g := a.Acquire(n)
	a.PutGrid(g)
}
`,
	})
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range Run(mod, []*Analyzer{PoolCheck}) {
		rel, err := filepath.Rel(dir, d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s:%d", filepath.ToSlash(rel), d.Pos.Line))
	}
	if want := []string{"a/a.go:15", "b/b.go:6"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("poolcheck diagnostics at %v, want %v", got, want)
	}
}
