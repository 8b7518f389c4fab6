// Package analysis is CardOPC's hand-written static-analysis framework:
// a package loader built on the stdlib go/ast, go/parser, go/token and
// go/types packages (no external dependencies), a small analyzer-driver
// API, and a suite of project-specific analyzers that machine-check the
// numeric, unit, pool and allocation invariants the OPC hot paths
// depend on.
//
// The framework exists because mask-optimization kernels fail quietly:
// a NaN from a negative Sqrt argument propagates through an EPE sum
// without crashing, and an aliased FFT scratch buffer corrupts aerial
// images only under parallel load. cardopc-vet turns those classes of
// bug into build-time diagnostics.
//
// Every run takes one path: LoadModule parses and type-checks the whole
// module and Run applies the analyzers. Analyzers report Diagnostics;
// intentional exceptions are recorded inline, next to the code
// (`//cardopc:allow <analyzer> reason`). selfcheck_test.go runs the full
// suite over the module on every `go test ./...`, so the gate cannot rot.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check. Run inspects the package held by the
// Pass and reports findings through it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, allow directives and -only
	// flags. Lower-case, no spaces.
	Name string
	// Doc is a one-line description shown by cardopc-vet -help.
	Doc string
	// Run executes the check over pass.Pkg.
	Run func(pass *Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	// Mod is the module the package was loaded as part of; the
	// interprocedural analyzers reach the call graph and function
	// summaries through Mod.Interproc().
	Mod *Module

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object denoted by id, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// All returns the full analyzer suite in deterministic order.
func All() []*Analyzer {
	return []*Analyzer{
		FloatCmp,
		NaNGuard,
		ErrCheckLite,
		BufAlias,
		UnitCheck,
		DetOrder,
		PoolCheck,
		NoAlloc,
		ObsGuard,
		CtxFlow,
		NonBlock,
	}
}

// ByName resolves a comma-free analyzer name against All.
func ByName(name string) (*Analyzer, bool) {
	for _, a := range All() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Run applies each analyzer to each package and returns the combined
// diagnostics sorted by position. Each package's inline
// `//cardopc:allow` directives are honoured here (a directive only
// suppresses diagnostics in its own file, so per-package filtering is
// exact).
func Run(mod *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range mod.Pkgs {
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Fset: mod.Fset, Pkg: pkg, Mod: mod, diags: &pkgDiags})
		}
		diags = append(diags, filterInlineAllows(mod, pkg, pkgDiags)...)
	}
	sortDiagnostics(diags)
	return diags
}

// sortDiagnostics orders diagnostics by (file, line, column, analyzer)
// so every reporting path is byte-stable across runs.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
