package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package of the module under
// analysis. Test files (*_test.go) are excluded: the gate guards
// production code, and external test packages would complicate the
// single-pass type-check for no analytical gain.
type Package struct {
	// Path is the import path ("cardopc/internal/litho").
	Path string
	// Dir is the absolute directory holding the sources.
	Dir string
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds expression types and identifier resolutions.
	Info *types.Info
	// TypeErrors collects type-check problems (the check continues past
	// them; analyzers must tolerate nil types).
	TypeErrors []error
}

// Name returns the package's declared name ("litho", "main", ...).
func (p *Package) Name() string { return p.Types.Name() }

// Module is a loaded module: every non-test package, type-checked in
// dependency order against a shared FileSet.
type Module struct {
	Fset *token.FileSet
	// Path is the module path from go.mod.
	Path string
	// Root is the absolute module root directory.
	Root string
	// Pkgs lists the module's packages in dependency (topological)
	// order.
	Pkgs []*Package

	// interproc memoizes the call graph + function summaries; built
	// lazily by Interproc on first use (single-goroutine driver).
	interproc *Interproc
}

// LoadModule parses and type-checks every non-test package under the
// module rooted at root, in dependency order. Standard-library imports
// are resolved by the stdlib source importer (type-checked from
// $GOROOT/src), so the loader needs no compiled export data and no
// external tooling.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	mod := &Module{Fset: token.NewFileSet(), Path: modPath, Root: root}
	parsed := map[string]*Package{} // import path -> package
	var order []string
	for _, dir := range dirs {
		pkg, err := parseDir(mod.Fset, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue
		}
		rel, _ := filepath.Rel(root, dir)
		pkg.Path = modPath
		if rel != "." {
			pkg.Path = modPath + "/" + filepath.ToSlash(rel)
		}
		parsed[pkg.Path] = pkg
		order = append(order, pkg.Path)
	}
	sort.Strings(order)

	// Topologically sort by intra-module imports so dependencies are
	// type-checked before dependents.
	var topo []string
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case 1:
			return fmt.Errorf("analysis: import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		for _, imp := range importsOf(parsed[path]) {
			if _, ok := parsed[imp]; ok {
				if err := visit(imp); err != nil {
					return err
				}
			}
		}
		state[path] = 2
		topo = append(topo, path)
		return nil
	}
	for _, path := range order {
		if err := visit(path); err != nil {
			return nil, err
		}
	}

	imp := newModuleImporter(mod.Fset, parsed)
	for _, path := range topo {
		pkg := parsed[path]
		if err := typeCheck(mod.Fset, pkg, imp); err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", path, err)
		}
		mod.Pkgs = append(mod.Pkgs, pkg)
	}
	return mod, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// packageDirs walks root collecting directories that hold non-test Go
// sources, skipping VCS metadata, testdata trees and hidden dirs.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if isSourceFile(e) {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

func isSourceFile(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// parseDir parses every non-test .go file in dir that survives build
// constraints into one Package (nil when the directory holds no
// sources). Tag-excluded files (//go:build cardopc_pooldebug and
// friends) are skipped exactly as `go build` would skip them, so
// build-variant file pairs do not redeclare symbols at type-check.
func parseDir(fset *token.FileSet, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: dir}
	for _, e := range ents {
		if !isSourceFile(e) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if !buildTagIncluded(src) {
			continue
		}
		file, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, file)
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

func importsOf(pkg *Package) []string {
	var out []string
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			out = append(out, strings.Trim(imp.Path.Value, `"`))
		}
	}
	sort.Strings(out)
	return out
}

// moduleImporter resolves module-internal import paths to the packages
// this loader has already type-checked and everything else through the
// stdlib source importer (shared across packages so the standard
// library is only type-checked once per load).
type moduleImporter struct {
	local map[string]*Package
	std   types.Importer
}

func newModuleImporter(fset *token.FileSet, local map[string]*Package) *moduleImporter {
	return &moduleImporter{
		local: local,
		std:   importer.ForCompiler(fset, "source", nil),
	}
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.local[path]; ok {
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: %s imported before it was checked", path)
		}
		return pkg.Types, nil
	}
	return m.std.Import(path)
}

// typeCheck runs go/types over pkg, tolerating (and recording) errors
// so one bad expression does not blind every analyzer.
func typeCheck(fset *token.FileSet, pkg *Package, imp types.Importer) error {
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	tpkg, err := conf.Check(pkg.Path, fset, pkg.Files, pkg.Info)
	if tpkg == nil {
		return err
	}
	pkg.Types = tpkg
	return nil
}
