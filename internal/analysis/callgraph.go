package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file builds the module-level call graph the interprocedural
// layer (summary.go) runs on. Nodes are the module's declared
// functions and methods; edges are the calls that can execute
// *synchronously* as part of a call to the caller — the property every
// summary bit (blocks, checks ctx, releases pooled params) is defined
// over.
//
// Callee resolution:
//
//   - Direct calls (`f(x)`, `pkg.F(x)`) and concrete method calls
//     (`v.M(x)`) resolve through go/types to exactly one callee.
//   - Interface method calls resolve by class-hierarchy analysis: every
//     concrete type declared in the calling package's intra-module
//     import closure whose method set satisfies the interface
//     contributes its method as a possible callee. Restricting CHA to
//     the import closure makes a package's summaries depend only on
//     the packages it imports, never on its importers.
//   - Func-value calls (locals, fields, parameters of function type)
//     and function literals passed as values have no node: they
//     contribute no edges and therefore no summary bits. This is the
//     conservative *non-reporting* direction — an unknown callee is
//     assumed to not block and not retain pooled arguments —
//     and is the documented soundness caveat of the layer.
//   - `go f(...)` and `go func(){...}()` contribute no edges either:
//     launching a goroutine does not block the caller, and the spawned
//     body runs on another activation. Intra-procedural rules
//     (poolcheck's goroutine-capture rule, bufalias) cover the spawned
//     side.
//
// SCCs are computed with Tarjan's algorithm and come out bottom-up
// (callees before callers), which is the evaluation order the summary
// fixpoint wants.

// FuncNode is one module function or method in the call graph.
type FuncNode struct {
	// Obj is the type-checker's object for the function.
	Obj *types.Func
	// Decl is the syntax; nil only for functions without a Go body.
	Decl *ast.FuncDecl
	// Pkg is the module package declaring the function.
	Pkg *Package
	// Callees lists the resolved synchronous callees in first-call-site
	// order, deduplicated.
	Callees []*FuncNode
}

// CallGraph is the module call graph plus its condensation order.
type CallGraph struct {
	// Nodes indexes every declared module function.
	Nodes map[*types.Func]*FuncNode
	// Funcs lists the nodes in deterministic declaration order
	// (package topological order, then file, then position).
	Funcs []*FuncNode
	// SCCs holds the strongly connected components bottom-up: every
	// callee SCC precedes its callers. Non-recursive functions form
	// singleton components.
	SCCs [][]*FuncNode

	// closure maps each module package to the import-path set of its
	// intra-module transitive imports (including itself); CHA only
	// considers implementations declared inside it.
	closure map[*Package]map[string]bool
	// concrete lists the module's concrete (non-interface) named types
	// in deterministic order, the CHA candidate pool.
	concrete []*types.Named
}

// BuildCallGraph constructs the call graph for every package of mod.
func BuildCallGraph(mod *Module) *CallGraph {
	cg := &CallGraph{
		Nodes:   map[*types.Func]*FuncNode{},
		closure: map[*Package]map[string]bool{},
	}

	byPath := map[string]*Package{}
	for _, pkg := range mod.Pkgs {
		byPath[pkg.Path] = pkg
	}
	for _, pkg := range mod.Pkgs {
		set := map[string]bool{pkg.Path: true}
		var grow func(p *Package)
		grow = func(p *Package) {
			for _, imp := range importsOf(p) {
				dep, ok := byPath[imp]
				if !ok || set[imp] {
					continue
				}
				set[imp] = true
				grow(dep)
			}
		}
		grow(pkg)
		cg.closure[pkg] = set
	}

	// Collect nodes and the CHA candidate pool. Scope names are sorted,
	// so both are deterministic.
	for _, pkg := range mod.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Obj: fn, Decl: fd, Pkg: pkg}
				cg.Nodes[fn] = node
				cg.Funcs = append(cg.Funcs, node)
			}
		}
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			cg.concrete = append(cg.concrete, named)
		}
	}

	for _, node := range cg.Funcs {
		cg.collectCallees(node)
	}
	cg.computeSCCs()
	return cg
}

// collectCallees resolves every synchronous call site in node's body.
func (cg *CallGraph) collectCallees(node *FuncNode) {
	if node.Decl == nil || node.Decl.Body == nil {
		return
	}
	seen := map[*FuncNode]bool{}
	goCalls := map[*ast.CallExpr]bool{}
	syncInspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			goCalls[n.Call] = true
		case *ast.CallExpr:
			if goCalls[n] {
				return true // argument evaluation is synchronous; the call is not
			}
			for _, fn := range cg.ResolveCallees(node.Pkg, n) {
				callee, ok := cg.Nodes[fn]
				if !ok || seen[callee] {
					continue
				}
				seen[callee] = true
				node.Callees = append(node.Callees, callee)
			}
		}
		return true
	})
}

// ResolveCallees resolves a call expression in pkg to the module
// functions it can dispatch to: one callee for direct and concrete
// method calls, the CHA implementer set for interface method calls,
// nothing for func values (the documented unknown-callee caveat).
func (cg *CallGraph) ResolveCallees(pkg *Package, call *ast.CallExpr) []*types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return []*types.Func{fn}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			recv := sel.Recv()
			if types.IsInterface(recv) {
				return cg.implementers(pkg, recv, fn.Name())
			}
			return []*types.Func{fn}
		}
		// Package-qualified call: pkg.F(x).
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return []*types.Func{fn}
		}
	}
	return nil
}

// implementers returns the declared methods named name of every
// concrete module type in pkg's import closure that satisfies the
// interface type recv.
func (cg *CallGraph) implementers(pkg *Package, recv types.Type, name string) []*types.Func {
	if _, isTP := recv.(*types.TypeParam); isTP {
		return nil // generic receiver: instantiations are unknown here
	}
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	allowed := cg.closure[pkg]
	var out []*types.Func
	for _, named := range cg.concrete {
		if tp := named.Obj().Pkg(); tp == nil || allowed == nil || !allowed[tp.Path()] {
			continue
		}
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), name)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if _, declared := cg.Nodes[fn]; declared {
			out = append(out, fn)
		}
	}
	return out
}

// computeSCCs runs Tarjan's algorithm over Funcs. Components are
// emitted callees-first, exactly the bottom-up order the summary
// fixpoint evaluates in.
func (cg *CallGraph) computeSCCs() {
	index := map[*FuncNode]int{}
	low := map[*FuncNode]int{}
	onStack := map[*FuncNode]bool{}
	var stack []*FuncNode
	next := 0

	var strong func(v *FuncNode)
	strong = func(v *FuncNode) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range v.Callees {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*FuncNode
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			cg.SCCs = append(cg.SCCs, scc)
		}
	}
	for _, v := range cg.Funcs {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
}

// syncFuncLits returns the function literals under root whose bodies
// run on the enclosing function's own activation: immediately invoked
// (`func(){...}()`) or deferred. go-launched literals are excluded even
// though they are syntactically invoked.
func syncFuncLits(root ast.Node) map[*ast.FuncLit]bool {
	lits := map[*ast.FuncLit]bool{}
	skip := map[*ast.FuncLit]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				skip[lit] = true
			}
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				lits[lit] = true
			}
		}
		return true
	})
	for lit := range skip {
		delete(lits, lit)
	}
	return lits
}

// syncInspect walks the nodes of body that execute on the calling
// goroutine: function literal bodies are entered only when the literal
// is immediately invoked or deferred. Literals passed as values are
// skipped too — whether and where a callback runs is the callee's
// business (and the unknown-callee caveat already applies to it).
func syncInspect(body ast.Node, visit func(ast.Node) bool) {
	lits := syncFuncLits(body)
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && !lits[lit] {
			return false
		}
		if n == nil {
			return true
		}
		return visit(n)
	})
}
