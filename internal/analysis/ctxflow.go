package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces the cancellation discipline the cardopcd daemon
// depends on: long-running work must be interruptible through a
// context.Context threaded from the request handler down to the
// iteration loops (server → bigopc → core → litho). It is built on the
// interprocedural layer (callgraph.go, summary.go): whether a function
// "blocks" or a callee "consults its context" is read off the
// bottom-up function summaries, so the rules see through call chains.
//
// Four rules, calibrated to report only actionable findings:
//
//  1. A context parameter that is never referenced: the signature
//     promises cancellation the body silently ignores.
//  2. In a function with a context parameter, a loop that blocks per
//     iteration (directly or via a callee summary) but never consults
//     any context in its body — no Err/Done/Deadline call, no context
//     handed to a consulting callee. Such loops run to completion no
//     matter what the caller cancels.
//  3. context.Background()/TODO() in a library (non-main) package
//     inside a function that has no context parameter — the function
//     invents a root context instead of accepting one. Blessed when
//     the result feeds straight into context.WithTimeout/WithCancel/
//     WithDeadline (a deliberate job-root, as in server.execute) or
//     when a <Name>Context sibling exists (the Run/RunContext compat
//     pair). Functions that already take a ctx and *choose* Background
//     for a specific call (say, a poll that must outlive the caller's
//     deadline) are not second-guessed.
//  4. An exported Run*/Serve*/Solve* entry point in a library package
//     whose transitive synchronous call tree blocks (or loops over
//     blocking work), with no context parameter and no <Name>Context
//     sibling. internal/ilt's Solver.Run was the motivating finding.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "long-running exported entry points must accept a context; loops over blocking work must consult it",
	Run:  runCtxFlow,
}

// ctxVerbs are the entry-point name prefixes rule 4 considers
// long-runner verbs.
var ctxVerbs = []string{"Run", "Serve", "Solve"}

func runCtxFlow(pass *Pass) {
	if pass.Mod == nil {
		return
	}
	ip := pass.Mod.Interproc()
	isMain := pass.Pkg.Name() == "main"
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			cf := &ctxFlowFunc{pass: pass, ip: ip, decl: fd}
			cf.resolveCtxParam()
			cf.checkUnusedCtx()
			cf.checkLoops()
			if !isMain {
				cf.checkBackground()
				cf.checkEntryPoint()
			}
		}
	}
}

type ctxFlowFunc struct {
	pass     *Pass
	ip       *Interproc
	decl     *ast.FuncDecl
	ctxObj   types.Object // the context parameter's object, or nil
	ctxIdent *ast.Ident   // its declaring identifier
}

func (cf *ctxFlowFunc) resolveCtxParam() {
	if cf.decl.Type.Params == nil {
		return
	}
	for _, field := range cf.decl.Type.Params.List {
		if t := cf.pass.TypeOf(field.Type); t == nil || !isCtxType(t) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			cf.ctxObj = cf.pass.Pkg.Info.Defs[name]
			cf.ctxIdent = name
			return
		}
	}
}

// checkUnusedCtx implements rule 1.
func (cf *ctxFlowFunc) checkUnusedCtx() {
	if cf.ctxObj == nil {
		return
	}
	used := false
	ast.Inspect(cf.decl.Body, func(n ast.Node) bool {
		if used {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && cf.pass.Pkg.Info.Uses[id] == cf.ctxObj {
			used = true
		}
		return true
	})
	if !used {
		cf.pass.Reportf(cf.ctxIdent.Pos(),
			"context parameter %s is never used; cancellation is silently ignored", cf.ctxIdent.Name)
	}
}

// checkLoops implements rule 2: every synchronous loop in a
// context-taking function that blocks per iteration must consult a
// context somewhere in its body.
func (cf *ctxFlowFunc) checkLoops() {
	if cf.ctxObj == nil {
		return
	}
	syncInspect(cf.decl.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			body = loop.Body
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}
		if cf.loopBlocks(n, body) && !cf.loopConsultsCtx(body) {
			cf.pass.Reportf(n.Pos(),
				"loop blocks but never consults a context (ctx.Err/ctx.Done); cancellation cannot interrupt it")
		}
		return true
	})
}

// loopBlocks reports whether the loop blocks per iteration: a blocking
// atom in its synchronous body, a range over a channel, or a call to a
// callee whose summary blocks.
func (cf *ctxFlowFunc) loopBlocks(loop ast.Node, body *ast.BlockStmt) bool {
	if r, ok := loop.(*ast.RangeStmt); ok {
		if t := cf.pass.TypeOf(r.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				return true
			}
		}
	}
	blocks := false
	goCalls := map[*ast.CallExpr]bool{}
	syncInspect(body, func(n ast.Node) bool {
		if blocks {
			return false
		}
		if g, ok := n.(*ast.GoStmt); ok {
			goCalls[g.Call] = true
		}
		if call, ok := n.(*ast.CallExpr); ok && !goCalls[call] && cf.ip.CallBlocks(cf.pass.Pkg, call) {
			blocks = true
			return false
		}
		if _, ok := blockingAtom(cf.pass.Pkg.Info, n); ok {
			blocks = true
			return false
		}
		return true
	})
	return blocks
}

// loopConsultsCtx reports whether the loop body consults any context:
// an Err/Done/Deadline call on a context-typed value, or a
// context-typed argument handed to a callee that consults it (module
// callees by summary; external callees are assumed to honour it).
func (cf *ctxFlowFunc) loopConsultsCtx(body *ast.BlockStmt) bool {
	consults := false
	syncInspect(body, func(n ast.Node) bool {
		if consults {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Err", "Done", "Deadline":
				if t := cf.pass.TypeOf(sel.X); t != nil && isCtxType(t) {
					consults = true
					return false
				}
			}
		}
		hasCtxArg := false
		for _, a := range call.Args {
			if t := cf.pass.TypeOf(a); t != nil && isCtxType(t) {
				hasCtxArg = true
			}
		}
		if !hasCtxArg {
			return true
		}
		callees := cf.ip.Graph.ResolveCallees(cf.pass.Pkg, call)
		moduleCallee := false
		for _, fn := range callees {
			if _, ok := cf.ip.Graph.Nodes[fn]; ok {
				moduleCallee = true
				if s := cf.ip.SummaryOf(fn); s != nil && s.ChecksCtx {
					consults = true
					return false
				}
			}
		}
		if !moduleCallee {
			consults = true // external/unknown callee handed a ctx
			return false
		}
		return true
	})
	return consults
}

// checkBackground implements rule 3.
func (cf *ctxFlowFunc) checkBackground() {
	if cf.ctxObj != nil {
		return // the function already plumbs a context; Background here is a choice
	}
	if cf.hasContextSibling() {
		return // Run() { return RunContext(context.Background()) } compat pair
	}
	// Collect Background/TODO calls that feed directly into a
	// WithTimeout/WithCancel/WithDeadline derivation.
	blessed := map[*ast.CallExpr]bool{}
	ast.Inspect(cf.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, pkgPath := cf.qualifiedCallee(call); pkgPath == "context" {
			switch name {
			case "WithTimeout", "WithCancel", "WithDeadline":
				for _, a := range call.Args {
					if inner, ok := ast.Unparen(a).(*ast.CallExpr); ok {
						blessed[inner] = true
					}
				}
			}
		}
		return true
	})
	ast.Inspect(cf.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || blessed[call] {
			return true
		}
		if name, pkgPath := cf.qualifiedCallee(call); pkgPath == "context" && (name == "Background" || name == "TODO") {
			cf.pass.Reportf(call.Pos(),
				"context.%s() in a library function with no context parameter; accept a context.Context from the caller", name)
		}
		return true
	})
}

// qualifiedCallee resolves call to (name, package path) when the callee
// is a package-level function reached through go/types.
func (cf *ctxFlowFunc) qualifiedCallee(call *ast.CallExpr) (string, string) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", ""
	}
	if fn, ok := cf.pass.Pkg.Info.Uses[id].(*types.Func); ok && fn.Pkg() != nil {
		return fn.Name(), fn.Pkg().Path()
	}
	return "", ""
}

// checkEntryPoint implements rule 4.
func (cf *ctxFlowFunc) checkEntryPoint() {
	name := cf.decl.Name.Name
	if !cf.decl.Name.IsExported() || strings.HasSuffix(name, "Context") {
		return
	}
	verb := false
	for _, v := range ctxVerbs {
		if strings.HasPrefix(name, v) {
			verb = true
		}
	}
	if !verb || cf.ctxObj != nil {
		return
	}
	fn, ok := cf.pass.Pkg.Info.Defs[cf.decl.Name].(*types.Func)
	if !ok {
		return
	}
	s := cf.ip.SummaryOf(fn)
	if s == nil || (!s.Blocks && !s.BlockingLoop) {
		return
	}
	if cf.hasContextSibling() {
		return
	}
	cf.pass.Reportf(cf.decl.Name.Pos(),
		"exported %s blocks but accepts no context.Context; add a %sContext variant so callers can cancel it", name, name)
}

// hasContextSibling reports whether a <Name>Context variant exists next
// to this function: in the package scope for plain functions, in the
// receiver's method set for methods.
func (cf *ctxFlowFunc) hasContextSibling() bool {
	want := cf.decl.Name.Name + "Context"
	if cf.decl.Recv == nil || len(cf.decl.Recv.List) == 0 {
		return cf.pass.Pkg.Types.Scope().Lookup(want) != nil
	}
	recvType := cf.pass.TypeOf(cf.decl.Recv.List[0].Type)
	if recvType == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(recvType, true, cf.pass.Pkg.Types, want)
	_, ok := obj.(*types.Func)
	return ok
}
