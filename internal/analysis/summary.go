package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file computes per-function summaries bottom-up over the call
// graph's SCCs. A summary is the small abstraction of a function's
// behaviour that the interprocedural analyzers (ctxflow, nonblock, the
// summary-powered poolcheck) consult at call sites instead of
// re-walking callee bodies.
//
// All bits are defined over *synchronous* behaviour (see callgraph.go):
// work a function performs on its caller's goroutine before returning.
// Within an SCC the bits are monotone — they only flip from false to
// true and the index/path sets only grow — so the fixpoint iteration
// terminates.

// FuncSummary abstracts one function for interprocedural analysis. The
// zero value is the sound default for an unknown callee: does not
// block, does not consult a context, retains nothing.
type FuncSummary struct {
	// ChecksCtx: the function consults a context — calls Err/Done/
	// Deadline on a context value, or forwards a context to a callee
	// that does (module callees by summary; callees outside the module
	// are assumed to honour the contexts they are handed).
	ChecksCtx bool
	// Blocks: the function may block the calling goroutine — a channel
	// send/receive, a select without default, ranging over a channel,
	// sync.WaitGroup.Wait / sync.Cond.Wait, time.Sleep, an http
	// round-trip — directly or via a synchronous callee.
	Blocks bool
	// BlockingLoop: the function contains a loop whose body blocks per
	// iteration (directly or via a callee). This is the "unbounded
	// iteration" shape cancellation exists for.
	BlockingLoop bool
	// PooledResults lists result indices that carry a pool release
	// obligation: the function returns a value acquired from
	// fft.GetGrid/GetWorkspace/NewForwardCache (or from another
	// pool-returning function), so the caller must release it.
	PooledResults []int
	// ReleasesParams lists parameter indices the function releases
	// (PutGrid(p), p.Release(), or passing p to a releasing callee).
	ReleasesParams []int
	// EscapesParams lists parameter indices the function retains beyond
	// the call: stored into a field, global, container or composite
	// literal, sent on a channel, or captured by a spawned goroutine.
	EscapesParams []int
	// ReleasesRecvHeld: the method releases pooled values reachable
	// from its receiver (the ForwardCache.Release shape). A type with
	// such a method is a legitimate owner for pooled stores.
	ReleasesRecvHeld bool
}

func (s *FuncSummary) equal(o *FuncSummary) bool {
	return s.ChecksCtx == o.ChecksCtx &&
		s.Blocks == o.Blocks &&
		s.BlockingLoop == o.BlockingLoop &&
		s.ReleasesRecvHeld == o.ReleasesRecvHeld &&
		intsEqual(s.PooledResults, o.PooledResults) &&
		intsEqual(s.ReleasesParams, o.ReleasesParams) &&
		intsEqual(s.EscapesParams, o.EscapesParams)
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Interproc bundles the call graph and the fixpoint summaries for one
// loaded Module. It is built lazily by Module.Interproc and shared by
// every analyzer pass over that module.
type Interproc struct {
	Graph     *CallGraph
	summaries map[*types.Func]*FuncSummary
	releasing map[*types.Named]bool
}

// Interproc returns the module's interprocedural state, building it on
// first use. The driver is single-goroutine, so no locking is needed.
func (m *Module) Interproc() *Interproc {
	if m.interproc == nil {
		m.interproc = buildInterproc(m)
	}
	return m.interproc
}

// SummaryOf returns fn's summary, or nil for functions outside the
// loaded module (the unknown-callee caveat: treat as a zero summary).
func (ip *Interproc) SummaryOf(fn *types.Func) *FuncSummary {
	if fn == nil {
		return nil
	}
	return ip.summaries[fn]
}

// CallBlocks reports whether any resolved callee of call may block.
// Unresolved callees report false (documented caveat).
func (ip *Interproc) CallBlocks(pkg *Package, call *ast.CallExpr) bool {
	return ip.CallBlocksWith(pkg, call, ip.summaries)
}

// PooledIndices returns the result indices of call that carry a pool
// release obligation: every result of an intrinsic acquire
// (GetGrid/GetWorkspace/NewForwardCache by name), or the summary's
// PooledResults for resolved module callees.
func (ip *Interproc) PooledIndices(pkg *Package, call *ast.CallExpr) []int {
	return ip.pooledIndicesWith(pkg, call, ip.summaries)
}

// TypeReleasesHeld reports whether t (or *t) declares a method that
// releases pooled values reachable from its receiver — the contract
// that makes storing an acquire into one of t's fields a legitimate
// ownership transfer rather than an escape.
func (ip *Interproc) TypeReleasesHeld(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return ip.releasing[named]
}

func dedupInts(sorted []int) []int {
	out := sorted[:1]
	for _, v := range sorted[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// buildInterproc constructs the call graph and runs the summary
// fixpoint bottom-up over its SCCs. Singleton (non-recursive)
// components converge in one pass because their callees are final;
// recursive components iterate until the monotone bits stop changing.
func buildInterproc(m *Module) *Interproc {
	ip := &Interproc{
		Graph:     BuildCallGraph(m),
		summaries: map[*types.Func]*FuncSummary{},
		releasing: map[*types.Named]bool{},
	}
	for _, scc := range ip.Graph.SCCs {
		for {
			changed := false
			for _, node := range scc {
				ns := ip.computeSummary(node)
				old := ip.summaries[node.Obj]
				if old == nil || !old.equal(ns) {
					ip.summaries[node.Obj] = ns
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	for _, node := range ip.Graph.Funcs {
		s := ip.summaries[node.Obj]
		if s == nil || !s.ReleasesRecvHeld {
			continue
		}
		if named := recvNamedType(node.Obj); named != nil {
			ip.releasing[named] = true
		}
	}
	return ip
}

// recvNamedType returns the named receiver type of fn (dereferencing a
// pointer receiver), or nil for plain functions.
func recvNamedType(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isCtxType reports whether t is context.Context.
func isCtxType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// blockingAtom classifies n as a primitive blocking operation,
// returning a short description for diagnostics. Calls are classified
// by callee: WaitGroup.Wait, Cond.Wait, time.Sleep and http
// round-trips block; everything else is the callee summary's business.
func blockingAtom(info *types.Info, n ast.Node) (string, bool) {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send", true
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive", true
		}
	case *ast.SelectStmt:
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				return "", false // default case: non-blocking poll
			}
		}
		return "select", true
	case *ast.RangeStmt:
		if t := info.TypeOf(n.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return "range over channel", true
			}
		}
	case *ast.CallExpr:
		return blockingCall(info, n)
	}
	return "", false
}

// blockingCall recognises the stdlib calls the summary layer treats as
// blocking primitives.
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	// Package-level calls: time.Sleep, http.Get/Post/Head/PostForm.
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "time":
			if name == "Sleep" {
				return "time.Sleep", true
			}
		case "net/http":
			switch name {
			case "Get", "Post", "Head", "PostForm":
				return "http round-trip", true
			}
		}
	}
	// Method calls: resolve the receiver's defining package.
	if s, ok := info.Selections[sel]; ok {
		if fn, ok := s.Obj().(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "sync":
				if name == "Wait" {
					return "sync." + recvTypeName(s.Recv()) + ".Wait", true
				}
			case "net/http":
				switch name {
				case "Do", "RoundTrip", "Get", "Post", "Head", "PostForm":
					return "http round-trip", true
				}
			}
		}
	}
	return "", false
}

func recvTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return "?"
}

// exprRootObj unwraps selectors, indexing, stars and parens to the
// base identifier's object, or nil.
func exprRootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// poolReleaseTarget resolves PutGrid(x) / x.Release() to the expression
// being released, or nil.
func poolReleaseTarget(call *ast.CallExpr) ast.Expr {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name == "PutGrid" && len(call.Args) == 1 {
			return call.Args[0]
		}
		if fun.Sel.Name == "Release" && len(call.Args) == 0 {
			return fun.X
		}
	case *ast.Ident:
		if fun.Name == "PutGrid" && len(call.Args) == 1 {
			return call.Args[0]
		}
	}
	return nil
}

// computeSummary walks node's body once against the current summary
// map. Called repeatedly by the SCC fixpoint; every derived fact is
// monotone in the callee summaries, so re-walking is convergent.
func (ip *Interproc) computeSummary(node *FuncNode) *FuncSummary {
	s := &FuncSummary{}
	sig, _ := node.Obj.Type().(*types.Signature)
	if sig == nil {
		return s
	}
	params := sig.Params()
	paramIndex := map[types.Object]int{}
	for i := 0; i < params.Len(); i++ {
		paramIndex[params.At(i)] = i
	}
	var recvObj types.Object
	if sig.Recv() != nil {
		recvObj = sig.Recv()
	}
	if node.Decl == nil || node.Decl.Body == nil {
		return s
	}
	// The syntactic receiver/param objects differ from the signature's:
	// map them through Defs.
	if node.Decl.Recv != nil && len(node.Decl.Recv.List) == 1 && len(node.Decl.Recv.List[0].Names) == 1 {
		if obj := node.Pkg.Info.Defs[node.Decl.Recv.List[0].Names[0]]; obj != nil {
			recvObj = obj
		}
	}
	if node.Decl.Type.Params != nil {
		i := 0
		for _, field := range node.Decl.Type.Params.List {
			if len(field.Names) == 0 {
				i++
				continue
			}
			for _, name := range field.Names {
				if obj := node.Pkg.Info.Defs[name]; obj != nil {
					paramIndex[obj] = i
				}
				i++
			}
		}
	}

	info := node.Pkg.Info
	sum := summaryWalker{
		ip:         ip,
		node:       node,
		s:          s,
		info:       info,
		paramIndex: paramIndex,
		recvObj:    recvObj,
		pooled:     map[types.Object]bool{},
		recvDeriv:  map[types.Object]bool{recvObj: true},
		goCalls:    map[*ast.CallExpr]bool{},
		goEscapes:  map[int]bool{},
		relParams:  map[int]bool{},
		escParams:  map[int]bool{},
		pooledRes:  map[int]bool{},
	}
	delete(sum.recvDeriv, nil)
	syncInspect(node.Decl.Body, sum.visit)
	sum.finish()
	return s
}

type summaryWalker struct {
	ip         *Interproc
	node       *FuncNode
	s          *FuncSummary
	info       *types.Info
	paramIndex map[types.Object]int
	recvObj    types.Object
	pooled     map[types.Object]bool // locals holding a pooled acquire
	recvDeriv  map[types.Object]bool // objects derived from the receiver
	goCalls    map[*ast.CallExpr]bool
	goEscapes  map[int]bool // params captured by spawned goroutines
	sawWait    bool         // a sync.WaitGroup.Wait fences those captures
	relParams  map[int]bool
	escParams  map[int]bool
	pooledRes  map[int]bool
}

func (w *summaryWalker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.GoStmt:
		w.goCalls[n.Call] = true
		// Params captured by a spawned goroutine escape the call.
		w.markGoEscapes(n.Call)
	case *ast.ForStmt:
		if w.loopBlocks(n.Body) {
			w.s.BlockingLoop = true
		}
	case *ast.RangeStmt:
		if t := w.info.TypeOf(n.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				w.s.Blocks = true
				w.s.BlockingLoop = true
			}
		}
		if w.loopBlocks(n.Body) {
			w.s.BlockingLoop = true
		}
		w.trackRangeDerived(n)
	case *ast.SendStmt:
		w.s.Blocks = true
		w.escapeIfParam(n.Value)
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			w.s.Blocks = true
		}
	case *ast.SelectStmt:
		if _, blocks := blockingAtom(w.info, n); blocks {
			w.s.Blocks = true
		}
	case *ast.AssignStmt:
		w.trackAssign(n)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Names) == len(vs.Values) {
					for i := range vs.Names {
						w.trackAssignOne(vs.Names[i], vs.Values[i], false)
					}
				}
			}
		}
	case *ast.CompositeLit:
		for _, el := range n.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.escapeIfParam(kv.Value)
			} else {
				w.escapeIfParam(el)
			}
		}
	case *ast.ReturnStmt:
		w.trackReturn(n)
	case *ast.CallExpr:
		if w.goCalls[n] {
			return true
		}
		w.trackCall(n)
	}
	return true
}

func (w *summaryWalker) finish() {
	if !w.sawWait {
		for i := range w.goEscapes {
			w.escParams[i] = true
		}
	}
	w.s.PooledResults = sortedKeys(w.pooledRes)
	w.s.ReleasesParams = sortedKeys(w.relParams)
	w.s.EscapesParams = sortedKeys(w.escParams)
}

func sortedKeys(m map[int]bool) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// loopBlocks scans a loop body's synchronous nodes for a blocking atom
// or a call to a blocking callee.
func (w *summaryWalker) loopBlocks(body ast.Node) bool {
	blocks := false
	goCalls := map[*ast.CallExpr]bool{}
	syncInspect(body, func(n ast.Node) bool {
		if blocks {
			return false
		}
		if g, ok := n.(*ast.GoStmt); ok {
			goCalls[g.Call] = true
		}
		if call, ok := n.(*ast.CallExpr); ok && !goCalls[call] {
			if w.ip.CallBlocksWith(w.node.Pkg, call, w.ip.summaries) {
				blocks = true
				return false
			}
		}
		if _, ok := blockingAtom(w.info, n); ok {
			blocks = true
			return false
		}
		return true
	})
	return blocks
}

// CallBlocksWith is CallBlocks against an explicit (possibly still
// converging) summary map — used inside the fixpoint.
func (ip *Interproc) CallBlocksWith(pkg *Package, call *ast.CallExpr, sums map[*types.Func]*FuncSummary) bool {
	for _, fn := range ip.Graph.ResolveCallees(pkg, call) {
		if s := sums[fn]; s != nil && s.Blocks {
			return true
		}
	}
	return false
}

func (w *summaryWalker) trackRangeDerived(n *ast.RangeStmt) {
	if w.recvObj == nil {
		return
	}
	if root := exprRootObj(w.info, n.X); root == nil || !w.recvDeriv[root] {
		return
	}
	for _, e := range []ast.Expr{n.Key, n.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if obj := w.info.ObjectOf(id); obj != nil {
				w.recvDeriv[obj] = true
			}
		}
	}
}

func (w *summaryWalker) trackAssign(as *ast.AssignStmt) {
	// Multi-value bind from one call: a, b := f().
	if len(as.Lhs) > 1 && len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			for _, i := range w.ip.pooledIndicesWith(w.node.Pkg, call, w.ip.summaries) {
				if i < len(as.Lhs) {
					if id, ok := as.Lhs[i].(*ast.Ident); ok {
						if obj := w.info.ObjectOf(id); obj != nil {
							w.pooled[obj] = true
						}
					}
				}
			}
		}
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Rhs {
		w.trackAssignOne(as.Lhs[i], as.Rhs[i], true)
	}
}

func (w *summaryWalker) trackAssignOne(lhs, rhs ast.Expr, checkEscape bool) {
	rhs = ast.Unparen(rhs)
	if call, ok := rhs.(*ast.CallExpr); ok {
		if idx := w.ip.pooledIndicesWith(w.node.Pkg, call, w.ip.summaries); len(idx) > 0 {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := w.info.ObjectOf(id); obj != nil {
					w.pooled[obj] = true
				}
			}
		}
	}
	// Receiver-derived locals: x := c.field (any shape rooted at recv).
	if w.recvObj != nil {
		if root := exprRootObj(w.info, rhs); root != nil && w.recvDeriv[root] {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := w.info.ObjectOf(id); obj != nil {
					w.recvDeriv[obj] = true
				}
			}
		}
	}
	if !checkEscape {
		return
	}
	// A parameter stored into a field, container or global escapes.
	switch ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		w.escapeIfParam(rhs)
	case *ast.Ident:
		if obj := w.info.ObjectOf(ast.Unparen(lhs).(*ast.Ident)); obj != nil {
			if _, isPkgLevel := obj.(*types.Var); isPkgLevel && obj.Parent() == w.node.Pkg.Types.Scope() {
				w.escapeIfParam(rhs)
			}
		}
	}
}

func (w *summaryWalker) escapeIfParam(e ast.Expr) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return
	}
	obj := w.info.ObjectOf(id)
	if obj == nil {
		return
	}
	if i, isParam := w.paramIndex[obj]; isParam {
		w.escParams[i] = true
	}
}

// markGoEscapes records params captured by a spawned goroutine. They
// only become EscapesParams when the function has no WaitGroup barrier:
// the fan-out + wg.Wait containment pattern (AerialWithCacheInto's
// kernel workers reading the mask-frequency grid) bounds the borrow
// inside the call, mirroring poolcheck's own fence rule.
func (w *summaryWalker) markGoEscapes(call *ast.CallExpr) {
	ast.Inspect(call, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := w.info.ObjectOf(id); obj != nil {
				if i, isParam := w.paramIndex[obj]; isParam {
					w.goEscapes[i] = true
				}
			}
		}
		return true
	})
}

func (w *summaryWalker) trackReturn(r *ast.ReturnStmt) {
	for i, res := range r.Results {
		res = ast.Unparen(res)
		if id, ok := res.(*ast.Ident); ok {
			if obj := w.info.ObjectOf(id); obj != nil && w.pooled[obj] {
				w.pooledRes[i] = true
			}
			continue
		}
		if call, ok := res.(*ast.CallExpr); ok {
			idx := w.ip.pooledIndicesWith(w.node.Pkg, call, w.ip.summaries)
			if len(r.Results) == 1 {
				// return f(): result indices carry through unchanged.
				for _, j := range idx {
					w.pooledRes[j] = true
				}
				continue
			}
			for _, j := range idx {
				if j == 0 {
					w.pooledRes[i] = true
				}
			}
		}
	}
}

func (w *summaryWalker) trackCall(call *ast.CallExpr) {
	info := w.info
	// Blocking primitives.
	if _, ok := blockingCall(info, call); ok {
		w.s.Blocks = true
	}
	if isWaitGroupWait(info, call) {
		w.sawWait = true
	}
	// Context consultation: ctx.Err()/Done()/Deadline() on any
	// context-typed receiver.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Err", "Done", "Deadline":
			if t := info.TypeOf(sel.X); t != nil && isCtxType(t) {
				w.s.ChecksCtx = true
			}
		}
	}
	callees := w.ip.Graph.ResolveCallees(w.node.Pkg, call)
	resolvedModule := false
	for _, fn := range callees {
		if _, ok := w.ip.Graph.Nodes[fn]; ok {
			resolvedModule = true
		}
	}

	// Context forwarding: handing a context to a callee that consults
	// it counts as consulting. Callees outside the module are assumed
	// to honour it.
	forwardsCtx := false
	for _, a := range call.Args {
		if t := info.TypeOf(a); t != nil && isCtxType(t) {
			forwardsCtx = true
		}
	}
	if forwardsCtx {
		if !resolvedModule {
			w.s.ChecksCtx = true
		}
		for _, fn := range callees {
			if s := w.ip.summaries[fn]; s != nil && s.ChecksCtx {
				w.s.ChecksCtx = true
			}
		}
	}

	// Pooled parameter release: PutGrid(p) / p.Release() on a param, or
	// forwarding a param to a callee that releases/escapes it.
	if target := poolReleaseTarget(call); target != nil {
		if id, ok := ast.Unparen(target).(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				if i, isParam := w.paramIndex[obj]; isParam {
					w.relParams[i] = true
				}
				delete(w.pooled, obj)
			}
		}
		// Receiver-held release: PutGrid(x) where x derives from recv.
		if w.recvObj != nil {
			if root := exprRootObj(info, target); root != nil && w.recvDeriv[root] {
				w.s.ReleasesRecvHeld = true
			}
		}
		return
	}

	// Summary folding across the call.
	for _, fn := range callees {
		s := w.ip.summaries[fn]
		if s == nil {
			continue
		}
		if s.Blocks {
			w.s.Blocks = true
		}
		// Same-receiver method call: what it releases from the
		// receiver, we release.
		if s.ReleasesRecvHeld && w.recvObj != nil {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && info.ObjectOf(id) == w.recvObj {
					w.s.ReleasesRecvHeld = true
				}
			}
		}
		// Param forwarding: f(p) where f releases or escapes that
		// parameter position.
		for ai, arg := range call.Args {
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.ObjectOf(id)
			if obj == nil {
				continue
			}
			pi, isParam := w.paramIndex[obj]
			for _, rp := range s.ReleasesParams {
				if rp == ai {
					if isParam {
						w.relParams[pi] = true
					}
					delete(w.pooled, obj)
				}
			}
			if isParam {
				for _, ep := range s.EscapesParams {
					if ep == ai {
						w.escParams[pi] = true
					}
				}
			}
		}
	}
}

// pooledIndicesWith is PooledIndices against an explicit summary map,
// for use inside the fixpoint.
func (ip *Interproc) pooledIndicesWith(pkg *Package, call *ast.CallExpr, sums map[*types.Func]*FuncSummary) []int {
	if name, ok := calleeName(call); ok && poolAcquireNames[name] {
		n := 1
		if tv, ok := pkg.Info.Types[call]; ok {
			if tuple, ok := tv.Type.(*types.Tuple); ok {
				n = tuple.Len()
			}
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	var out []int
	for _, fn := range ip.Graph.ResolveCallees(pkg, call) {
		if s := sums[fn]; s != nil {
			out = append(out, s.PooledResults...)
		}
	}
	if len(out) > 1 {
		sort.Ints(out)
		out = dedupInts(out)
	}
	return out
}
