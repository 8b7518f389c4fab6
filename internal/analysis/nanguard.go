package analysis

import (
	"go/ast"
	"go/token"
)

// NaNGuard polices the numeric hot paths (spline, geom, mrc, litho):
// the result of a domain-limited math call (Sqrt of a possibly-negative
// rounding residue, Acos of a dot product a hair outside [-1,1], Log of
// a vanishing area) must pass a NaN/Inf guard before it is used as an
// index or folded into an accumulator. A NaN that reaches an EPE sum
// or a gradient accumulation poisons the whole optimization without
// crashing — the classic silent ILT failure mode.
//
// The analyzer flags, per function:
//   - a risky call used directly inside an index expression or an
//     op-assignment accumulation (+=, -=, *=, /=);
//   - a variable assigned from a risky call and later used in an index
//     or accumulation, when the function never checks that variable
//     with math.IsNaN/math.IsInf (or a Finite/Safe* helper).
//
// Clamped wrappers named SafeSqrt, SafeAcos, SafeAsin, SafeDiv or SafeLog
// are approved sources: they cannot produce NaN for finite inputs.
var NaNGuard = &Analyzer{
	Name: "nanguard",
	Doc:  "require NaN/Inf guards on domain-limited math results before indexing or accumulation",
	Run:  runNaNGuard,
}

// nanGuardPackages are the package names the check applies to — the
// numeric kernels where silent NaN propagation destroys OPC output.
var nanGuardPackages = map[string]bool{
	"spline": true,
	"geom":   true,
	"mrc":    true,
	"litho":  true,
}

// nanRiskyMath are math functions that return NaN (or ±Inf) for
// arguments reachable by rounding error.
var nanRiskyMath = map[string]bool{
	"Sqrt": true, "Acos": true, "Asin": true,
	"Log": true, "Log2": true, "Log10": true, "Log1p": true,
}

// nanGuardFuncs recognise an explicit finiteness check.
var nanGuardFuncs = map[string]bool{
	"IsNaN": true, "IsInf": true, "IsFinite": true, "Finite": true,
}

// nanSafeFuncs are approved clamped wrappers whose results need no
// further guarding.
var nanSafeFuncs = map[string]bool{
	"SafeSqrt": true, "SafeAcos": true, "SafeAsin": true, "SafeDiv": true, "SafeLog": true,
}

func runNaNGuard(pass *Pass) {
	if !nanGuardPackages[pass.Pkg.Name()] {
		return
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				nanGuardFunc(pass, body)
			}
			return true
		})
	}
}

func nanGuardFunc(pass *Pass, body *ast.BlockStmt) {
	// Pass 1: objects that appear inside a finiteness guard anywhere in
	// the function, and objects assigned from risky calls.
	guarded := map[any]bool{}
	risky := map[any]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // nested literals are visited on their own
		case *ast.CallExpr:
			if name, ok := calleeName(n); ok && nanGuardFuncs[name] {
				for _, arg := range n.Args {
					ast.Inspect(arg, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							if obj := pass.ObjectOf(id); obj != nil {
								guarded[obj] = true
							}
						}
						return true
					})
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if id, ok := n.Lhs[0].(*ast.Ident); ok && nanRiskyExpr(pass, n.Rhs[0]) {
					if obj := pass.ObjectOf(id); obj != nil {
						risky[obj] = n.Rhs[0].Pos()
					}
				}
			}
		}
		return true
	})

	// Pass 2: flag risky values reaching indexes or accumulations.
	report := func(at token.Pos, what string) {
		pass.Reportf(at, "%s feeds an index/accumulation without a math.IsNaN/IsInf guard; clamp the domain or guard the value", what)
	}
	checkUse := func(e ast.Expr, context string) {
		if nanRiskyExpr(pass, e) {
			report(e.Pos(), "domain-limited math result "+context)
			return
		}
		ast.Inspect(e, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.ObjectOf(id)
			if obj == nil || guarded[obj] {
				return true
			}
			if at, ok := risky[obj]; ok {
				report(at, "value of "+id.Name+" (assigned here) "+context)
				delete(risky, obj) // one report per risky assignment
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IndexExpr:
			checkUse(n.Index, "used as an index")
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, rhs := range n.Rhs {
					checkUse(rhs, "used in an accumulation")
				}
			}
		}
		return true
	})
}

// nanRiskyExpr reports whether e contains a call to a domain-limited
// math function (outside any approved Safe* wrapper and not applied to
// a constant argument).
func nanRiskyExpr(pass *Pass, e ast.Expr) bool {
	risky := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || risky {
			return !risky
		}
		name, ok := calleeName(call)
		if !ok {
			return true
		}
		if nanSafeFuncs[name] || nanGuardFuncs[name] {
			return false
		}
		if nanRiskyMath[name] && !allConstArgs(pass, call) {
			risky = true
			return false
		}
		return true
	})
	return risky
}

// calleeName extracts the bare function name of a call: Sqrt for
// math.Sqrt(x), F for F(x). Method values and indirect calls return
// false.
func calleeName(call *ast.CallExpr) (string, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name, true
	case *ast.SelectorExpr:
		return fun.Sel.Name, true
	}
	return "", false
}

func allConstArgs(pass *Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if !isConstExpr(pass, arg) {
			return false
		}
	}
	return len(call.Args) > 0
}
