package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatCmp flags == and != between floating-point (or complex)
// operands. Exact float equality is almost never what spline/MRC
// geometry code means: control points arrive through rounded arithmetic
// and two mathematically equal quantities routinely differ in the last
// ulp, so an == silently turns a tolerance question into a coin flip.
//
// Permitted forms:
//   - comparisons where both operands are compile-time constants;
//   - sentinel tests of a plain variable or field against a constant
//     ("cfg.Dose == 0" — the value was stored, not computed);
//   - comparisons inside approved epsilon helpers (ApproxEq and
//     friends), which exist to encapsulate the tolerance.
//
// Anything comparing a *computed* float (arithmetic, call results)
// must go through an epsilon helper or carry an explicit allow.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc:  "flag ==/!= on floating-point operands outside approved epsilon helpers",
	Run:  runFloatCmp,
}

// floatCmpApproved are function names whose bodies may compare floats
// exactly: the epsilon helpers themselves, where == against the
// tolerance bound is the point.
var floatCmpApproved = map[string]bool{
	"ApproxEq":    true,
	"approxEq":    true,
	"AlmostEqual": true,
	"almostEqual": true,
	"EqualWithin": true,
}

func runFloatCmp(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && floatCmpApproved[fd.Name.Name] {
				return false
			}
			cmp, ok := n.(*ast.BinaryExpr)
			if !ok || (cmp.Op != token.EQL && cmp.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass.TypeOf(cmp.X)) && !isFloat(pass.TypeOf(cmp.Y)) {
				return true
			}
			xc, yc := isConstExpr(pass, cmp.X), isConstExpr(pass, cmp.Y)
			switch {
			case xc && yc:
				return true // constant folding, exact by definition
			case xc && isPlainValue(cmp.Y), yc && isPlainValue(cmp.X):
				return true // sentinel test of a stored value
			}
			pass.Reportf(cmp.OpPos, "%s on float operands; use an epsilon comparison (Pt.ApproxEq-style) or mark //cardopc:allow floatcmp", cmp.Op)
			return true
		})
	}
}

// isFloat reports whether t's underlying type is floating or complex.
func isFloat(t types.Type) bool {
	b, ok := t.(*types.Basic)
	if !ok {
		if t == nil {
			return false
		}
		b, ok = t.Underlying().(*types.Basic)
		if !ok {
			return false
		}
	}
	return b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// isConstExpr reports whether the type checker folded e to a constant.
func isConstExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	return ok && tv.Value != nil
}

// isPlainValue reports whether e is a direct read of a stored value —
// an identifier, field selection or index — rather than the result of
// arithmetic or a call. Comparing a stored value against a constant
// sentinel is exact and intentional; comparing a computed one is not.
func isPlainValue(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return isPlainValue(e.X)
	case *ast.StarExpr:
		return isPlainValue(e.X)
	default:
		return false
	}
}
