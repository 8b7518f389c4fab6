package analysis

import (
	"go/ast"
	"go/types"
)

// BufAlias watches the FFT scratch-buffer discipline in the parallel
// kernels (fft, litho, bigopc, ilt): a scratch grid or slice that is
// *written* inside a `go` literal must be owned by that goroutine. The
// fast-but-wrong "optimisation" this catches is hoisting a per-worker
// buffer out of the goroutine to save allocations — every worker then
// convolves into the same backing array and the aerial image silently
// blends kernels.
//
// A diagnostic fires when a goroutine literal writes to a captured
// buffer variable (slice, or pointer to a struct carrying slices, e.g.
// *fft.Grid2) and the goroutine is launched in a loop or a sibling
// goroutine also touches the buffer. Writes are direct assignments
// rooted at the variable, or passing it as the mutated (first)
// argument of an *Into-style routine or in-place transform. Sharded
// stores like accs[w] = acc, where the index is goroutine-local, are
// the sanctioned pattern and pass.
var BufAlias = &Analyzer{
	Name: "bufalias",
	Doc:  "flag FFT scratch buffers written by goroutines that do not own them",
	Run:  runBufAlias,
}

// bufAliasPackages scope the check to the parallel numeric kernels.
var bufAliasPackages = map[string]bool{
	"fft": true, "litho": true, "bigopc": true, "ilt": true,
}

// bufMutators are callees whose first argument is written in place: the
// fft package's kernel-grid transforms.
var bufMutators = map[string]bool{"InverseBandRows": true, "ForwardBandCols": true}

func runBufAlias(pass *Pass) {
	if !bufAliasPackages[pass.Pkg.Name()] {
		return
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				bufAliasFunc(pass, body)
			}
			return true
		})
	}
}

type goLit struct {
	lit    *ast.FuncLit
	inLoop bool
	// writes and reads map captured buffer objects to the position of
	// their first offending use.
	writes map[types.Object]ast.Node
	reads  map[types.Object]bool
}

func bufAliasFunc(pass *Pass, body *ast.BlockStmt) {
	var lits []*goLit
	var walk func(n ast.Node, loopDepth int)
	walk = func(n ast.Node, loopDepth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.ForStmt:
				walk(m.Body, loopDepth+1)
				return false
			case *ast.RangeStmt:
				walk(m.Body, loopDepth+1)
				return false
			case *ast.GoStmt:
				if lit, ok := m.Call.Fun.(*ast.FuncLit); ok {
					g := &goLit{lit: lit, inLoop: loopDepth > 0, writes: map[types.Object]ast.Node{}, reads: map[types.Object]bool{}}
					collectBufUses(pass, g)
					lits = append(lits, g)
					// Nested go statements inside the literal still count.
					walk(lit.Body, 0)
					return false
				}
			}
			return true
		})
	}
	walk(body, 0)

	for _, g := range lits {
		for obj, at := range g.writes {
			shared := g.inLoop
			if !shared {
				for _, other := range lits {
					if other == g {
						continue
					}
					if _, w := other.writes[obj]; w || other.reads[obj] {
						shared = true
						break
					}
				}
			}
			if shared {
				pass.Reportf(at.Pos(), "goroutine writes shared scratch buffer %s; allocate it inside the goroutine or shard by a goroutine-local index", obj.Name())
			}
		}
	}
}

// collectBufUses records which captured buffer-typed objects the
// literal reads and writes.
func collectBufUses(pass *Pass, g *goLit) {
	captured := func(id *ast.Ident) (types.Object, bool) {
		obj := pass.ObjectOf(id)
		if obj == nil || !isBufferType(obj.Type()) {
			return nil, false
		}
		if obj.Pos() >= g.lit.Pos() && obj.Pos() < g.lit.End() {
			return nil, false // goroutine-local
		}
		return obj, true
	}
	markWrite := func(id *ast.Ident, at ast.Node) {
		if obj, ok := captured(id); ok {
			if _, dup := g.writes[obj]; !dup {
				g.writes[obj] = at
			}
		}
	}
	ast.Inspect(g.lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				root, localIndex := rootOfLValue(pass, g.lit, lhs)
				if root == nil {
					continue
				}
				if localIndex {
					continue // sharded per-goroutine store
				}
				markWrite(root, n)
			}
		case *ast.CallExpr:
			if name, ok := calleeName(n); ok && len(n.Args) > 0 {
				if bufMutators[name] || hasIntoSuffix(name) {
					if id, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
						markWrite(id, n)
					}
				}
			}
		case *ast.Ident:
			if obj, ok := captured(n); ok {
				g.reads[obj] = true
			}
		}
		return true
	})
}

func hasIntoSuffix(name string) bool {
	return len(name) > 4 && name[len(name)-4:] == "Into"
}

// rootOfLValue unwraps selectors/indexes/derefs to the base identifier
// of an assignment target. localIndex reports that the outermost store
// is an index expression whose index is declared inside the literal —
// the sanctioned per-worker sharding pattern.
func rootOfLValue(pass *Pass, lit *ast.FuncLit, e ast.Expr) (root *ast.Ident, localIndex bool) {
	if ix, ok := ast.Unparen(e).(*ast.IndexExpr); ok {
		if id, ok := ast.Unparen(ix.Index).(*ast.Ident); ok {
			if obj := pass.ObjectOf(id); obj != nil && obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
				localIndex = true
			}
		}
	}
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x, localIndex
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// isBufferType reports whether t is a scratch-buffer shape: a slice,
// or a pointer to a struct that carries a slice field (fft.Grid2,
// raster.Field, ForwardCache...).
func isBufferType(t types.Type) bool {
	switch t := t.(type) {
	case nil:
		return false
	case *types.Slice:
		return true
	case *types.Pointer:
		s, ok := t.Elem().Underlying().(*types.Struct)
		if !ok {
			return false
		}
		for i := 0; i < s.NumFields(); i++ {
			if _, ok := s.Field(i).Type().Underlying().(*types.Slice); ok {
				return true
			}
		}
	case *types.Named:
		return isBufferType(t.Underlying())
	}
	return false
}
