package analysis

import (
	"go/ast"
	"strings"
)

// AllowDirective is the inline suppression marker: a comment of the
// form
//
//	//cardopc:allow floatcmp,nanguard reason for the exception
//
// suppresses the named analyzers on the line it sits on, or — when the
// comment stands alone on its line — on the following line. It is the
// only suppression mechanism, so every exception sits next to its code.
const AllowDirective = "//cardopc:allow"

// filterInlineAllows drops diagnostics suppressed by //cardopc:allow
// comments in pkg's sources. Diagnostics for a package always point
// into its own files, so collecting directives per package is exact.
func filterInlineAllows(mod *Module, pkg *Package, diags []Diagnostic) []Diagnostic {
	if len(diags) == 0 {
		return diags
	}
	// allowed[file][line] -> set of analyzer names allowed there.
	allowed := map[string]map[int]map[string]bool{}
	for _, f := range pkg.Files {
		collectInlineAllows(mod, f, allowed)
	}
	var out []Diagnostic
	for _, d := range diags {
		if names := allowed[d.Pos.Filename][d.Pos.Line]; names[d.Analyzer] || names["*"] {
			continue
		}
		out = append(out, d)
	}
	return out
}

func collectInlineAllows(mod *Module, f *ast.File, allowed map[string]map[int]map[string]bool) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, AllowDirective)
			if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			pos := mod.Fset.Position(c.Pos())
			line := pos.Line
			// A directive on its own line guards the next line.
			if pos.Column == 1 || onlyCommentOnLine(mod, f, c) {
				line++
			}
			byLine := allowed[pos.Filename]
			if byLine == nil {
				byLine = map[int]map[string]bool{}
				allowed[pos.Filename] = byLine
			}
			names := byLine[line]
			if names == nil {
				names = map[string]bool{}
				byLine[line] = names
			}
			for _, a := range strings.Split(fields[0], ",") {
				names[a] = true
			}
		}
	}
}

// onlyCommentOnLine reports whether c is the first token on its line,
// i.e. a standalone directive rather than a trailing one.
func onlyCommentOnLine(mod *Module, f *ast.File, c *ast.Comment) bool {
	pos := mod.Fset.Position(c.Pos())
	var trailing bool
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || trailing {
			return false
		}
		if n.End() <= c.Pos() && mod.Fset.Position(n.End()).Line == pos.Line {
			switch n.(type) {
			case *ast.File, *ast.Comment, *ast.CommentGroup:
			default:
				trailing = true
			}
		}
		return !trailing
	})
	return !trailing
}
