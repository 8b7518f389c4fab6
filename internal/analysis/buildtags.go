package analysis

import (
	"bytes"
	"go/build/constraint"
	"runtime"
	"strings"
)

// buildTagIncluded reports whether a source file belongs to the default
// build configuration — the one `go build` with no -tags flag compiles
// on this host. Files excluded by a //go:build (or legacy // +build)
// constraint are skipped by the loader, so a tag-gated file pair
// (pooldebug.go / pooldebug_off.go) never redeclares symbols during
// type-checking.
//
// Tag evaluation is deliberately minimal: the host GOOS/GOARCH, the gc
// toolchain and every released go1.N language version are true; every
// other tag — including custom gates like cardopc_pooldebug — is false.
// GOOS/GOARCH filename suffixes are not interpreted; this module does
// not use them.
func buildTagIncluded(src []byte) bool {
	expr := buildConstraintOf(src)
	if expr == nil {
		return true
	}
	return expr.Eval(defaultTagOK)
}

// buildConstraintOf extracts the file's build constraint from the
// header comment block (everything before the package clause). A
// //go:build line wins; otherwise legacy // +build lines are ANDed
// together per the pre-1.17 rules. Returns nil when unconstrained.
func buildConstraintOf(src []byte) constraint.Expr {
	var legacy constraint.Expr
	inBlock := false
	for _, raw := range bytes.Split(src, []byte("\n")) {
		line := strings.TrimSpace(string(raw))
		if inBlock {
			if i := strings.Index(line, "*/"); i >= 0 {
				inBlock = false
				line = strings.TrimSpace(line[i+2:])
			} else {
				continue
			}
		}
		switch {
		case line == "" || strings.HasPrefix(line, "//"):
			if constraint.IsGoBuild(line) {
				if expr, err := constraint.Parse(line); err == nil {
					return expr
				}
			} else if constraint.IsPlusBuild(line) {
				if expr, err := constraint.Parse(line); err == nil {
					if legacy == nil {
						legacy = expr
					} else {
						legacy = &constraint.AndExpr{X: legacy, Y: expr}
					}
				}
			}
		case strings.HasPrefix(line, "/*"):
			if !strings.Contains(line[2:], "*/") {
				inBlock = true
			}
		default:
			// First real code line is the package clause (or malformed
			// source the parser will reject anyway): constraints must
			// precede it, so stop scanning.
			return legacy
		}
	}
	return legacy
}

// defaultTagOK is the tag truth assignment of the default build:
// host platform and toolchain tags hold, custom tags do not.
func defaultTagOK(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, runtime.Compiler:
		return true
	case "unix":
		// Close enough for the platforms this module targets; the full
		// unix set (go/build's unixOS) differs only on exotic ports.
		switch runtime.GOOS {
		case "aix", "darwin", "dragonfly", "freebsd", "linux", "netbsd", "openbsd", "solaris":
			return true
		}
		return false
	default:
		// Any released language version the running toolchain supports.
		return strings.HasPrefix(tag, "go1.")
	}
}
