// Command cardopc-vet runs CardOPC's project-specific static-analysis
// suite (internal/analysis) over the module — syntactic passes
// (floatcmp, nanguard, errcheck-lite, bufalias, unitcheck, detorder),
// the CFG-based dataflow passes (poolcheck, noalloc, obsguard), and the
// interprocedural passes built on the module call graph and
// per-function summaries (ctxflow, nonblock; poolcheck also consults
// the summaries to follow pooled values through helpers). Every run
// loads and type-checks the whole module and runs the suite; inline
// //cardopc:allow directives are its only exceptions. It is the same gate
// selfcheck_test.go enforces under `go test ./...`, exposed as a
// binary so CI and humans share one tool.
//
// Usage:
//
//	go run ./cmd/cardopc-vet ./...
//	go run ./cmd/cardopc-vet -only=floatcmp,nanguard ./...
//	go run ./cmd/cardopc-vet -json ./... | jq .
//
// Exit status: 0 when clean, 1 when diagnostics were reported, 2 on
// usage or load errors.
package main

import (
	"os"

	"cardopc/internal/analysis"
)

func main() {
	os.Exit(analysis.CLIMain(os.Args[1:], os.Stdout, os.Stderr))
}
