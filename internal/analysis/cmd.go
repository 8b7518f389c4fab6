package analysis

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// CLIMain implements the cardopc-vet command: it loads the module
// containing the target directory, runs the analyzer suite and prints
// diagnostics. Exit codes: 0 clean, 1 diagnostics reported, 2 usage or
// load failure. It is a plain function over writers so CI, humans and
// the smoke test all consume the same binary logic.
func CLIMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cardopc-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut = fs.Bool("json", false, "emit diagnostics as a JSON array")
		only    = fs.String("only", "", "comma-separated analyzer names to run (default: all)")
		list    = fs.Bool("analyzers", false, "list available analyzers and exit")
	)
	fs.Usage = func() {
		fprintf(stderr, "usage: cardopc-vet [flags] [dir]\n\nRuns the CardOPC static-analysis suite over the module containing dir\n(default \".\"). The conventional invocation is:\n\n\tgo run ./cmd/cardopc-vet ./...\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range All() {
			fprintf(stdout, "%-13s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := All()
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := ByName(name)
			if !ok {
				fprintf(stderr, "cardopc-vet: unknown analyzer %q (try -analyzers)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	dir := "."
	switch fs.NArg() {
	case 0:
	case 1:
		// "./..." is the conventional whole-module spelling; any
		// directory argument selects the module containing it.
		dir = strings.TrimSuffix(fs.Arg(0), "...")
		dir = strings.TrimSuffix(dir, "/")
		if dir == "" {
			dir = "."
		}
	default:
		fs.Usage()
		return 2
	}

	root, err := FindModuleRoot(dir)
	if err != nil {
		fprintf(stderr, "cardopc-vet: %v\n", err)
		return 2
	}

	mod, err := LoadModule(root)
	if err != nil {
		fprintf(stderr, "cardopc-vet: %v\n", err)
		return 2
	}
	diags := Run(mod, analyzers)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fprintf(stderr, "cardopc-vet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fprintf(stdout, "%v\n", d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fprintf(stderr, "cardopc-vet: %d diagnostic(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// FindModuleRoot walks up from dir to the nearest directory holding a
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if fileExists(filepath.Join(d, "go.mod")) {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}

// fprintf writes best-effort console output; a failure to print a
// diagnostic is not itself diagnosable, so the error is explicitly
// discarded.
func fprintf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func fileExists(path string) bool {
	info, err := os.Stat(path)
	return err == nil && !info.IsDir()
}
