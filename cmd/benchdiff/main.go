// Command benchdiff gates the repo's tracked hot-path benchmarks: it
// measures the working tree beside a git revision on the same host, in
// the same run, and fails when the change is slower or allocates more.
//
//	benchdiff check [-base REV] [-count N] [-cpu N] [-bench-out F] [-json-out F] [-md-out F]
//
// check unpacks REV's tree (default HEAD) into a temporary directory,
// runs perf.TrackedSet in the working tree and in REV's tree one sample
// at a time with alternating order (perf.RunPair), compares the change's
// medians with the base's, prints the report and exits 0 when nothing
// regressed or vanished, 1 when something did, and 2 on any error.
// -input and -base-input compare two captured `go test -bench` outputs
// instead of running anything; -bench-out writes the change's raw output
// to its file and the base's to the same name plus ".base", the pair
// they read back.
//
// See DESIGN.md "Performance tracking" for tolerance semantics and the
// CI wiring.
package main

import (
	"archive/tar"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"cardopc/internal/analysis"
	"cardopc/internal/perf"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	switch args[0] {
	case "check":
		return check(args[1:])
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "benchdiff: unknown subcommand %q\n", args[0])
		usage()
		return 2
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: benchdiff check [flags]

check    run the tracked benchmarks in the working tree and in -base's
         tree, alternating; exit 1 on a regression or a vanished benchmark

Run 'benchdiff check -h' for flags.
`)
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
	return 2
}

func check(args []string) int {
	fs := flag.NewFlagSet("benchdiff check", flag.ContinueOnError)
	def := perf.DefaultRunOptions()
	rev := fs.String("base", "HEAD", "git revision whose tree the working tree is measured against")
	input := fs.String("input", "", "read the change's go test -bench output from this file instead of running (with -base-input)")
	baseInput := fs.String("base-input", "", "read the base's go test -bench output from this file instead of running (with -input)")
	count := fs.Int("count", def.Count, "samples per benchmark in each tree")
	cpu := fs.Int("cpu", def.CPU, "pinned GOMAXPROCS (-test.cpu) for stable numbers")
	benchOut := fs.String("bench-out", "", "write the change's raw bench output to this file and the base's to this file + \".base\"")
	jsonOut := fs.String("json-out", "", "also write the comparison as JSON to this file")
	mdOut := fs.String("md-out", "", "also write the comparison as markdown to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var headRaw, baseRaw []byte
	var err error
	if *input != "" || *baseInput != "" {
		if *input == "" || *baseInput == "" {
			return fail(errors.New("-input and -base-input go together"))
		}
		if headRaw, err = os.ReadFile(*input); err != nil {
			return fail(err)
		}
		if baseRaw, err = os.ReadFile(*baseInput); err != nil {
			return fail(err)
		}
	} else {
		root, err := analysis.FindModuleRoot(".")
		if err != nil {
			return fail(err)
		}
		err = withTree(root, *rev, func(dir string) error {
			var err error
			headRaw, baseRaw, err = perf.RunPair(perf.TrackedSet(), root, dir,
				perf.RunOptions{Count: *count, CPU: *cpu, Log: os.Stderr})
			return err
		})
		if err != nil {
			return fail(err)
		}
	}
	if *benchOut != "" {
		if err := os.WriteFile(*benchOut, headRaw, 0o644); err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*benchOut+".base", baseRaw, 0o644); err != nil {
			return fail(err)
		}
	}

	head, err := perf.Parse(bytes.NewReader(headRaw))
	if err != nil {
		return fail(err)
	}
	if len(head.Names) == 0 {
		return fail(errors.New("the change's run has no benchmark lines"))
	}
	base, err := perf.Parse(bytes.NewReader(baseRaw))
	if err != nil {
		return fail(err)
	}
	cmp := perf.Compare(head, base, perf.DefaultTolerances())

	if *jsonOut != "" {
		if err := writeWith(*jsonOut, cmp.WriteJSON); err != nil {
			return fail(err)
		}
	}
	if *mdOut != "" {
		if err := writeWith(*mdOut, cmp.WriteMarkdown); err != nil {
			return fail(err)
		}
	}
	if err := cmp.WriteText(os.Stdout); err != nil {
		return fail(err)
	}

	if n := len(cmp.Regressions()); n > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d benchmark(s) regressed beyond tolerance\n", n)
		return 1
	}
	if n := len(cmp.Vanished()); n > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d benchmark(s) the base ran vanished from the change's run\n", n)
		return 1
	}
	return 0
}

// withTree unpacks rev's tree from the git repository at root into a
// temporary directory, calls fn with that directory, and removes it
// when fn returns.
func withTree(root, rev string, fn func(dir string) error) error {
	dir, err := os.MkdirTemp("", "benchdiff-base-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cmd := exec.Command("git", "archive", "--format=tar", rev)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("git archive: %w", err)
	}
	uerr := untar(stdout, dir)
	_, _ = io.Copy(io.Discard, stdout) // drain what untar left unread so git can exit
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("git archive %s: %w: %s", rev, err, strings.TrimSpace(stderr.String()))
	}
	if uerr != nil {
		return fmt.Errorf("unpacking %s: %w", rev, uerr)
	}
	return fn(dir)
}

// untar writes the directories and regular files of a tar stream under
// dir. It skips the pax global header git archive puts first (it holds
// the commit id) and rejects any other entry type, and any name that
// would land outside dir.
func untar(r io.Reader, dir string) error {
	tr := tar.NewReader(r)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if h.Typeflag == tar.TypeXGlobalHeader {
			continue
		}
		if !filepath.IsLocal(h.Name) {
			return fmt.Errorf("entry %q is outside the tree", h.Name)
		}
		path := filepath.Join(dir, h.Name)
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeReg:
			err = writeFile(path, tr, os.FileMode(h.Mode).Perm())
		default:
			err = fmt.Errorf("entry %q has unsupported type %q", h.Name, h.Typeflag)
		}
		if err != nil {
			return err
		}
	}
}

// writeFile copies r into a new file at path; git archive lists every
// directory before the files in it.
func writeFile(path string, r io.Reader, perm os.FileMode) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		_ = f.Close() // the copy error is the interesting one
		return err
	}
	return f.Close()
}

// writeWith streams a renderer into path.
func writeWith(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		_ = f.Close() // the render error is the interesting one
		return err
	}
	return f.Close()
}
