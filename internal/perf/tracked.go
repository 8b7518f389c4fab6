package perf

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// Tracked names one package's slice of the curated tracked set: the
// hot-path micro-benchmarks cheap enough to run with -count=5 in CI.
// The heavyweight paper-artefact benches at the module root
// (BenchmarkTable1 …) stay out of the gate — they regenerate whole
// evaluation tables and are minutes-per-sample; EXPERIMENTS.md covers
// their numbers instead.
type Tracked struct {
	// Pkg is the package path relative to the module root.
	Pkg string
	// Pattern is the -bench regexp selecting the tracked benchmarks.
	Pattern string
	// Benchtime, when non-empty, overrides the default 100ms budget for
	// this package. Coarse benchmarks need it: at ~70 ms/op the default
	// yields b.N=2, too few iterations for per-op allocation metrics to
	// amortize background activity, so their B/op flaps. A fixed "Nx"
	// iteration count keeps those metrics comparable.
	Benchtime string
}

// TrackedSet returns the curated hot-path set, one entry per package:
// FFT transforms (complex and real-input, and the 64² kernel transform
// the SOCS sweep runs 23 times per imaging call), aerial
// image + adjoint gradient (the OPC/ILT cost evaluation) plus the
// three-corner process window and the half-spectrum mask transform,
// raster fill and marching squares (mask ↔ field conversion), R-tree
// build/search (MRC neighbour queries), spline evaluation
// (control-point connection), MRC resolve, the cardopc-vet dataflow
// and interprocedural layers (the CI gate's own analysis cost, without
// the stdlib type-check that dominates a run), scoped telemetry emission
// (the per-record price on cardopcd's emit path, disabled and enabled),
// and the cardopcd service round-trip (submit → poll → done on a warm
// daemon, reporting req/s and p99-ms alongside ns/op).
func TrackedSet() []Tracked {
	return []Tracked{
		{Pkg: "./internal/analysis", Pattern: "^(BenchmarkVetDataflow|BenchmarkVetInterproc)$"},
		{Pkg: "./internal/obs", Pattern: "^BenchmarkEmitScoped$"},
		{Pkg: "./internal/fft", Pattern: "^(BenchmarkForward1024|BenchmarkForward2_256|BenchmarkRealForward2_256|BenchmarkInverse2_64)$"},
		{Pkg: "./internal/litho", Pattern: "^(BenchmarkAerial256|BenchmarkGradient256|BenchmarkAerialAll512|BenchmarkMaskFreqReal)$"},
		{Pkg: "./internal/raster", Pattern: "^(BenchmarkFillPolygon|BenchmarkMarchingSquares)$"},
		{Pkg: "./internal/rtree", Pattern: "^(BenchmarkSTRBuild1000|BenchmarkSearch1000)$"},
		{Pkg: "./internal/spline", Pattern: "^BenchmarkLoopSample$"},
		{Pkg: "./internal/mrc", Pattern: "^BenchmarkResolveSpacing$"},
		{Pkg: "./internal/server", Pattern: "^BenchmarkServeClip$", Benchtime: "15x"},
	}
}

// RunOptions configures RunPair.
type RunOptions struct {
	// Count is how many samples each tree takes of every benchmark
	// (>=3 for a meaningful median).
	Count int
	// CPU pins GOMAXPROCS via -test.cpu for stable, comparable numbers.
	CPU int
	// Log, when non-nil, receives each sample's raw output as it
	// arrives, under a line naming the tree, package and round.
	Log io.Writer
}

// DefaultRunOptions match the Makefile bench-check target and the CI
// bench job: 5 samples per tree at GOMAXPROCS=4.
func DefaultRunOptions() RunOptions {
	return RunOptions{Count: 5, CPU: 4}
}

// benchtime is the per-sample budget of every tracked package without a
// Tracked.Benchtime of its own.
const benchtime = "100ms"

// RunPair measures set in two checkouts of the module, head (the change)
// and base (what it is judged against), and returns each tree's
// concatenated `go test -bench` output. It builds every package's test
// binary once per tree, then takes opt.Count rounds; a round runs one
// -count 1 sample of each package in both trees back to back,
// alternating which tree goes first, so a phase of host noise lands on
// both sides alike. Benchmarks run with -run ^$ so no unit tests
// execute, and with -benchmem so allocation metrics are always present.
// A package whose directory is missing from base runs in head only; any
// other build or run failure is an error (the gate must not pass on a
// package that fails to build).
func RunPair(set []Tracked, head, base string, opt RunOptions) (headOut, baseOut []byte, err error) {
	bins, err := os.MkdirTemp("", "benchdiff-bin-")
	if err != nil {
		return nil, nil, fmt.Errorf("perf: %w", err)
	}
	defer os.RemoveAll(bins)

	trees := [2]string{head, base}
	var exe [2][]string // exe[side][i] runs set[i] in trees[side]; "" when absent
	for side, tree := range trees {
		exe[side] = make([]string, len(set))
		for i, t := range set {
			if side == 1 {
				if _, err := os.Stat(filepath.Join(tree, t.Pkg)); errors.Is(err, fs.ErrNotExist) {
					continue
				}
			}
			bin := filepath.Join(bins, fmt.Sprintf("%d-%d.test", side, i))
			// -trimpath keys the build cache by import path, not by the
			// tree's directory, so the base's unchanged packages reuse
			// head's objects and identical sources link identical binaries.
			cmd := exec.Command("go", "test", "-c", "-trimpath", "-o", bin, t.Pkg)
			cmd.Dir = tree
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, nil, fmt.Errorf("perf: building %s in %s: %w", t.Pkg, tree, err)
			}
			exe[side][i] = bin
		}
	}

	name := [2]string{"head", "base"}
	var out [2]bytes.Buffer
	for round := 0; round < opt.Count; round++ {
		for i, t := range set {
			first := (round + i) % 2
			for _, side := range [2]int{first, 1 - first} {
				if exe[side][i] == "" {
					continue
				}
				var w io.Writer = &out[side]
				if opt.Log != nil {
					// A broken log also fails the sample's own write below.
					_, _ = fmt.Fprintf(opt.Log, "benchdiff: %s %s round %d/%d\n", name[side], t.Pkg, round+1, opt.Count)
					w = io.MultiWriter(w, opt.Log)
				}
				if err := runSample(exe[side][i], filepath.Join(trees[side], t.Pkg), t, opt.CPU, w); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return out[0].Bytes(), out[1].Bytes(), nil
}

// runSample runs one -count 1 sample of t's benchmarks from the test
// binary bin, in the package directory dir so testdata paths resolve.
func runSample(bin, dir string, t Tracked, cpu int, w io.Writer) error {
	bt := benchtime
	if t.Benchtime != "" {
		bt = t.Benchtime
	}
	args := []string{
		"-test.run=^$",
		"-test.bench=" + t.Pattern,
		"-test.benchmem",
		"-test.count=1",
		"-test.benchtime=" + bt,
		"-test.timeout=10m", // go test's default; a binary run directly has none
	}
	if cpu > 0 {
		args = append(args, "-test.cpu="+strconv.Itoa(cpu))
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Stdout = w
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("perf: -bench %s in %s: %w", t.Pattern, dir, err)
	}
	return nil
}
