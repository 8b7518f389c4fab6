package perf

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
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
	// Benchtime, when non-empty, overrides RunOptions.Benchtime for this
	// package. Coarse benchmarks need it: at ~70 ms/op the global 100ms
	// budget yields b.N=2, too few iterations for per-op allocation
	// metrics to amortize background activity, so their B/op flaps. A
	// fixed "Nx" iteration count keeps those metrics comparable.
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

// RunOptions configures a tracked-set run.
type RunOptions struct {
	// Count is the -count sample count (>=3 for a meaningful median).
	Count int
	// Benchtime is passed as -benchtime (e.g. "100ms", "20x").
	Benchtime string
	// CPU pins GOMAXPROCS via -cpu for stable, comparable numbers.
	CPU int
	// Dir is the working directory (module root); "" means inherit.
	Dir string
	// Log, when non-nil, receives the raw go test stream as it arrives
	// (tee for CI artifacts).
	Log io.Writer
}

// DefaultRunOptions match the Makefile bench-check target and the CI
// bench job: 5 samples, a short fixed benchtime, GOMAXPROCS=4.
func DefaultRunOptions() RunOptions {
	return RunOptions{Count: 5, Benchtime: "100ms", CPU: 4}
}

// RunTracked shells out to `go test` for each tracked package and
// returns the concatenated raw bench output. Benchmarks run with -run ^$
// so no unit tests execute, and with -benchmem so allocation metrics are
// always present. A non-zero go test exit is an error (the bench gate
// must not silently pass on a package that fails to build).
func RunTracked(set []Tracked, opt RunOptions) ([]byte, error) {
	if opt.Count < 1 {
		opt.Count = 1
	}
	var out bytes.Buffer
	for _, t := range set {
		args := []string{
			"test", "-run", "^$",
			"-bench", t.Pattern,
			"-benchmem",
			"-count", strconv.Itoa(opt.Count),
		}
		benchtime := opt.Benchtime
		if t.Benchtime != "" {
			benchtime = t.Benchtime
		}
		if benchtime != "" {
			args = append(args, "-benchtime", benchtime)
		}
		if opt.CPU > 0 {
			args = append(args, "-cpu", strconv.Itoa(opt.CPU))
		}
		args = append(args, t.Pkg)

		cmd := exec.Command("go", args...)
		cmd.Dir = opt.Dir
		var w io.Writer = &out
		if opt.Log != nil {
			w = io.MultiWriter(&out, opt.Log)
		}
		cmd.Stdout = w
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("perf: go test -bench %s %s: %w", t.Pattern, t.Pkg, err)
		}
	}
	return out.Bytes(), nil
}
