package server

import (
	"fmt"
	"sync"
	"time"

	"cardopc/internal/cli"
	"cardopc/internal/geom"
	"cardopc/internal/layout"
	"cardopc/internal/obs"
)

// JobSpec is the submit-time description of one correction job, as
// POSTed to /v1/jobs. Exactly one of Case and Targets selects the
// layout; everything else is optional with serving defaults.
type JobSpec struct {
	// Kind selects the flow: "clip" (default) runs single-window
	// CardOPC, "bigopc" runs the tiled large-layout driver, "ilt" runs
	// the pixel inverse-lithography solver.
	Kind string `json:"kind,omitempty"`
	// Case names a built-in testcase (V1..V13, M1..M10).
	Case string `json:"case,omitempty"`
	// Targets carries inline target polygons as [poly][vertex][x, y]
	// nanometre pairs, for callers correcting their own layouts.
	Targets [][][2]float64 `json:"targets,omitempty"`
	// SizeNM is the inline layout extent (defaults to the bounding box).
	SizeNM float64 `json:"size_nm,omitempty"`
	// Layer picks the preset: via, metal or large ("" = by case name).
	Layer string `json:"layer,omitempty"`
	// Iters overrides the preset iteration count.
	Iters int `json:"iters,omitempty"`
	// Grid and PitchNM override the simulation raster.
	Grid    int     `json:"grid,omitempty"`
	PitchNM float64 `json:"pitch_nm,omitempty"`
	// TimeoutMS caps the job's run time (0 = server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// TileNM/HaloNM/Workers tune the bigopc tiling (bigopc kind only).
	TileNM  float64 `json:"tile_nm,omitempty"`
	HaloNM  float64 `json:"halo_nm,omitempty"`
	Workers int     `json:"workers,omitempty"`
	// ReturnMask includes the corrected mask outlines in the result.
	ReturnMask bool `json:"return_mask,omitempty"`
}

// validate rejects malformed specs at submit time, so clients get a 400
// instead of a queued job that fails. It resolves the layout, preset and
// imaging config the same way the run path will.
func (s JobSpec) validate() error {
	switch s.Kind {
	case "", "clip", "bigopc", "ilt":
	default:
		return fmt.Errorf("unknown kind %q (want clip, bigopc or ilt)", s.Kind)
	}
	if s.Case == "" && len(s.Targets) == 0 {
		return fmt.Errorf("need case or targets")
	}
	if s.Case != "" && len(s.Targets) > 0 {
		return fmt.Errorf("use either case or targets, not both")
	}
	if s.Case != "" {
		if _, err := cli.BuiltinClip(s.Case); err != nil {
			return err
		}
	}
	for i, poly := range s.Targets {
		if len(poly) < 3 {
			return fmt.Errorf("target %d has %d vertices, need >= 3", i, len(poly))
		}
	}
	if _, err := cli.PickConfig(s.Layer, s.Case); err != nil {
		return err
	}
	if s.Iters < 0 || s.Grid < 0 || s.PitchNM < 0 || s.TimeoutMS < 0 {
		return fmt.Errorf("negative iters/grid/pitch/timeout")
	}
	return lithoConfig(s).Validate()
}

// clip resolves the spec's layout: the named built-in case, or the
// inline polygons wrapped in a synthetic clip.
func (s JobSpec) clip() (layout.Clip, error) {
	if s.Case != "" {
		return cli.BuiltinClip(s.Case)
	}
	clip := layout.Clip{Name: "inline", SizeNM: s.SizeNM}
	bounds := geom.EmptyRect()
	for _, poly := range s.Targets {
		p := make(geom.Polygon, len(poly))
		for i, v := range poly {
			p[i] = geom.P(v[0], v[1])
		}
		bounds = bounds.Union(p.Bounds())
		clip.Targets = append(clip.Targets, p)
	}
	if clip.SizeNM == 0 && !bounds.Empty() {
		clip.SizeNM = bounds.Max.X
		if bounds.Max.Y > clip.SizeNM {
			clip.SizeNM = bounds.Max.Y
		}
	}
	return clip, nil
}

// JobResult is the measured outcome of a finished job.
type JobResult struct {
	// ControlPoints and Iterations describe the correction run.
	ControlPoints int `json:"control_points"`
	Iterations    int `json:"iterations"`
	// EPE/PVB/L2 are the clip-flow metric suite (absent for bigopc,
	// whose layout exceeds one metrology window).
	EPESumNM      float64 `json:"epe_sum_nm,omitempty"`
	EPEProbes     int     `json:"epe_probes,omitempty"`
	EPEViolations int     `json:"epe_violations,omitempty"`
	PVBNM2        float64 `json:"pvb_nm2,omitempty"`
	L2Px          int     `json:"l2_px,omitempty"`
	// ILTLoss is the final pixel-ILT objective (ilt flow only).
	ILTLoss float64 `json:"ilt_loss,omitempty"`
	// Shapes and Tiles summarise the corrected geometry.
	Shapes int `json:"shapes"`
	Tiles  int `json:"tiles,omitempty"`
	// MaskPolys holds the corrected outlines when the spec asked for
	// them, in the same [poly][vertex][x, y] shape as JobSpec.Targets.
	MaskPolys [][][2]float64 `json:"mask_polys,omitempty"`
	// Metrics is the job's private metrics overlay: every counter,
	// gauge and histogram the compute recorded through the job's scope,
	// snapshotted at completion. Exact per-job attribution even with
	// concurrent executors — the process-wide registry only has
	// aggregates.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// Status is a job's lifecycle state.
type Status string

// Job lifecycle: queued → running → done | failed | cancelled.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Job is one tracked submission. Mutable fields are guarded by mu;
// snapshots for serving go through view().
type Job struct {
	id     string
	spec   JobSpec
	events *jobEvents

	mu        sync.Mutex
	status    Status
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    *JobResult
	cancel    func()

	// done closes when the job reaches a terminal status.
	done chan struct{}
}

// JobView is the JSON shape served for one job.
type JobView struct {
	ID          string     `json:"id"`
	Kind        string     `json:"kind"`
	Status      Status     `json:"status"`
	Error       string     `json:"error,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	QueueMS     float64    `json:"queue_ms,omitempty"`
	RunMS       float64    `json:"run_ms,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
}

// view snapshots the job for serving. It runs on the request path
// under j.mu, so it must never block.
//
//cardopc:nonblocking
func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	kind := j.spec.Kind
	if kind == "" {
		kind = "clip"
	}
	v := JobView{
		ID:          j.id,
		Kind:        kind,
		Status:      j.status,
		Error:       j.errMsg,
		SubmittedAt: j.submitted,
		Result:      j.result,
	}
	if !j.started.IsZero() {
		v.QueueMS = j.started.Sub(j.submitted).Seconds() * 1e3
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		v.RunMS = end.Sub(j.started).Seconds() * 1e3
	}
	return v
}

// setRunning transitions queued → running.
func (j *Job) setRunning(cancel func()) {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()
}

// finish transitions to a terminal status and wakes pollers.
func (j *Job) finish(st Status, res *JobResult, errMsg string) {
	j.mu.Lock()
	j.status = st
	j.result = res
	j.errMsg = errMsg
	j.finished = time.Now()
	j.cancel = nil
	j.mu.Unlock()
	close(j.done)
}

// Cancel requests cancellation: a queued job is marked cancelled
// outright (the executor skips it), a running one has its context
// cancelled. Terminal jobs are left alone. It reports whether the
// request changed anything.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	switch {
	case j.status == StatusQueued:
		j.status = StatusCancelled
		j.errMsg = "cancelled before start"
		j.finished = time.Now()
		j.mu.Unlock()
		close(j.done)
		j.events.close() // no executor will run it; end any tailers
		return true
	case j.status == StatusRunning && j.cancel != nil:
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
		return true
	default:
		j.mu.Unlock()
		return false
	}
}

// statusNow returns the current status.
//
//cardopc:nonblocking
func (j *Job) statusNow() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}
