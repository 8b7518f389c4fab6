package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cardopc/internal/layout"
)

// serve_mix: a cardopcd with two executors, fed 90% clip jobs and 10%
// ilt jobs at 128 px @ 16 nm by four closed-loop clients. The only
// workload where admission, the queue, the executors, the process
// cache, the batch funnel and event routing matter; the 128 px sweep is
// where a litho gain shows least, and the ilt jobs hold up the clip
// jobs queued behind them.
const (
	serveGrid      = 128
	servePitchNM   = 16
	serveClipIters = 4
	serveILTIters  = 10
	// iltEvery puts exactly one ilt job, at a seeded slot, in every block
	// of iltEvery jobs, so each run carries the same mix.
	iltEvery = 10
	// clients is the closed-loop client count: twice the executors, so
	// two jobs always wait in the queue and concurrent clip measurements
	// can share a kernel sweep. Each client holds one connection.
	clients = 4
	// daemonBoots is how many times a run boots the daemon to measure
	// setup_s; the last boot serves the run.
	daemonBoots = 9
	// warmupS is the untimed warm-up (FFT plans, pools, connections).
	warmupS = 1.0
)

// jobView is the part of the daemon's job JSON the benchmark reads.
type jobView struct {
	ID          string    `json:"id"`
	Kind        string    `json:"kind"`
	Status      string    `json:"status"`
	Error       string    `json:"error"`
	SubmittedAt time.Time `json:"submitted_at"`
	QueueMS     float64   `json:"queue_ms"`
	RunMS       float64   `json:"run_ms"`
	Result      *struct {
		ControlPoints int     `json:"control_points"`
		EPESumNM      float64 `json:"epe_sum_nm"`
		PVBNM2        float64 `json:"pvb_nm2"`
		ILTLoss       float64 `json:"ilt_loss"`
	} `json:"result"`
}

// finish is when the daemon finished the job, on its wall clock.
func (v jobView) finish() time.Time {
	return v.SubmittedAt.Add(time.Duration((v.QueueMS + v.RunMS) * float64(time.Millisecond)))
}

// check reports why a finished job's output is unacceptable ("" if fine).
func (v jobView) check() string {
	switch {
	case v.Status != "done":
		return fmt.Sprintf("job %s (%s) ended %s: %s", v.ID, v.Kind, v.Status, v.Error)
	case v.Result == nil:
		return fmt.Sprintf("job %s (%s) has no result", v.ID, v.Kind)
	}
	for _, x := range []float64{v.Result.EPESumNM, v.Result.PVBNM2, v.Result.ILTLoss} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Sprintf("job %s (%s) has a non-finite result", v.ID, v.Kind)
		}
	}
	return ""
}

// jobSpecs builds the request bodies of every job the mix can send:
// each testcase's inline targets as a clip job and as an ilt job.
func jobSpecs(short bool) (clipJobs, iltJobs [][]byte, err error) {
	iters, iltIters := serveClipIters, serveILTIters
	if short {
		iters, iltIters = 2, 2
	}
	var clips []layout.Clip
	for i := 1; i <= layout.NumViaClips; i++ {
		clips = append(clips, layout.ViaClip(i))
	}
	for i := 1; i <= layout.NumMetalClips; i++ {
		clips = append(clips, layout.MetalClip(i))
	}
	for _, c := range clips {
		layer := "via"
		if strings.HasPrefix(c.Name, "M") {
			layer = "metal"
		}
		targets := make([][][2]float64, len(c.Targets))
		for i, p := range c.Targets {
			targets[i] = make([][2]float64, len(p))
			for k, v := range p {
				targets[i][k] = [2]float64{v.X, v.Y}
			}
		}
		spec := map[string]any{
			"kind": "clip", "targets": targets, "size_nm": c.SizeNM, "layer": layer,
			"iters": iters, "grid": serveGrid, "pitch_nm": servePitchNM,
		}
		b, err := json.Marshal(spec)
		if err != nil {
			return nil, nil, err
		}
		clipJobs = append(clipJobs, b)
		spec["kind"], spec["iters"] = "ilt", iltIters
		if b, err = json.Marshal(spec); err != nil {
			return nil, nil, err
		}
		iltJobs = append(iltJobs, b)
	}
	return clipJobs, iltJobs, nil
}

// jobMix draws the seeded job sequence. Testcases are dealt from
// shuffled decks, so any stretch of jobs covers the testcases evenly
// and the seed changes the order of the work, not its amount.
type jobMix struct {
	rng       *rand.Rand
	clips     deck
	ilts      deck
	n, iltPos int
	mu        sync.Mutex
}

// deck deals its cards in a fresh seeded order each time round.
type deck struct {
	cards [][]byte
	order []int
}

func (d *deck) deal(rng *rand.Rand) []byte {
	if len(d.order) == 0 {
		d.order = rng.Perm(len(d.cards))
	}
	c := d.cards[d.order[0]]
	d.order = d.order[1:]
	return c
}

func newJobMix(seed int64, clips, ilts [][]byte) *jobMix {
	return &jobMix{rng: rand.New(rand.NewSource(seed)), clips: deck{cards: clips}, ilts: deck{cards: ilts}}
}

func (m *jobMix) next() (body []byte, ilt bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n%iltEvery == 0 {
		m.iltPos = m.rng.Intn(iltEvery)
	}
	ilt = m.n%iltEvery == m.iltPos
	m.n++
	if ilt {
		return m.ilts.deal(m.rng), true
	}
	return m.clips.deal(m.rng), false
}

// daemon is a running cardopcd.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	drained chan struct{} // closed once the daemon's stdout reaches EOF
}

// startDaemon execs cardopcd and returns once it has printed its
// listening line, with the seconds that took.
func startDaemon(path string) (*daemon, float64, error) {
	cmd := exec.Command(path, "-addr", "127.0.0.1:0", "-workers", "2", "-warm=false",
		"-warm-grid", strconv.Itoa(serveGrid), "-warm-pitch", strconv.Itoa(servePitchNM))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, fmt.Errorf("daemon stdout: %w", err)
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start daemon: %w", err)
	}
	sc := bufio.NewScanner(out)
	url := ""
	for url == "" && sc.Scan() {
		url, _ = strings.CutPrefix(sc.Text(), "cardopcd listening on ")
	}
	bootS := time.Since(t0).Seconds()
	d := &daemon{cmd: cmd, url: url, drained: make(chan struct{})}
	go func() {
		defer close(d.drained)
		_, _ = io.Copy(io.Discard, out) // keep the daemon's later lines from blocking it
	}()
	if url == "" {
		err := d.stop()
		return nil, 0, fmt.Errorf("daemon exited before listening: %v", err)
	}
	return d, bootS, nil
}

// stop sends SIGTERM, which makes the daemon drain and exit, and waits
// for it; a daemon that has not exited after 30 s is killed. A daemon
// signalled right after its listening line may not have installed its
// drain handler yet and dies of the SIGTERM itself, which counts as a
// clean stop.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited daemon is reaped below
	select {
	case <-d.drained:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	err := d.cmd.Wait()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	return err
}

// client talks to the daemon over at most one connection per client.
type client struct {
	base string
	http *http.Client
	rec  *recorder
}

func newClient(base string, rec *recorder) *client {
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, rec: rec}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do runs one request under a benchmark span and decodes a JSON body
// into v (if non-nil); it returns the status code.
func (c *client) do(track, unit int, name, method, path string, body []byte, v any) (int, error) {
	sp := c.rec.startOn(track, unit, name, layerHTTP)
	defer c.rec.stop(sp)
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if v == nil || resp.StatusCode >= 300 {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// submit POSTs one job. A 429 returns the code with no error.
func (c *client) submit(track, unit int, body []byte) (string, int, error) {
	var v jobView
	code, err := c.do(track, unit, "POST /v1/jobs", http.MethodPost, "/v1/jobs", body, &v)
	if err == nil && code != http.StatusAccepted && code != http.StatusTooManyRequests {
		err = fmt.Errorf("submit: HTTP %d", code)
	}
	return v.ID, code, err
}

// wait blocks until the job is terminal — its event stream ends then —
// and returns its final view.
func (c *client) wait(track, unit int, id string) (jobView, error) {
	var v jobView
	if _, err := c.do(track, unit, "GET /v1/jobs/{id}/events", http.MethodGet, "/v1/jobs/"+id+"/events", nil, nil); err != nil {
		return v, fmt.Errorf("events %s: %w", id, err)
	}
	code, err := c.do(track, unit, "GET /v1/jobs/{id}", http.MethodGet, "/v1/jobs/"+id, nil, &v)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("HTTP %d", code)
	}
	if err != nil {
		return v, fmt.Errorf("job %s: %w", id, err)
	}
	return v, nil
}

// promSnapshot is the registry part of /metrics.json.
type promSnapshot struct {
	Metrics struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count int64   `json:"count"`
			Sum   float64 `json:"sum"`
		} `json:"histograms"`
	} `json:"metrics"`
}

// totals extracts the tracked program spans.
func (s *promSnapshot) totals() progTotals {
	var p progTotals
	for i, n := range progSpans {
		h := s.Metrics.Histograms["span."+n+".ms"]
		p[i] = histTotal{Count: h.Count, MS: h.Sum}
	}
	return p
}

func (c *client) snapshot() (promSnapshot, error) {
	var s promSnapshot
	code, err := c.do(0, -1, "GET /metrics.json", http.MethodGet, "/metrics.json", nil, &s)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("HTTP %d", code)
	}
	if err != nil {
		return s, fmt.Errorf("metrics snapshot: %w", err)
	}
	return s, nil
}

// finished is one closed-loop job: its final view and its latency as
// the client saw it, from sending the job to its event stream closing.
type finished struct {
	view jobView
	latS float64
}

// closedLoop runs clients that each submit a job, wait for it and
// submit the next, until d has passed. It returns every finished job,
// the 429 count and the loop's length in seconds (to the last finish).
func closedLoop(c *client, mix *jobMix, d time.Duration, unit0 int) (jobs []finished, throttled int, elapsedS float64, err error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	next := unit0
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(track int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				body, _ := mix.next()
				mu.Lock()
				unit := next
				next++
				mu.Unlock()
				sent := time.Now()
				id, code, jobErr := c.submit(track, unit, body)
				if jobErr == nil && code == http.StatusTooManyRequests {
					mu.Lock()
					throttled++
					mu.Unlock()
					time.Sleep(100 * time.Millisecond)
					continue
				}
				var v jobView
				if jobErr == nil {
					v, jobErr = c.wait(track, unit, id)
				}
				latS := time.Since(sent).Seconds()
				mu.Lock()
				if jobErr != nil && err == nil {
					err = jobErr
				}
				if jobErr == nil {
					jobs = append(jobs, finished{view: v, latS: latS})
				}
				mu.Unlock()
				if jobErr != nil {
					return
				}
			}
		}(k + 1)
	}
	wg.Wait()
	return jobs, throttled, time.Since(t0).Seconds(), err
}

// runServe measures serve_mix: daemon boots for setup_s, a warm-up,
// then the closed loop for throughput (clips_per_min) and clip-job
// latency (clip_s_p50), every job's output checked.
func runServe(o options, log *bufio.Writer) (*result, error) {
	res := newResult(o.trace)
	clipJobs, iltJobs, err := jobSpecs(o.short)
	if err != nil {
		return nil, err
	}
	mix := newJobMix(o.seed, clipJobs, iltJobs)

	boots := make([]float64, daemonBoots)
	var d *daemon
	for i := range boots {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stop daemon: %w", err)
			}
		}
		if d, boots[i], err = startDaemon(o.daemon); err != nil {
			return nil, err
		}
	}
	err = measureServe(d, mix, o, res, log)
	if stopErr := d.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("stop daemon: %w", stopErr)
	}
	if err != nil {
		return nil, err
	}
	if !o.trace {
		res.set("setup_s", median(boots))
	}
	return res, nil
}

// measureServe runs the warm-up and the measured closed loop against d
// and fills res with everything but setup_s.
func measureServe(d *daemon, mix *jobMix, o options, res *result, log *bufio.Writer) error {
	var rec *recorder
	if o.trace {
		rec = newRecorder(nil)
	}
	c := newClient(d.url, rec)
	defer c.close()

	measured := time.Duration(o.seconds * float64(time.Second))
	warmup := time.Duration(warmupS * float64(time.Second))
	if o.short {
		measured, warmup = time.Second, 300*time.Millisecond
	}
	warm, _, _, err := closedLoop(c, mix, warmup, 0)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	base, err := c.snapshot()
	if err != nil {
		return err
	}
	jobs, throttled, elapsedS, err := closedLoop(c, mix, measured, len(warm))
	if err != nil {
		return fmt.Errorf("closed loop: %w", err)
	}
	end, err := c.snapshot()
	if err != nil {
		return err
	}
	rss, err := rssPeakMB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return err
	}

	res.Attempted = len(jobs) + throttled
	res.Failed = throttled
	views := make([]jobView, len(jobs))
	var clipLatS, iltLatS []float64
	for i, j := range jobs {
		views[i] = j.view
		if j.view.Kind == "ilt" {
			iltLatS = append(iltLatS, j.latS)
		} else {
			clipLatS = append(clipLatS, j.latS)
		}
	}
	for _, j := range warm {
		if p := j.view.check(); p != "" {
			res.fail("warm-up %s", p)
		}
	}
	for _, v := range views {
		if p := v.check(); p != "" {
			res.fail("%s", p)
			res.Failed++
		}
	}
	if len(clipLatS) == 0 {
		return errors.New("closed loop finished no clip job")
	}
	fmt.Fprintf(log, "serve_mix: seed %d, %d clients, %d jobs in %.2f s, %d throttled; clip job latency p50 %.3f s p90 %.3f s (%d), ilt job p50 %.3f s (%d)\n",
		o.seed, clients, len(jobs), elapsedS, throttled, median(clipLatS), quantile(clipLatS, 0.9), len(clipLatS), median(iltLatS), len(iltLatS))

	if o.trace {
		serveLayers(res, rec, base, end, views, log)
		if err := rec.writeChrome(o.traceOut); err != nil {
			return err
		}
		fmt.Fprintf(log, "trace written to %s\n", o.traceOut)
		return nil
	}
	res.set("clips_per_min", 60*float64(len(jobs))/elapsedS)
	res.set("clip_s_p50", median(clipLatS))
	res.set("rss_peak_mb", rss)
	return nil
}

// serveLayers derives the per-layer metrics of the measured jobs from
// the daemon's span histograms (the delta between two /metrics.json
// snapshots) and the jobs' own queue and run times. A job's time is its
// queue wait plus its run time; shares are of the jobs' summed time.
func serveLayers(res *result, rec *recorder, base, end promSnapshot, jobs []jobView, log *bufio.Writer) {
	prog := end.totals().sub(base.totals())
	counter := func(name string) int64 { return end.Metrics.Counters[name] - base.Metrics.Counters[name] }
	runMS, queueMS, ctrl := 0.0, 0.0, 0.0
	clips := 0
	for _, v := range jobs {
		runMS += v.RunMS
		queueMS += v.QueueMS
		if v.Kind == "clip" && v.Result != nil {
			clips++
			ctrl += float64(v.Result.ControlPoints)
		}
	}
	self := map[string]float64{}
	for _, lt := range splitProgram(prog) {
		self[lt.Layer] = lt.MS
	}
	// A three-corner sweep images its kernel groups concurrently, one
	// batch span each; count the overlapping spans at one group's length.
	if batch := prog.get("litho.batch_aerial"); batch.Count > 0 {
		self[layerLitho] -= batch.MS * (1 - float64(counter("server.batch.sweeps"))/float64(batch.Count))
	}
	// Each correction step rasterises once, takes one mask spectrum and
	// one aerial image; the rest of the step is core's.
	steps := prog.get("opc.step")
	self[layerCore] = max(0, steps.MS-prog.get("opc.rasterize").MS-
		float64(steps.Count)*(prog.meanMS("litho.mask_freq")+prog.meanMS("litho.aerial")))
	// An ILT step is its cached forward pass and gradient plus the
	// solver's own resist model and Adam update.
	self[layerILT] = max(0, prog.get("ilt.step").MS-prog.get("litho.aerial_cached").MS-prog.get("litho.gradient").MS)
	self[layerServer] = queueMS
	calls := map[string]int{
		layerCore:   int(steps.Count),
		layerLitho:  int(prog.get("litho.aerial").Count + prog.get("litho.aerial_cached").Count + prog.get("litho.batch_aerial").Count + prog.get("litho.gradient").Count),
		layerFFT:    int(prog.get("litho.mask_freq").Count),
		layerRaster: int(prog.get("opc.rasterize").Count + prog.get("raster.rasterize").Count),
		layerILT:    int(prog.get("ilt.step").Count),
		layerServer: len(jobs),
	}

	build := end.totals().get("litho.build_kernels")
	setLayerMetrics(res, prog, build, self, queueMS+runMS, len(jobs), counter("fft.inverse2"))
	res.set("core.ctrl_points", ctrl/float64(max(clips, 1)))
	res.set("server.wait_share", queueMS/(queueMS+runMS))
	res.set("server.coalesced_frac", float64(counter("server.batch.coalesced"))/float64(max(clips, 1)))
	printLayerTable(log, self, calls, len(jobs), queueMS+runMS, prog)
	rec.printSpanTable(log)
	fmt.Fprintf(log, "litho.proc_cache.miss after warm-up: %d\n", counter("litho.proc_cache.miss"))
}
