package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cardopc/internal/obs"
)

// Layers, named after the repository's packages. Every benchmark-side
// span belongs to one; the program's own span histograms are folded in
// by splitProgram.
const (
	layerCore    = "core"
	layerLitho   = "litho"
	layerFFT     = "fft"
	layerRaster  = "raster" // spline sampling plus polygon fill
	layerMetrics = "metrics"
	layerMRC     = "mrc"
	layerILT     = "ilt"
	layerFit     = "fit"
	layerServer  = "server"
	layerHTTP    = "http"
	layerBench   = "bench" // the benchmark's own glue between calls
)

// tableLayers is the per-layer table's row order.
var tableLayers = []string{layerCore, layerLitho, layerFFT, layerRaster, layerMetrics, layerMRC, layerILT, layerFit, layerServer, layerHTTP, layerBench}

// progSpans are the program's own span histograms ("span.<name>.ms")
// the traced run reads to split time inside calls the benchmark cannot
// open up: Optimizer.Step, the ILT solve and the daemon's jobs.
var progSpans = [...]string{
	"opc.step", "opc.rasterize", "raster.rasterize",
	"litho.mask_freq", "litho.aerial", "litho.aerial_cached", "litho.batch_aerial",
	"litho.gradient", "litho.kernel", "litho.grad_kernel", "litho.build_kernels",
	"ilt.step", "mrc.check", "mrc.resolve",
}

// histTotal is one program histogram's count and sum (ms).
type histTotal struct {
	Count int64
	MS    float64
}

// progTotals holds every progSpans histogram, indexed like progSpans.
type progTotals [len(progSpans)]histTotal

func progIndex(name string) int {
	for i, n := range progSpans {
		if n == name {
			return i
		}
	}
	panic("cardopc-bench: untracked program span " + name)
}

// get returns the named histogram's totals.
func (p progTotals) get(name string) histTotal { return p[progIndex(name)] }

// sub returns p − q element-wise.
func (p progTotals) sub(q progTotals) progTotals {
	for i := range p {
		p[i].Count -= q[i].Count
		p[i].MS -= q[i].MS
	}
	return p
}

// readTotals snapshots the span histograms of an in-process registry.
func readTotals(reg *obs.Registry) progTotals {
	var p progTotals
	if reg == nil {
		return p
	}
	for i, n := range progSpans {
		h := reg.Histogram("span."+n+".ms", obs.TimeBucketsMS)
		p[i] = histTotal{Count: h.Count(), MS: h.Sum()}
	}
	return p
}

// meanMS is the mean duration of the named program span (0 if unseen).
func (p progTotals) meanMS(name string) float64 {
	h := p.get(name)
	if h.Count == 0 {
		return 0
	}
	return h.MS / float64(h.Count)
}

// splitProgram attributes program-span time to layers. Only top-level
// program spans count: litho.mask_freq nested inside litho.aerial_cached
// (one per cached forward pass) is moved from litho to fft, and the
// kernel spans, which run on worker goroutines inside the litho calls,
// are not wall time of their own.
func splitProgram(d progTotals) []layerTime {
	nestedFFT := min(d.get("litho.mask_freq").MS, float64(d.get("litho.aerial_cached").Count)*d.meanMS("litho.mask_freq"))
	return []layerTime{
		{layerRaster, d.get("opc.rasterize").MS + d.get("raster.rasterize").MS},
		{layerFFT, d.get("litho.mask_freq").MS},
		{layerLitho, d.get("litho.aerial").MS + d.get("litho.aerial_cached").MS + d.get("litho.batch_aerial").MS +
			d.get("litho.gradient").MS - nestedFFT},
	}
}

// layerTime is time (ms) attributed to one layer.
type layerTime struct {
	Layer string
	MS    float64
}

// span is one benchmark-side timed call.
type span struct {
	Name   string
	Layer  string
	Unit   int // clip or job ordinal, -1 outside any
	Parent int // index into recorder.spans, -1 for a root
	Track  int // Chrome trace "tid": 0 main flow, >0 concurrent clients
	Start  time.Duration
	End    time.Duration
	leaf   bool
	prog   progTotals // program-span totals at Start, then the delta over the span
}

// recorder keeps benchmark-side spans in memory during a traced run
// and writes them out at exit. A nil recorder records nothing, so the
// untraced run pays one nil check per call.
type recorder struct {
	reg   *obs.Registry // the traced process's private registry (nil for the daemon)
	epoch time.Time

	mu    sync.Mutex
	spans []span
	unit  int // current in-process clip ordinal
	clip  int // current in-process clip span
}

func newRecorder(reg *obs.Registry) *recorder {
	return &recorder{reg: reg, epoch: time.Now(), unit: -1, clip: -1}
}

// startClip opens the root span of one in-process clip; the leaf spans
// opened until the next startClip nest under it.
func (r *recorder) startClip(unit int, name string) int {
	if r == nil {
		return -1
	}
	id := r.open(span{Name: name, Layer: layerBench, Unit: unit, Parent: -1})
	r.mu.Lock()
	r.unit, r.clip = unit, id
	r.mu.Unlock()
	return id
}

// start opens a leaf span under the current in-process clip.
func (r *recorder) start(name, layer string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	s := span{Name: name, Layer: layer, Unit: r.unit, Parent: r.clip, leaf: true}
	r.mu.Unlock()
	return r.open(s)
}

// startOn opens a root span on a client track (the service workload).
func (r *recorder) startOn(track, unit int, name, layer string) int {
	if r == nil {
		return -1
	}
	return r.open(span{Name: name, Layer: layer, Unit: unit, Parent: -1, Track: track, leaf: true})
}

func (r *recorder) open(s span) int {
	if s.leaf {
		s.prog = readTotals(r.reg)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Start = time.Since(r.epoch)
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// stop closes span id (no-op for -1).
func (r *recorder) stop(id int) {
	if r == nil || id < 0 {
		return
	}
	end := time.Since(r.epoch)
	var after progTotals
	r.mu.Lock()
	leaf := r.spans[id].leaf
	r.mu.Unlock()
	if leaf {
		after = readTotals(r.reg)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.End = end
	if leaf {
		s.prog = after.sub(s.prog)
	}
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / float64(time.Millisecond) }

// layerSelf returns each layer's self time (ms) over the recorded spans:
// a span's duration minus its child spans, with program-span time inside
// a leaf span moved to the layer that owns it.
func (r *recorder) layerSelf() (self map[string]float64, calls map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	self, calls = map[string]float64{}, map[string]int{}
	childMS := make([]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			childMS[s.Parent] += s.ms()
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		own := s.ms() - childMS[i]
		if s.leaf && r.reg != nil {
			for _, lt := range splitProgram(s.prog) {
				if lt.Layer != s.Layer {
					self[lt.Layer] += lt.MS
					own -= lt.MS
				}
			}
		}
		self[s.Layer] += max(own, 0)
		calls[s.Layer]++
	}
	return self, calls
}

// spanSplit returns how many spans named name were recorded and their
// total time by layer: program-span time under its layer, the rest
// under the span's own.
func (r *recorder) spanSplit(name string) (int, []layerTime) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	var parts []layerTime
	for i := range r.spans {
		s := &r.spans[i]
		if s.Name != name {
			continue
		}
		split := splitProgram(s.prog)
		if parts == nil {
			parts = append(split, layerTime{Layer: s.Layer})
			for k := range split {
				parts[k].MS = 0
			}
		}
		own := s.ms()
		for k, lt := range split {
			parts[k].MS += lt.MS
			own -= lt.MS
		}
		parts[len(split)].MS += own
		n++
	}
	return n, parts
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// Perfetto and chrome://tracing): complete events with the layer, unit
// and parent span as args.
func (r *recorder) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace: %w", err)
	}
	defer f.Close()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Track,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": i, "layer": s.Layer, "unit": s.Unit, "parent": s.Parent},
		}
	}
	r.mu.Unlock()
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": events}); err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// printLayerTable prints calls, self time, time per unit and share of
// the units' wall time for every layer, then the program span
// histograms the split was taken from.
func printLayerTable(w *bufio.Writer, self map[string]float64, calls map[string]int, units int, wallMS float64, prog progTotals) {
	fmt.Fprintf(w, "per-layer self time over %d units, %.1f ms unit wall time:\n", units, wallMS)
	fmt.Fprintf(w, "  %-8s %8s %12s %12s %7s\n", "layer", "calls", "self_ms", "ms/unit", "share")
	for _, l := range tableLayers {
		fmt.Fprintf(w, "  %-8s %8d %12.1f %12.2f %6.1f%%\n", l, calls[l], self[l], self[l]/float64(max(units, 1)), 100*self[l]/wallMS)
	}
	fmt.Fprintln(w, "program span histograms:")
	fmt.Fprintf(w, "  %-22s %8s %12s %10s\n", "span", "count", "total_ms", "mean_ms")
	names := append([]string(nil), progSpans[:]...)
	sort.Strings(names)
	for _, n := range names {
		h := prog.get(n)
		fmt.Fprintf(w, "  %-22s %8d %12.1f %10.3f\n", n, h.Count, h.MS, prog.meanMS(n))
	}
}

// printSpanTable prints the count, total and mean time of every
// benchmark span name: per public call in the offline workloads, per
// HTTP request kind in serve_mix.
func (r *recorder) printSpanTable(w *bufio.Writer) {
	type agg struct {
		n  int
		ms float64
	}
	by := map[string]*agg{}
	r.mu.Lock()
	for i := range r.spans {
		s := &r.spans[i]
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.ms += s.ms()
	}
	r.mu.Unlock()
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "benchmark spans:")
	fmt.Fprintf(w, "  %-34s %8s %12s %10s\n", "span", "count", "total_ms", "mean_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "  %-34s %8d %12.1f %10.3f\n", n, a.n, a.ms, a.ms/float64(a.n))
	}
}
