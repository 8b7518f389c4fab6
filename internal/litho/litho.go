// Package litho implements the Hopkins-model lithography simulator that
// drives CardOPC (paper Eq. 1):
//
//	I(x,y) = Σ_k w_k |M(x,y) ⊗ h_k(x,y)|²
//
// The optical kernels h_k are generated by Abbe source-point decomposition
// of a partially coherent 193 nm immersion scanner: each discretised point
// of the (annular) illumination source contributes one coherent system whose
// transfer function is the projector pupil shifted by the source frequency,
// optionally aberrated by defocus. This is mathematically the
// sum-of-coherent-systems (SOCS) form the ICCAD-13 contest kernels take, so
// the simulator exercises exactly the code path the paper's experiments use,
// with realistic proximity effects (corner rounding, line-end pullback,
// iso-dense bias).
//
// It substitutes for the ICCAD-13 kernel files and for Calibre's simulator,
// neither of which is available here (see DESIGN.md).
package litho

import (
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
	"sync"

	"cardopc/internal/fft"
	"cardopc/internal/geom"
	"cardopc/internal/obs"
	"cardopc/internal/raster"
)

// Config describes the imaging system and raster.
type Config struct {
	// GridSize is the raster dimension in pixels; must be a power of two.
	GridSize int
	// PitchNM is the pixel pitch in nanometres.
	PitchNM float64
	// WavelengthNM is the exposure wavelength (193 for ArF).
	WavelengthNM float64
	// NA is the numerical aperture of the projector (1.35 immersion).
	NA float64
	// SigmaIn and SigmaOut bound the annular illumination source in pupil
	// (sigma) coordinates. SigmaIn = 0 gives a conventional disc source.
	SigmaIn, SigmaOut float64
	// SourceRings is the number of radial rings used to discretise the
	// source; each ring carries points proportional to its circumference.
	// More rings = more kernels N_h = higher fidelity and cost.
	SourceRings int
	// Threshold is the resist intensity threshold (clear-field normalised).
	Threshold float64
	// DefocusNM applies a paraxial defocus aberration to every kernel.
	DefocusNM float64
	// Dose scales exposure intensity; printing compares Dose·I >= Threshold.
	Dose float64
}

// DefaultConfig returns the settings used by the experiments: a 193 nm
// NA 1.35 annular-illumination imager on a 512×512, 4 nm/px raster with the
// ICCAD-13 resist threshold.
func DefaultConfig() Config {
	return Config{
		GridSize:     512,
		PitchNM:      4,
		WavelengthNM: 193,
		NA:           1.35,
		SigmaIn:      0.6,
		SigmaOut:     0.8,
		SourceRings:  2,
		Threshold:    0.225,
		DefocusNM:    0,
		Dose:         1,
	}
}

// Simulator computes aerial images for masks on a fixed raster. It is safe
// for concurrent use once constructed.
type Simulator struct {
	cfg     Config
	grid    raster.Grid
	band    band      // support geometry shared by every kernel
	kernels []*kernel // H_k over their support boxes
	weights []float64 // w_k, normalised to Σw = 1
}

// WithDefaults returns c with unset optional fields replaced by their
// defaults: a zero Dose means "not specified" in a struct literal and
// becomes the nominal dose 1. Apply it before Validate at every config
// entry point that accepts partially-specified configs; Validate itself
// rejects a literal zero dose, so a config that skipped normalisation
// fails loudly instead of imaging all-dark.
func (c Config) WithDefaults() Config {
	if c.Dose == 0 {
		c.Dose = 1
	}
	return c
}

// NewSimulator builds the SOCS kernel set for cfg, after applying
// WithDefaults. It panics when cfg.Validate fails — an invalid imager is
// a programming error, not a runtime condition.
func NewSimulator(cfg Config) *Simulator {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Simulator{
		cfg:  cfg,
		grid: raster.Grid{Size: cfg.GridSize, Pitch: cfg.PitchNM},
	}
	s.buildKernels()
	return s
}

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Grid returns the raster the simulator images on.
func (s *Simulator) Grid() raster.Grid { return s.grid }

// NumKernels returns N_h, the number of SOCS kernels.
func (s *Simulator) NumKernels() int { return len(s.kernels) }

// sourcePoints discretises the annular source into sigma-space points with
// equal weights.
func (s *Simulator) sourcePoints() []geom.Pt {
	var pts []geom.Pt
	rings := s.cfg.SourceRings
	if rings < 1 {
		rings = 1
	}
	for r := 0; r < rings; r++ {
		var sig float64
		if rings == 1 {
			sig = (s.cfg.SigmaIn + s.cfg.SigmaOut) / 2
		} else {
			sig = s.cfg.SigmaIn + (s.cfg.SigmaOut-s.cfg.SigmaIn)*float64(r)/float64(rings-1)
		}
		if sig == 0 {
			pts = append(pts, geom.Pt{})
			continue
		}
		count := int(math.Max(6, math.Round(8*sig*float64(rings))))
		for k := 0; k < count; k++ {
			// Offset alternate rings for rotational coverage.
			a := 2*math.Pi*float64(k)/float64(count) + float64(r)*math.Pi/float64(count)
			pts = append(pts, geom.Pt{X: sig * math.Cos(a), Y: sig * math.Sin(a)})
		}
	}
	return pts
}

// buildKernels constructs one frequency-domain kernel per source point:
// H_k(f) = P(f + s_k·NA/λ)·exp(iπλz|f|²), with P the ideal circular pupil,
// stored over the kernel's support box only.
func (s *Simulator) buildKernels() {
	span := obs.Start("litho.build_kernels")
	// The counter (distinct from the span histogram) lets warm-state
	// consumers — cardopcd, the CI service smoke — assert that kernel
	// construction happened exactly once per distinct imaging config.
	obs.C("litho.build_kernels").Inc()
	pp := s.cfg.pupil()
	s.band = newBand(s.cfg.GridSize, pp.fc/pp.df)
	pts := s.sourcePoints()
	s.kernels = make([]*kernel, len(pts))
	s.weights = make([]float64, len(pts))
	w := 1 / float64(len(pts))
	for ki, sp := range pts {
		s.weights[ki] = w
		s.kernels[ki] = s.band.kernel(pp, sp.X*pp.fc, sp.Y*pp.fc)
	}
	s.band.cover(s.kernels)
	span.End(obs.A("kernels", len(pts)))
}

// pupil holds what one coherent system's transfer function depends on
// besides its source shift.
type pupil struct {
	df           float64 // frequency-bin width, cycles/nm
	fc           float64 // pupil cutoff NA/λ, cycles/nm
	wavelengthNM float64
	defocusNM    float64
}

// pupil returns the transfer-function parameters of c's imager.
func (c Config) pupil() pupil {
	return pupil{
		df:           1 / (float64(c.GridSize) * c.PitchNM),
		fc:           c.NA / c.WavelengthNM,
		wavelengthNM: c.WavelengthNM,
		defocusNM:    c.DefocusNM,
	}
}

// at returns the transfer function of the coherent system with source
// frequency (sx, sy) at grid bin (kx, ky) of an n-point axis: the ideal
// circular pupil of cutoff fc shifted by the source, with the paraxial
// defocus phase exp(iπλz|u|²) evaluated at the pupil coordinate u = f + s.
func (p pupil) at(kx, ky, n int, sx, sy float64) complex128 {
	ux := freqOf(kx, n, p.df) + sx
	uy := freqOf(ky, n, p.df) + sy
	if ux*ux+uy*uy > p.fc*p.fc {
		return 0
	}
	ph := math.Pi * p.wavelengthNM * p.defocusNM * (ux*ux + uy*uy)
	return cmplx.Exp(complex(0, ph))
}

// freqOf maps grid index k to a signed spatial frequency in the standard
// corner-centred DFT layout (numpy fftfreq): k·df for k < n/2, (k−n)·df
// above, so the Nyquist bin of an even-length grid carries −n/2·df.
// (Mapping it to +n/2·df instead biased the shifted pupil of off-axis
// source points at the Nyquist row/column.)
func freqOf(k, n int, df float64) float64 {
	if 2*k < n {
		return float64(k) * df
	}
	return float64(k-n) * df
}

// MaskFreqInto writes the forward 2-D FFT of mask into g (fully
// overwritten), so pooled grids can carry the spectrum. g must match the
// mask raster. Callers that evaluate several kernels or corners against
// one mask should compute this once and reuse it.
//
// The mask is purely real, so the spectrum is computed by the
// full-band real-input transform (half the FFT work of loading a complex
// grid) into a pooled half-spectrum and mirrored into g. The imaging
// calls that start from a mask (AerialInto, AerialWithCacheInto,
// Process.AerialAll) do not come through here: the kernel sweep reads
// only the union box of the spectrum, so they transform at that box's
// band and fill the box by the same mirroring rule, bin for bin equal to
// this spectrum's.
//
//cardopc:noalloc
func MaskFreqInto(g *fft.Grid2, mask *raster.Field) *fft.Grid2 {
	defer obs.Start("litho.mask_freq").End()
	if g.W != mask.Size || g.H != mask.Size {
		panic(fmt.Sprintf("litho: %dx%d spectrum grid for a %d px mask", g.W, g.H, mask.Size))
	}
	hs := fft.GetHalf(mask.Size, mask.Size)
	fft.RealForward2Into(hs, mask.Data, mask.Size/2)
	fft.ExpandHalfInto(g, hs)
	hs.Release()
	return g
}

// Aerial computes the dose-scaled aerial image of mask (Eq. 1).
func (s *Simulator) Aerial(mask *raster.Field) *raster.Field {
	return s.AerialInto(raster.NewField(s.grid), mask)
}

// AerialInto is Aerial writing into out, with the mask spectrum held in
// pooled scratch — the allocation-free steady-state path of the
// correction loop. Only the union box of the spectrum is computed.
//
//cardopc:noalloc
func (s *Simulator) AerialInto(out *raster.Field, mask *raster.Field) *raster.Field {
	box := fft.GetGrid(s.band.u, s.band.u)
	s.band.maskBoxInto(box, mask)
	s.aerialBoxInto(out, box)
	fft.PutGrid(box)
	return out
}

// AerialFromFreq computes the aerial image from a precomputed mask spectrum.
func (s *Simulator) AerialFromFreq(maskFreq *fft.Grid2) *raster.Field {
	return s.AerialFromFreqInto(raster.NewField(s.grid), maskFreq)
}

// AerialFromFreqInto computes the aerial image from a precomputed mask
// spectrum into out (fully overwritten): the union box is copied out of
// maskFreq, then one kernel sweep and the dose scale.
//
//cardopc:noalloc
func (s *Simulator) AerialFromFreqInto(out *raster.Field, maskFreq *fft.Grid2) *raster.Field {
	box := fft.GetGrid(s.band.u, s.band.u)
	s.band.freqBoxInto(box, maskFreq)
	s.aerialBoxInto(out, box)
	fft.PutGrid(box)
	return out
}

// aerialBoxInto computes the aerial image of the union-box mask spectrum
// box into out (fully overwritten): one kernel sweep, then the dose scale.
//
//cardopc:noalloc
func (s *Simulator) aerialBoxInto(out *raster.Field, box *fft.Grid2) {
	defer obs.Start("litho.aerial").End()
	s.sweep(out, box, nil)
	scaleDose(out.Data, s.cfg.Dose)
}

// sweep is the forward kernel sweep of Eq. 1 without the dose: it writes
// Σ_k w_k |maskFreq ⊗ H_k|² into out (fully overwritten), for the mask
// spectrum over the union box in box. Each kernel touches only its
// support box: maskFreq·H_k over the box goes into an m×m grid centred
// on bin 0, one inverse transform gives the band-shifted field a_k, and
// w_k|a_k|² accumulates on the m×m grid; one zero-padded transform brings
// the sum to the raster (band.go). When amps is non-nil, kernel k's a_k
// lands in amps[k] (m×m) and is kept there for the adjoint; otherwise it
// lives in worker scratch. Kernels are statically assigned to workers
// drawing scratch from the fft workspace pool, and the per-worker partial
// sums are reduced in worker order, so results are bit-identical across
// runs regardless of scheduling.
//
//cardopc:noalloc
func (s *Simulator) sweep(out *raster.Field, box *fft.Grid2, amps []*fft.Grid2) {
	obs.C("litho.aerial.count").Inc()
	n, m, u := s.band.n, s.band.m, s.band.u
	if out.Size != n || box.W != u || box.H != u {
		panic(fmt.Sprintf("litho: aerial out %d px / spectrum box %dx%d for a %d px imager with a %d-bin box",
			out.Size, box.W, box.H, n, u))
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(s.kernels) {
		workers = len(s.kernels)
	}
	wss := make([]*fft.Workspace, workers) //cardopc:allow noalloc GOMAXPROCS-bounded fan-out slice, inside the litho allocs/op budget
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) { //cardopc:allow noalloc one worker closure per fan-out, inside the litho allocs/op budget
			defer wg.Done()
			ws := fft.GetWorkspace(m, m)
			for ki := w; ki < len(s.kernels); ki += workers {
				ksp := obs.StartOn(obs.TrackLithoWorker+w, "litho.kernel")
				a := ws.Grid
				if amps != nil {
					a = amps[ki]
				}
				s.band.spectrumInto(a, box.Data, s.kernels[ki])
				fft.Inverse2(a)
				wk := s.weights[ki]
				for i, v := range a.Data {
					re, im := real(v), imag(v)
					ws.Acc[i] += wk * (re*re + im*im)
				}
				ksp.End()
			}
			wss[w] = ws
		}(w)
	}
	wg.Wait()
	sum := wss[0].Acc
	for _, ws := range wss[1:] {
		for i, v := range ws.Acc {
			sum[i] += v
		}
	}
	if m == n {
		copy(out.Data, sum)
	} else {
		// Σ w_k|a_k|² has degree 2a < m/2: keep every bin below m/2.
		s.band.resampleInto(out.Data, n, sum, m, m/2-1)
	}
	for _, ws := range wss {
		ws.Release()
	}
}

// scaleDose applies Eq. 1's dose factor to an intensity sum in place.
// Dose multiplies only after the kernel sweep, so every corner that
// shares a kernel set is its sweep times that corner's dose.
func scaleDose(intensity []float64, dose float64) {
	if dose == 1 {
		return
	}
	for i := range intensity {
		intensity[i] *= dose
	}
}

// Printed returns the binarised print image: pixels where the aerial
// intensity reaches the resist threshold. The aerial image lives in
// pooled scratch — only the returned binary is allocated.
func (s *Simulator) Printed(mask *raster.Field) *raster.Binary {
	ws := fft.GetWorkspace(s.cfg.GridSize, s.cfg.GridSize)
	aerial := raster.Field{Grid: s.grid, Data: ws.Acc}
	s.AerialInto(&aerial, mask)
	out := aerial.Threshold(s.cfg.Threshold)
	ws.Release()
	return out
}

// Contours returns the printed contours of mask: marching-squares
// iso-contours of the aerial image at the resist threshold, in world (nm)
// coordinates. The aerial image lives in pooled scratch — only the
// contour geometry is allocated.
func (s *Simulator) Contours(mask *raster.Field) []geom.Polygon {
	ws := fft.GetWorkspace(s.cfg.GridSize, s.cfg.GridSize)
	aerial := raster.Field{Grid: s.grid, Data: ws.Acc}
	s.AerialInto(&aerial, mask)
	out := raster.MarchingSquares(&aerial, s.cfg.Threshold)
	ws.Release()
	return out
}

// Validate reports the first problem with the imaging configuration.
func (c Config) Validate() error {
	switch {
	case !fft.IsPow2(c.GridSize):
		return fmt.Errorf("litho: GridSize %d is not a power of two", c.GridSize)
	case c.PitchNM <= 0:
		return fmt.Errorf("litho: PitchNM must be positive, got %v", c.PitchNM)
	case c.WavelengthNM <= 0:
		return fmt.Errorf("litho: WavelengthNM must be positive, got %v", c.WavelengthNM)
	case c.NA <= 0:
		return fmt.Errorf("litho: NA must be positive, got %v", c.NA)
	case c.SigmaIn < 0 || c.SigmaOut < c.SigmaIn || c.SigmaOut > 1:
		return fmt.Errorf("litho: source annulus [%v, %v] invalid", c.SigmaIn, c.SigmaOut)
	case c.Threshold <= 0 || c.Threshold >= 1:
		return fmt.Errorf("litho: Threshold %v outside (0, 1)", c.Threshold)
	case c.Dose < 0:
		return fmt.Errorf("litho: negative dose %v", c.Dose)
	case c.Dose == 0:
		// A literal zero dose images all-dark; a config that means "use
		// the default" must go through WithDefaults before validating.
		return fmt.Errorf("litho: zero dose (set Dose explicitly or apply Config.WithDefaults)")
	}
	// The pupil must be resolvable on the frequency grid: at least a few
	// bins inside the cutoff.
	if bins := (c.NA / c.WavelengthNM) * float64(c.GridSize) * c.PitchNM; bins < 4 {
		return fmt.Errorf("litho: raster too small to resolve the pupil (%.1f frequency bins)", bins)
	}
	return nil
}
