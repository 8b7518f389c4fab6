package litho

import (
	"sync"

	"cardopc/internal/fft"
	"cardopc/internal/obs"
	"cardopc/internal/raster"
)

// Process bundles the nominal imaging condition with the extreme corners of
// the process window, used to evaluate the process variation band (PVB).
// Following the ICCAD-13 convention, the outer corner over-exposes
// (max dose, best focus) and the inner corner under-exposes with defocus
// (min dose, worst focus).
type Process struct {
	Nominal *Simulator
	Inner   *Simulator
	Outer   *Simulator
}

// CornerSpec describes how far the process corners deviate from nominal.
type CornerSpec struct {
	// DoseDelta is the fractional dose excursion (0.02 = ±2 %).
	DoseDelta float64
	// DefocusNM is the defocus applied at the inner (under-exposed) corner.
	DefocusNM float64
}

// DefaultCorners returns the ±2 % dose, 40 nm defocus process window used by
// the experiments.
func DefaultCorners() CornerSpec {
	return CornerSpec{DoseDelta: 0.02, DefocusNM: 40}
}

// NewProcess builds the nominal simulator plus inner/outer corners for cfg.
// Corners whose optics match nominal adopt its kernel set instead of
// rebuilding it: the SOCS kernels depend on defocus but not on dose, so
// the outer (dose-only) corner always shares, and the inner corner shares
// too when the spec applies no extra defocus.
func NewProcess(cfg Config, spec CornerSpec) *Process {
	nom := NewSimulator(cfg)

	innerCfg := cfg
	innerCfg.Dose = cfg.Dose * (1 - spec.DoseDelta)
	innerCfg.DefocusNM = spec.DefocusNM
	outerCfg := cfg
	outerCfg.Dose = cfg.Dose * (1 + spec.DoseDelta)

	return &Process{
		Nominal: nom,
		Inner:   newSimulatorSharing(innerCfg, nom),
		Outer:   newSimulatorSharing(outerCfg, nom),
	}
}

// kernelConfig strips the configuration fields the SOCS kernel set does
// not depend on: dose scales intensity after the convolutions and the
// threshold only binarises, so two configs equal modulo Dose/Threshold
// image through identical kernels.
func kernelConfig(cfg Config) Config {
	cfg.Dose = 0
	cfg.Threshold = 0
	return cfg
}

// newSimulatorSharing builds a simulator for cfg, adopting donor's
// (immutable, concurrency-safe) kernel set when the two configs share
// imaging optics, and building a fresh set otherwise.
func newSimulatorSharing(cfg Config, donor *Simulator) *Simulator {
	if donor == nil || kernelConfig(cfg) != kernelConfig(donor.cfg) {
		return NewSimulator(cfg)
	}
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Simulator{
		cfg:     cfg,
		grid:    donor.grid,
		band:    donor.band,
		kernels: donor.kernels,
		weights: donor.weights,
	}
}

// PrintedAll images mask once per corner (sharing the mask spectrum) and
// returns the nominal, inner and outer binarised prints.
func (p *Process) PrintedAll(mask *raster.Field) (nom, inner, outer *raster.Binary) {
	nomA, innerA, outerA := p.AerialAll(mask)
	return nomA.Threshold(p.Nominal.cfg.Threshold),
		innerA.Threshold(p.Inner.cfg.Threshold),
		outerA.Threshold(p.Outer.cfg.Threshold)
}

// AerialAll returns the three corner aerial images, sharing one pooled
// mask transform computed over the union box only.
func (p *Process) AerialAll(mask *raster.Field) (nom, inner, outer *raster.Field) {
	bd := p.Nominal.band
	box := fft.GetGrid(bd.u, bd.u)
	bd.maskBoxInto(box, mask)
	nom, inner, outer = p.aerialAllBox(box)
	fft.PutGrid(box)
	return nom, inner, outer
}

// AerialAllFromFreq is AerialAll over a precomputed mask spectrum, whose
// union box is copied out once for every corner.
func (p *Process) AerialAllFromFreq(mf *fft.Grid2) (nom, inner, outer *raster.Field) {
	bd := p.Nominal.band
	box := fft.GetGrid(bd.u, bd.u)
	bd.freqBoxInto(box, mf)
	nom, inner, outer = p.aerialAllBox(box)
	fft.PutGrid(box)
	return nom, inner, outer
}

// aerialAllBox images the three corners from the union-box mask spectrum
// box. Corners differ from nominal only in dose and defocus, neither of
// which moves a kernel box, so they share the nominal band and its box.
// The nominal kernel set is swept once: dose multiplies only after the
// sweep (Eq. 1), so every corner sharing that set — the dose-only outer
// corner, and the inner corner when it applies no defocus — is the sum
// times its own dose. A corner with its own kernels (a defocused inner)
// sweeps them concurrently. Each corner's result is bit-identical to its
// own AerialFromFreqInto call.
func (p *Process) aerialAllBox(box *fft.Grid2) (nom, inner, outer *raster.Field) {
	nom = raster.NewField(p.Nominal.grid)
	inner = raster.NewField(p.Inner.grid)
	outer = raster.NewField(p.Outer.grid)
	corners := [2]struct {
		sim *Simulator
		out *raster.Field
	}{{p.Inner, inner}, {p.Outer, outer}}
	var wg sync.WaitGroup
	for _, c := range corners {
		if !sharesKernels(c.sim, p.Nominal) {
			wg.Add(1)
			go func(sim *Simulator, out *raster.Field) {
				defer wg.Done()
				sim.aerialBoxInto(out, box)
			}(c.sim, c.out)
		}
	}
	sp := obs.Start("litho.aerial")
	p.Nominal.sweep(nom, box, nil)
	sp.End()
	for _, c := range corners {
		if sharesKernels(c.sim, p.Nominal) {
			copy(c.out.Data, nom.Data)
			scaleDose(c.out.Data, c.sim.cfg.Dose)
		}
	}
	scaleDose(nom.Data, p.Nominal.cfg.Dose)
	wg.Wait()
	return nom, inner, outer
}

// sharesKernels reports whether two simulators image through the same
// kernel set. Shared sets are literally the same slice (see
// newSimulatorSharing), so comparing the first kernel pointer suffices.
func sharesKernels(a, b *Simulator) bool {
	return len(a.kernels) > 0 && len(a.kernels) == len(b.kernels) && a.kernels[0] == b.kernels[0]
}
