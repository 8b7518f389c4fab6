package litho

import (
	"math"
	"math/cmplx"
	"runtime"
	"testing"

	"cardopc/internal/fft"
	"cardopc/internal/geom"
	"cardopc/internal/raster"
)

// The dense SOCS path, kept as the test oracle for the band-limited sweep
// and adjoint: every kernel is a full n×n grid and pays full-raster
// transforms, exactly as Eq. 1 and its adjoint read.

// pupilKernel fills the square grid g with the transfer function of one
// coherent system: the ideal circular pupil of cutoff fc shifted by the
// source frequency (sx, sy), with the paraxial defocus phase
// exp(iπλz|u|²) evaluated at the pupil coordinate u = f + s.
func pupilKernel(g *fft.Grid2, df, fc, sx, sy, wavelengthNM, defocusNM float64) {
	n := g.W
	for y := 0; y < n; y++ {
		fy := freqOf(y, n, df)
		uy := fy + sy
		for x := 0; x < n; x++ {
			fx := freqOf(x, n, df)
			ux := fx + sx
			if ux*ux+uy*uy > fc*fc {
				g.Set(x, y, 0)
				continue
			}
			ph := math.Pi * wavelengthNM * defocusNM * (ux*ux + uy*uy)
			g.Set(x, y, cmplx.Exp(complex(0, ph)))
		}
	}
}

// inverse2 is the normalised inverse 2-D DFT of g in place: the
// band-row inverse at the full band, then 1/(W·H).
func inverse2(g *fft.Grid2) {
	fft.InverseBandRows(g, g.H/2)
	inv := 1 / float64(g.W*g.H)
	for i, v := range g.Data {
		g.Data[i] = complex(real(v)*inv, imag(v)*inv)
	}
}

// denseKernel fills g with s's kernel ki over the full raster.
func denseKernel(g *fft.Grid2, s *Simulator, ki int) {
	pp := s.cfg.pupil()
	sp := s.sourcePoints()[ki]
	pupilKernel(g, pp.df, pp.fc, sp.X*pp.fc, sp.Y*pp.fc, pp.wavelengthNM, pp.defocusNM)
}

// denseImaging returns the dose-scaled aerial image of the mask spectrum
// mf and the adjoint gradient ∂L/∂M for ∂L/∂I = G, one kernel at a time
// on full-raster grids:
//
//	I     = Dose · Σ_k w_k |IFFT(M̂·H_k)|²
//	∂L/∂M = Dose · Re IFFT( Σ_k 2 w_k · FFT(G ⊙ A_k) ⊙ conj(H_k) ).
func denseImaging(s *Simulator, mf *fft.Grid2, G []float64) (aerial, grad []float64) {
	n := s.cfg.GridSize
	aerial = make([]float64, n*n)
	h := fft.NewGrid2(n, n)
	amp := fft.NewGrid2(n, n)
	spec := fft.NewGrid2(n, n)
	for ki := range s.kernels {
		denseKernel(h, s, ki)
		for i := range amp.Data {
			amp.Data[i] = mf.Data[i] * h.Data[i]
		}
		inverse2(amp)
		wk := s.weights[ki]
		for i, v := range amp.Data {
			aerial[i] += wk * s.cfg.Dose * (real(v)*real(v) + imag(v)*imag(v))
			amp.Data[i] = complex(G[i], 0) * v
		}
		fft.ForwardBandCols(amp, n/2)
		for i, kv := range h.Data {
			spec.Data[i] += complex(2*wk*s.cfg.Dose, 0) * amp.Data[i] * cmplx.Conj(kv)
		}
	}
	inverse2(spec)
	grad = make([]float64, n*n)
	for i, v := range spec.Data {
		grad[i] = real(v)
	}
	return aerial, grad
}

// relErr is max|got − want| relative to max|want|.
func relErr(got, want []float64) float64 {
	var diff, scale float64
	for i, w := range want {
		diff = math.Max(diff, math.Abs(got[i]-w))
		scale = math.Max(scale, math.Abs(w))
	}
	return diff / scale
}

// oracleMask is a clip with sharp edges plus pseudo-random pixels, so its
// spectrum carries content in every kernel box.
func oracleMask(g raster.Grid) *raster.Field {
	ext := float64(g.Size) * g.Pitch
	f := maskWithRect(g, geom.Rect{Min: geom.P(0.40*ext, 0.42*ext), Max: geom.P(0.58*ext, 0.55*ext)})
	f.FillPolygon(geom.Rect{Min: geom.P(0.20*ext, 0.30*ext), Max: geom.P(0.28*ext, 0.70*ext)}.Poly(), 4)
	f.Clamp01()
	seed := uint32(12345)
	for i := range f.Data {
		seed = seed*1664525 + 1013904223
		if seed>>28 == 0 {
			f.Data[i] = float64(seed>>8&0xff) / 255
		}
	}
	return f
}

// bandedMask is oracleMask with empty row bands: pairs of +0 rows, a +0
// row beside a nonzero one, and a row of −0 pixels, which is not empty.
func bandedMask(g raster.Grid) *raster.Field {
	f := oracleMask(g)
	n := g.Size
	for y := 0; y < n; y++ {
		row := f.Data[y*n : (y+1)*n]
		switch {
		case y == n/2+1:
			for x := range row {
				row[x] = math.Copysign(0, -1)
			}
		case y < n/4+1, y >= 5*n/8 && y < 3*n/4:
			clear(row)
		}
	}
	return f
}

func TestBandLimitedMatchesDense(t *testing.T) {
	type tc struct {
		name string
		cfg  func(*Config)
	}
	size := func(n int, pitch float64) func(*Config) {
		return func(c *Config) { c.GridSize, c.PitchNM = n, pitch }
	}
	cases := []tc{
		{"512@4", size(512, 4)},
		{"512@4 defocus 40", func(c *Config) { size(512, 4)(c); c.DefocusNM = 40 }},
		// One source ring (6 kernels) keeps the 1024² dense oracle
		// affordable; the box geometry does not depend on the ring count.
		{"1024@2 rings 1", func(c *Config) { size(1024, 2)(c); c.SourceRings = 1 }},
		{"512@2", size(512, 2)},
		{"256@8 rings 3", func(c *Config) { size(256, 8)(c); c.SourceRings = 3 }},
		{"128@16", size(128, 16)},
		{"256@8 sigmaIn 0", func(c *Config) { size(256, 8)(c); c.SigmaIn = 0 }},
		{"256@8 dose 0.98", func(c *Config) { size(256, 8)(c); c.Dose = 0.98 }},
		// m = n: the m-grid accumulator is the image and g_m is G.
		{"64@32", size(64, 32)},
		{"32@32 4a+1>n", size(32, 32)},
		// The union of the boxes is wider than the raster, one box is not.
		{"32@64 union>n", size(32, 64)},
		// The kernel box is wider than the raster: the whole grid.
		{"16@128 box>n", size(16, 128)},
	}
	// The banded mask runs the zero-row skips of the mask and kernel
	// transforms against the oracle; the plain one almost never has a
	// zero row pair.
	masks := []struct {
		name string
		make func(raster.Grid) *raster.Field
	}{{"", oracleMask}, {" banded", bandedMask}}
	const tol = 1e-10
	for _, c := range cases {
		for _, mk := range masks {
			t.Run(c.name+mk.name, func(t *testing.T) {
				cfg := DefaultConfig()
				c.cfg(&cfg)
				p := NewProcess(cfg, DefaultCorners())
				s := p.Nominal
				n := cfg.GridSize
				mask := mk.make(s.Grid())
				mf := MaskFreqInto(fft.NewGrid2(n, n), mask)

				got := s.AerialFromFreqInto(raster.NewField(s.Grid()), mf)
				// The mask paths transform only the union box's band and
				// fill the box themselves; they must equal the
				// full-spectrum path bit for bit, every corner of
				// AerialAll included.
				direct := s.AerialInto(raster.NewField(s.Grid()), mask, nil)
				nom, inner, outer := p.AerialAll(mask)
				for _, r := range []struct {
					what      string
					got, want []float64
				}{
					{"AerialInto", direct.Data, got.Data},
					{"AerialAll nominal", nom.Data, got.Data},
					{"AerialAll inner", inner.Data, p.Inner.AerialFromFreqInto(raster.NewField(s.Grid()), mf).Data},
					{"AerialAll outer", outer.Data, p.Outer.AerialFromFreqInto(raster.NewField(s.Grid()), mf).Data},
				} {
					for i, v := range r.want {
						if r.got[i] != v {
							t.Fatalf("%s: pixel %d = %v, AerialFromFreqInto %v", r.what, i, r.got[i], v)
						}
					}
				}
				// A row set computes its rows as the full image has them.
				rows := make([]bool, n)
				for y := range rows {
					rows[y] = y%3 == 0 || y == n/2+1
				}
				part := raster.NewField(s.Grid())
				for i := range part.Data {
					part.Data[i] = math.NaN()
				}
				s.AerialInto(part, mask, rows)
				for i, v := range direct.Data {
					if rows[i/n] && part.Data[i] != v {
						t.Fatalf("AerialInto with a row set: pixel %d = %v, full image %v", i, part.Data[i], v)
					}
				}
				cache := s.NewForwardCache()
				defer cache.Release()
				cached := s.AerialWithCacheInto(raster.NewField(s.Grid()), cache, mask)
				// G with full-band content, so the adjoint's low-pass of G
				// is exercised rather than passed through.
				G := make([]float64, n*n)
				for i, v := range cached.Data {
					G[i] = 2*(v-0.3) + 0.3*math.Sin(0.37*float64(i))
				}
				grad := s.GradientFromCacheInto(make([]float64, n*n), cache, G)

				wantAerial, wantGrad := denseImaging(s, mf, G)
				for _, r := range []struct {
					what      string
					got, want []float64
				}{
					{"AerialFromFreqInto", got.Data, wantAerial},
					{"AerialInto", direct.Data, wantAerial},
					{"AerialAll nominal", nom.Data, wantAerial},
					{"AerialWithCacheInto", cached.Data, wantAerial},
					{"GradientFromCacheInto", grad, wantGrad},
				} {
					e := relErr(r.got, r.want)
					if e > tol || math.IsNaN(e) {
						t.Errorf("%s (m=%d): relative error %.3g > %g", r.what, s.band.m, e, tol)
					}
					t.Logf("%s (m=%d): relative error %.3g", r.what, s.band.m, e)
				}
			})
		}
	}
}

// scaledSweep runs the forward sweep and the adjoint as they read with
// normalised kernel transforms: a full inverse scaled by 1/m² gives each
// a_k, w_k multiplies |a_k|², the adjoint transforms every column of
// g_m ⊙ a_k and weighs it by 2·w_k·Dose. Kernels go to workers and the
// partial sums reduce in worker order as in sweep and
// GradientFromCacheInto, so the two must agree bit for bit.
func scaledSweep(s *Simulator, mask *raster.Field, G []float64) (aerial, grad []float64) {
	bd := s.band
	n, m, u, nk := bd.n, bd.m, bd.u, len(s.kernels)
	box := fft.NewGrid2(u, u)
	bd.maskBoxInto(box, mask)
	workers := min(runtime.GOMAXPROCS(0), nk)
	amps := make([]*fft.Grid2, nk)
	sums := make([][]float64, workers)
	for w := range sums {
		sums[w] = make([]float64, m*m)
		for ki := w; ki < nk; ki += workers {
			a := fft.NewGrid2(m, m)
			bd.spectrumInto(a, box.Data, s.kernels[ki])
			inverse2(a)
			amps[ki] = a
			wk := s.weights[ki]
			for i, v := range a.Data {
				sums[w][i] += wk * (real(v)*real(v) + imag(v)*imag(v))
			}
		}
	}
	for _, p := range sums[1:] {
		for i, v := range p {
			sums[0][i] += v
		}
	}
	aerial = make([]float64, n*n)
	if m == n {
		copy(aerial, sums[0])
	} else {
		bd.resampleInto(aerial, n, sums[0], m, m/2-1, nil)
	}
	scaleDose(aerial, s.cfg.Dose)

	gm := G
	if m < n {
		gm = make([]float64, m*m)
		bd.resampleInto(gm, m, G, n, 2*bd.a, nil)
	}
	accs := make([][]complex128, workers)
	for w := range accs {
		accs[w] = make([]complex128, u*u)
		for ki := w; ki < nk; ki += workers {
			buf := fft.NewGrid2(m, m)
			for i, v := range amps[ki].Data {
				buf.Data[i] = complex(gm[i], 0) * v
			}
			fft.ForwardBandCols(buf, m/2)
			bd.correlateInto(accs[w], buf, s.kernels[ki], 2*s.weights[ki]*s.cfg.Dose)
		}
	}
	for _, acc := range accs[1:] {
		for i, v := range acc {
			accs[0][i] += v
		}
	}
	grad = make([]float64, n*n)
	bd.realInverseInto(grad, accs[0])
	return aerial, grad
}

func TestFoldedWeightsMatchScaledSweep(t *testing.T) {
	// The sweep and the adjoint leave 1/m² out of their kernel
	// transforms and fold it into the kernel weights; the adjoint also
	// transforms only the box's columns. Both are exact, so the image
	// and the gradient equal those of normalised transforms bit for bit.
	for _, c := range []struct {
		n     int
		pitch float64
	}{{512, 4}, {64, 32}, {32, 32}, {16, 128}} {
		cfg := DefaultConfig()
		cfg.GridSize, cfg.PitchNM, cfg.Dose = c.n, c.pitch, 0.98
		s := NewSimulator(cfg)
		mask := oracleMask(s.Grid())
		cache := s.NewForwardCache()
		aerial := s.AerialWithCacheInto(raster.NewField(s.Grid()), cache, mask)
		G := make([]float64, len(aerial.Data))
		for i, v := range aerial.Data {
			G[i] = 2*(v-0.3) + 0.3*math.Sin(0.37*float64(i))
		}
		grad := s.GradientFromCacheInto(make([]float64, len(G)), cache, G)
		cache.Release()
		wantAerial, wantGrad := scaledSweep(s, mask, G)
		for _, r := range []struct {
			what      string
			got, want []float64
		}{{"aerial", aerial.Data, wantAerial}, {"gradient", grad, wantGrad}} {
			for i, v := range r.want {
				if math.Float64bits(r.got[i]) != math.Float64bits(v) {
					t.Fatalf("%d@%v %s: pixel %d = %v, normalised transforms give %v", c.n, c.pitch, r.what, i, r.got[i], v)
				}
			}
		}
	}
}

func TestBandGeometry(t *testing.T) {
	for _, c := range []struct {
		n                    int
		pitch                float64
		a, b, m              int
		wholeBox, wholeUnion bool
	}{
		{512, 4, 15, 31, 64, false, false},
		{256, 8, 15, 31, 64, false, false},
		{128, 16, 15, 31, 64, false, false},
		{1024, 2, 15, 31, 64, false, false},
		{64, 32, 15, 31, 64, false, false},
		{32, 32, 8, 17, 32, false, false},
		{32, 64, 15, 31, 32, false, true},
		{16, 128, 15, 16, 16, true, true},
	} {
		cfg := DefaultConfig()
		cfg.GridSize, cfg.PitchNM = c.n, c.pitch
		bd := NewSimulator(cfg).band
		if bd.a != c.a || bd.b != c.b || bd.m != c.m {
			t.Errorf("%d@%v: a, b, m = %d, %d, %d, want %d, %d, %d", c.n, c.pitch, bd.a, bd.b, bd.m, c.a, c.b, c.m)
		}
		if whole := bd.lo == -c.n/2 && bd.b == c.n; whole != c.wholeBox {
			t.Errorf("%d@%v: whole-grid box = %v, want %v", c.n, c.pitch, whole, c.wholeBox)
		}
		if bd.u > c.n || bd.u < bd.b {
			t.Errorf("%d@%v: union box %d outside [%d, %d]", c.n, c.pitch, bd.u, bd.b, c.n)
		}
		if whole := bd.ulo == -c.n/2 && bd.u == c.n; whole != c.wholeUnion {
			t.Errorf("%d@%v: whole-grid union = %v, want %v", c.n, c.pitch, whole, c.wholeUnion)
		}
	}
}

func TestBandStorage(t *testing.T) {
	// At the default 512 px raster a kernel set holds 23 boxes of 31²
	// values, and a filled ForwardCache 23 grids of 64² — not 23 × 512².
	s := NewSimulator(DefaultConfig())
	a := s.band.a
	const kernels = 23
	if s.NumKernels() != kernels {
		t.Fatalf("NumKernels = %d, want %d", s.NumKernels(), kernels)
	}
	stored := 0
	for _, k := range s.kernels {
		stored += len(k.box)
	}
	if limit := kernels * (2*a + 1) * (2*a + 1); stored > limit {
		t.Errorf("kernel set holds %d values, want at most %d", stored, limit)
	}
	cache := s.NewForwardCache()
	defer cache.Release()
	s.AerialWithCacheInto(raster.NewField(s.Grid()), cache, oracleMask(s.Grid()))
	held := 0
	for _, amp := range cache.amps {
		held += len(amp.Data)
	}
	if limit := kernels * 64 * 64; held > limit {
		t.Errorf("filled ForwardCache holds %d values, want at most %d", held, limit)
	}
}
