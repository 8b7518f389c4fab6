package litho

import (
	"fmt"
	"runtime"
	"sync"

	"cardopc/internal/fft"
	"cardopc/internal/obs"
	"cardopc/internal/raster"
)

// ForwardCache keeps the per-kernel coherent fields of one forward
// simulation — each A_k = M ⊗ h_k with its band shifted to bin 0, sampled
// on the m×m grid in that grid's transform scale — so the adjoint
// gradient can be evaluated without re-convolving. A cache is bound to one simulator, is not safe for
// concurrent use, and may be reused across iterations (each
// AerialWithCacheInto overwrites it in place); Release returns its grids
// to the fft pool when the optimisation loop is done.
type ForwardCache struct {
	amps []*fft.Grid2
	sim  *Simulator
}

// NewForwardCache returns an empty reusable cache bound to s. Grids are
// drawn lazily from the fft pool on the first forward pass.
func (s *Simulator) NewForwardCache() *ForwardCache {
	return &ForwardCache{sim: s}
}

// ensure draws the per-kernel m×m amplitude grids from the fft pool.
func (c *ForwardCache) ensure(m int) {
	if c.amps == nil {
		c.amps = make([]*fft.Grid2, len(c.sim.kernels))
	}
	for i, a := range c.amps {
		if a == nil {
			c.amps[i] = fft.GetGrid(m, m) // cache-owned: Release returns every non-nil slot
		}
	}
}

// Release returns the cached amplitude grids to the fft pool. The cache
// stays usable — the next forward pass draws fresh grids.
func (c *ForwardCache) Release() {
	for i, a := range c.amps {
		if a != nil {
			fft.PutGrid(a)
			c.amps[i] = nil
		}
	}
}

// AerialWithCacheInto computes the aerial image of mask into out (fully
// overwritten) like AerialInto, and retains the coherent amplitudes in
// cache for a subsequent GradientFromCacheInto call, reusing the cache's
// grids when it has been filled before — the steady-state path of the
// ILT descent loop.
//
//cardopc:noalloc
func (s *Simulator) AerialWithCacheInto(out *raster.Field, cache *ForwardCache, mask *raster.Field) *raster.Field {
	defer obs.Start("litho.aerial_cached").End()
	if cache.sim != s {
		panic("litho: ForwardCache used with a different simulator")
	}
	box := fft.GetGrid(s.band.u, s.band.u)
	s.band.maskBoxInto(box, mask)
	cache.ensure(s.band.m)
	s.sweep(out, box, cache.amps)
	fft.PutGrid(box)
	scaleDose(out.Data, s.cfg.Dose)
	return out
}

// GradientFromCacheInto computes ∂L/∂M into grad (fully overwritten)
// given G = ∂L/∂I (the loss gradient with respect to the aerial image,
// dose included by the caller — the chain rule through the dose factor
// is handled here). For
//
//	I = Dose · Σ_k w_k |M ⊗ h_k|²   (mask M real)
//
// the adjoint is
//
//	∂L/∂M = Dose · Σ_k 2 w_k · Re[ corr(G ⊙ A_k, h_k) ] ,
//
// where corr is cross-correlation, evaluated in the frequency domain as
// IFFT( FFT(G ⊙ A_k) ⊙ conj(H_k) ). Only FFT(G ⊙ A_k) over kernel k's box
// survives the product, and only G's |f| ≤ 2a box reaches it, so G is
// low-passed onto the m×m grid once (g_m; G itself when m = n), each
// kernel runs one forward m×m transform of g_m ⊙ a_k, and the products
// accumulate in a spectrum over the union of the boxes that one real
// inverse transform brings to the raster. Worker scratch comes from the
// fft pools and the reduction runs in worker order, so results are
// bit-identical across runs.
//
//cardopc:noalloc
func (s *Simulator) GradientFromCacheInto(grad []float64, cache *ForwardCache, G []float64) []float64 {
	defer obs.Start("litho.gradient").End()
	obs.C("litho.gradient.count").Inc()
	bd := s.band
	n, m := bd.n, bd.m
	if cache.sim != s {
		panic("litho: ForwardCache used with a different simulator")
	}
	if len(grad) != n*n || len(G) != n*n {
		panic(fmt.Sprintf("litho: gradient buffers %d/%d px for a %d px imager", len(grad), len(G), n))
	}
	gm := G
	if m < n {
		lp := fft.GetWorkspace(m, m)
		defer lp.Release()
		bd.resampleInto(lp.Acc, m, G, n, 2*bd.a)
		gm = lp.Acc
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(s.kernels) {
		workers = len(s.kernels)
	}
	accs := make([]*fft.Grid2, workers) //cardopc:allow noalloc GOMAXPROCS-bounded fan-out slice, inside the litho allocs/op budget
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) { //cardopc:allow noalloc one worker closure per fan-out, inside the litho allocs/op budget
			defer wg.Done()
			buf := fft.GetGrid(m, m)
			acc := fft.GetGrid(bd.u, bd.u)
			clear(acc.Data)
			for ki := w; ki < len(s.kernels); ki += workers {
				ksp := obs.StartOn(obs.TrackLithoWorker+w, "litho.grad_kernel")
				amp := cache.amps[ki]
				for i := range buf.Data {
					buf.Data[i] = complex(gm[i], 0) * amp.Data[i]
				}
				fft.Forward2(buf)
				bd.correlateInto(acc.Data, buf, s.kernels[ki], 2*s.weights[ki]*s.cfg.Dose)
				ksp.End()
			}
			fft.PutGrid(buf)
			accs[w] = acc
		}(w)
	}
	wg.Wait()
	sum := accs[0].Data
	for _, acc := range accs[1:] {
		for i, v := range acc.Data {
			sum[i] += v
		}
	}
	bd.realInverseInto(grad, sum)
	for _, acc := range accs {
		fft.PutGrid(acc)
	}
	return grad
}
