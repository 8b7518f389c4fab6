// Package fft provides hand-written fast Fourier transforms used by the
// lithography simulator and the pixel ILT engine: an iterative radix-2
// complex FFT, 2-D transforms parallelised across rows over a persistent
// worker pool, real-input transforms, fftshift helpers and pooled scratch
// workspaces so the litho hot path runs allocation-free in steady state.
//
// All transforms are in-place over []complex128 and require power-of-two
// lengths; Pow2Ceil helps callers pick grid sizes.
package fft

import (
	"fmt"
	"math"
	"math/bits"

	"sync"
	"sync/atomic"

	"cardopc/internal/obs"
)

// Pow2Ceil returns the smallest power of two >= n (and at least 1).
func Pow2Ceil(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// plan caches bit-reversal permutations and twiddle factors per size.
// Both twiddle directions are precomputed so the butterfly loop carries
// no per-element conjugation branch.
type plan struct {
	n   int
	rev []int
	// tw holds e^{-2πi k/n} for k in [0, n/2); twInv its conjugate.
	tw    []complex128
	twInv []complex128
	// lastUse is the planClock stamp of the most recent getPlan hit,
	// driving least-recently-used eviction.
	lastUse atomic.Int64
}

// maxPlans bounds the plan cache. Transform lengths are powers of two,
// so at most ~60 distinct sizes can ever exist; the cap guards the
// degenerate case of a caller cycling through many sizes (varying tile
// grids) so the map cannot grow without bound. Eviction is
// least-recently-used: every getPlan stamps the plan with a monotonic
// clock and a full cache drops the stalest entry, so cycling through
// many one-off sizes can never evict the hot steady-state plan. (The
// previous scheme deleted whichever entry map iteration yielded first
// — nondeterministic, and as likely to hit the hottest plan as a cold
// one.) Evicted plans stay valid for holders of the pointer; rebuild
// is O(n).
const maxPlans = 16

var (
	planMu    sync.RWMutex
	plans     = map[int]*plan{}
	planClock atomic.Int64
)

func getPlan(n int) *plan {
	planMu.RLock()
	p, ok := plans[n]
	planMu.RUnlock()
	if ok {
		p.lastUse.Store(planClock.Add(1))
		return p
	}
	planMu.Lock()
	defer planMu.Unlock()
	if p, ok = plans[n]; ok {
		p.lastUse.Store(planClock.Add(1))
		return p
	}
	p = &plan{n: n}
	p.rev = make([]int, n)
	shift := bits.LeadingZeros(uint(n)) + 1
	for i := range p.rev {
		p.rev[i] = int(bits.Reverse(uint(i)) >> shift)
	}
	p.tw = make([]complex128, n/2)
	p.twInv = make([]complex128, n/2)
	for k := range p.tw {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.tw[k] = complex(math.Cos(ang), math.Sin(ang))
		p.twInv[k] = complex(real(p.tw[k]), -imag(p.tw[k]))
	}
	if len(plans) >= maxPlans {
		evictLRUPlanLocked()
	}
	p.lastUse.Store(planClock.Add(1))
	plans[n] = p
	return p
}

// evictLRUPlanLocked drops the least-recently-used plan. Caller holds
// planMu for writing. Stamps are unique (monotonic counter), so the
// victim — and therefore the whole eviction order — is deterministic
// for a deterministic access sequence.
func evictLRUPlanLocked() {
	var victim int
	oldest := int64(math.MaxInt64)
	for k, p := range plans {
		if u := p.lastUse.Load(); u < oldest {
			oldest, victim = u, k
		}
	}
	delete(plans, victim)
}

// planCount reports the live plan-cache size (test hook).
func planCount() int {
	planMu.RLock()
	defer planMu.RUnlock()
	return len(plans)
}

// planSizes reports the resident plan sizes, unordered (test hook).
func planSizes() map[int]bool {
	planMu.RLock()
	defer planMu.RUnlock()
	out := make(map[int]bool, len(plans))
	for k := range plans {
		out[k] = true
	}
	return out
}

// resetPlans empties the plan cache (test hook): eviction tests need a
// known starting population.
func resetPlans() {
	planMu.Lock()
	plans = map[int]*plan{}
	planMu.Unlock()
}

// Forward computes the in-place forward DFT of x. len(x) must be a power of
// two.
func Forward(x []complex128) {
	transform(x, false)
}

// Inverse computes the in-place inverse DFT of x, including the 1/n
// normalisation. len(x) must be a power of two.
func Inverse(x []complex128) {
	transform(x, true)
	n := float64(len(x))
	for i := range x {
		x[i] /= complex(n, 0)
	}
}

func transform(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	p := getPlan(n)
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// The direction is baked into the twiddle table, keeping the
	// innermost butterfly branch- and conjugation-free.
	tw := p.tw
	if inverse {
		tw = p.twInv
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := tw[k*step]
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// allPosZero reports whether every element of x is +0 (all bits clear).
// A −0 or any other value makes it false: the transform of a vector of
// +0s is +0s bit for bit, which is what lets a pass skip it.
func allPosZero(x []float64) bool {
	for _, v := range x {
		if math.Float64bits(v) != 0 {
			return false
		}
	}
	return true
}

// allPosZeroC is allPosZero for complex vectors: both parts of every
// element must be +0.
func allPosZeroC(x []complex128) bool {
	for _, v := range x {
		if math.Float64bits(real(v))|math.Float64bits(imag(v)) != 0 {
			return false
		}
	}
	return true
}

// Grid2 is a dense 2-D complex field of size W×H stored row-major. W and H
// must be powers of two for transforms.
type Grid2 struct {
	W, H int
	Data []complex128
}

// NewGrid2 allocates a zeroed W×H grid.
func NewGrid2(w, h int) *Grid2 {
	return &Grid2{W: w, H: h, Data: make([]complex128, w*h)}
}

// At returns the value at (x, y).
func (g *Grid2) At(x, y int) complex128 { return g.Data[y*g.W+x] }

// Set stores v at (x, y).
func (g *Grid2) Set(x, y int, v complex128) { g.Data[y*g.W+x] = v }

// Clone returns a deep copy of g.
func (g *Grid2) Clone() *Grid2 {
	out := NewGrid2(g.W, g.H)
	copy(out.Data, g.Data)
	return out
}

// Fill sets every element of g to v.
func (g *Grid2) Fill(v complex128) {
	for i := range g.Data {
		g.Data[i] = v
	}
}

// Forward2 computes the in-place forward 2-D DFT of g (rows then columns),
// parallelised over the package worker pool.
//
//cardopc:noalloc
func Forward2(g *Grid2) {
	obs.C("fft.forward2").Inc()
	transform2(g, false)
}

// Inverse2 computes the in-place inverse 2-D DFT of g with 1/(W·H)
// normalisation. W·H is a power of two, so the normalisation multiplies
// by its exact reciprocal: every nonzero value equals the complex
// division by W·H, and only the sign of an exact zero can differ.
//
//cardopc:noalloc
func Inverse2(g *Grid2) {
	obs.C("fft.inverse2").Inc()
	transform2(g, true)
	inv := 1 / float64(g.W*g.H)
	for i, v := range g.Data {
		g.Data[i] = complex(real(v)*inv, imag(v)*inv)
	}
}

// transposeBlock is the tile edge of the cache-blocked transpose: a
// 32×32 complex128 tile is 16 KB, so one source tile plus one
// destination tile stay L1-resident while every destination line is
// written contiguously.
const transposeBlock = 32

// transposeInto writes the transpose of src's leading w×h block (w
// columns of its first h rows) into dst's leading h×w block; the rest of
// dst is untouched. The tiles are the parallel work items, so a thin
// block spreads over the pool whichever way it is thin.
//
//cardopc:noalloc
func transposeInto(dst, src *Grid2, w, h int) {
	if w > src.W || h > src.H || h > dst.W || w > dst.H {
		panic(fmt.Sprintf("fft: transpose %dx%d block of a %dx%d grid into %dx%d", w, h, src.W, src.H, dst.W, dst.H))
	}
	nxb := (w + transposeBlock - 1) / transposeBlock
	nyb := (h + transposeBlock - 1) / transposeBlock
	parallelRows(nxb*nyb, func(t int) { //cardopc:allow noalloc one fan-out closure per transpose, pinned by BenchmarkForward2's allocs/op
		x0, y0 := t/nyb*transposeBlock, t%nyb*transposeBlock
		x1, y1 := min(x0+transposeBlock, w), min(y0+transposeBlock, h)
		for x := x0; x < x1; x++ {
			d := x * dst.W
			for y := y0; y < y1; y++ {
				dst.Data[d+y] = src.Data[y*src.W+x]
			}
		}
	})
}

// transform2 runs the separable 2-D transform as row FFTs, a blocked
// transpose into pooled scratch, row FFTs again (the columns), and a
// transpose back — every FFT then walks contiguous memory instead of
// gathering strided columns. The first pass skips rows of +0s, which
// every transform maps to themselves; a band-limited kernel spectrum
// holds about as many such rows as nonzero ones.
//
//cardopc:noalloc
func transform2(g *Grid2, inverse bool) {
	parallelRows(g.H, func(y int) { //cardopc:allow noalloc one fan-out closure per pass, pinned by BenchmarkForward2's allocs/op
		if row := g.Data[y*g.W : (y+1)*g.W]; !allPosZeroC(row) {
			transform(row, inverse)
		}
	})
	t := GetGrid(g.H, g.W)
	transposeInto(t, g, g.W, g.H)
	parallelRows(t.H, func(y int) { //cardopc:allow noalloc one fan-out closure per pass, pinned by BenchmarkForward2's allocs/op
		transform(t.Data[y*t.W:(y+1)*t.W], inverse)
	})
	transposeInto(g, t, t.W, t.H)
	PutGrid(t)
}

// Shift2 swaps quadrants in place so the zero-frequency bin moves between
// corner and centre (self-inverse). Odd dimensions have no quadrant
// decomposition — the swap would scramble the grid — so they panic,
// matching transform's contract for invalid sizes.
func Shift2(g *Grid2) {
	if g.W%2 != 0 || g.H%2 != 0 {
		panic(fmt.Sprintf("fft: Shift2 requires even dimensions, got %dx%d", g.W, g.H))
	}
	hw, hh := g.W/2, g.H/2
	for y := 0; y < hh; y++ {
		for x := 0; x < g.W; x++ {
			x2 := (x + hw) % g.W
			y2 := y + hh
			i, j := y*g.W+x, y2*g.W+x2
			g.Data[i], g.Data[j] = g.Data[j], g.Data[i]
		}
	}
}
