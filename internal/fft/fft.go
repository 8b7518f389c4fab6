// Package fft provides hand-written fast Fourier transforms used by the
// lithography simulator and the pixel ILT engine: 2-D transforms built on
// an iterative radix-4 complex FFT, with column passes in place on the
// grid, kernel-grid transforms that do only the rows or columns of a
// band, real-input transforms parallelised over a persistent worker
// pool, and pooled scratch workspaces so the litho hot path runs
// allocation-free in steady state.
//
// All transforms are in-place over []complex128 and require power-of-two
// lengths; Pow2Ceil helps callers pick grid sizes.
//
// Numerics: every transform runs the same radix-4 butterflies, so a row,
// a column and the matching row or column of a 2-D or real-input
// transform keep the same bits, and a band transform keeps the bits of
// the full transform on everything it computes. Those bits are not the
// radix-2 loop's: a butterfly's operands differ, so results differ from
// it at rounding level.
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

// plan caches, per transform length, the bit-reversal transpositions and
// the twiddles of every butterfly pass in both directions, so the
// butterfly loops carry no per-element conjugation branch and read their
// twiddles contiguously.
type plan struct {
	n int
	// swaps lists the bit-reversal transpositions as (i, j) pairs with
	// i < j, flattened.
	swaps []int32
	// passes[p] holds the twiddles of radix-4 pass p, which combines
	// four transforms of length h = 4^p into one of length 4h: three
	// blocks of h, W^j, W^{2j} and W^{3j} for j in [0, h) with
	// W = e^{−2πi/(4h)}. passesInv holds their conjugates.
	passes, passesInv [][]complex128
	// last holds the twiddles of the radix-2 stage that ends an odd
	// log₂ n, e^{−2πi j/n} for j in [0, n/2); lastInv their conjugates.
	last, lastInv []complex128
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

// getPlan returns the cached plan for length n. Callers hold a plan for
// a whole pass, so a length that is not a power of two panics here,
// before it can enter the cache.
func getPlan(n int) *plan {
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
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
	p = newPlan(n)
	if len(plans) >= maxPlans {
		evictLRUPlanLocked()
	}
	p.lastUse.Store(planClock.Add(1))
	plans[n] = p
	return p
}

// newPlan builds the plan for the power of two n. Every twiddle is read
// from one n-point table e^{−2πik/n}, k < 3n/4, whose entry for a given
// angle has the same bits at every length.
func newPlan(n int) *plan {
	p := &plan{n: n}
	shift := bits.LeadingZeros(uint(n)) + 1
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse(uint(i)) >> shift); i < j {
			p.swaps = append(p.swaps, int32(i), int32(j))
		}
	}
	tw := twiddles(n)
	conj := func(w []complex128) []complex128 {
		c := make([]complex128, len(w))
		for i, v := range w {
			c[i] = complex(real(v), -imag(v))
		}
		return c
	}
	h := 1
	for ; 4*h <= n; h *= 4 {
		step := n / (4 * h)
		fwd := make([]complex128, 3*h)
		for j := 0; j < h; j++ {
			fwd[j], fwd[h+j], fwd[2*h+j] = tw[j*step], tw[2*j*step], tw[3*j*step]
		}
		p.passes = append(p.passes, fwd)
		p.passesInv = append(p.passesInv, conj(fwd))
	}
	if h < n {
		half := n / 2
		p.last = tw[:half:half]
		p.lastInv = conj(p.last)
	}
	return p
}

// twiddles returns e^{−2πik/n} for k in [0, 3n/4).
func twiddles(n int) []complex128 {
	tw := make([]complex128, 3*n/4)
	for k := range tw {
		ang := -2 * math.Pi * float64(k) / float64(n)
		tw[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	return tw
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

// transform runs the unnormalised DFT of x in place; len(x) must be a
// power of two (getPlan panics otherwise).
func transform(x []complex128, inverse bool) {
	if len(x) <= 1 {
		return
	}
	getPlan(len(x)).transform(x, inverse)
}

// transform runs the unnormalised DFT of x[:p.n] in place. It is the
// decimation-in-time radix-4 transform: bit-reversal, then passes that
// each combine four transforms of length h = 1, 4, 16, … into one of
// length 4h, and for an odd log₂ n one radix-2 stage of length n. A
// radix-4 butterfly over the quarters x0 … x3 at offset j computes
//
//	a, b, c, d = x0, x1·W^{2j}, x2·W^j, x3·W^{3j}
//	x0, x2 = (a+b) + (c+d), (a+b) − (c+d)
//	x1, x3 = (a−b) ∓ i(c−d), (a−b) ± i(c−d)
//
// with the upper signs forward and W = e^{∓2πi/(4h)}. A j = 0 butterfly
// skips its twiddle multiplies, and ∓i is a swap of parts plus a sign
// flip, not a complex multiply.
func (p *plan) transform(x []complex128, inverse bool) {
	n := p.n
	if n <= 1 {
		return
	}
	x = x[:n]
	sw := p.swaps
	for i := 1; i < len(sw); i += 2 {
		a, b := sw[i-1], sw[i]
		x[a], x[b] = x[b], x[a]
	}
	passes, last := p.passes, p.last
	if inverse {
		passes, last = p.passesInv, p.lastInv
	}
	h := 1
	if len(passes) > 0 {
		// The first pass (h = 1) has only j = 0 butterflies.
		i1, i3 := 1, 3
		if inverse {
			i1, i3 = 3, 1
		}
		for i := 0; i+4 <= n; i += 4 {
			q := x[i : i+4 : i+4]
			q[0], q[i1], q[2], q[i3] = butterfly4(q[0], q[1], q[2], q[3])
		}
		h = 4
	}
	for _, tw := range passes[min(1, len(passes)):] {
		t1, t2, t3 := tw[:h], tw[h:][:h], tw[2*h:][:h]
		for i := 0; i < n; i += 4 * h {
			x0, x1, x2, x3 := x[i:][:h], x[i+h:][:h], x[i+2*h:][:h], x[i+3*h:][:h]
			o1, o3 := x1, x3
			if inverse {
				o1, o3 = x3, x1
			}
			o1, o3 = o1[:h], o3[:h]
			x0[0], o1[0], x2[0], o3[0] = butterfly4(x0[0], x1[0], x2[0], x3[0])
			for j := 1; j < h; j++ {
				x0[j], o1[j], x2[j], o3[j] = butterfly4(x0[j], x1[j]*t2[j], x2[j]*t1[j], x3[j]*t3[j])
			}
		}
		h *= 4
	}
	if h < n {
		// Odd log₂ n: the radix-2 stage of length n.
		lo, hi, w := x[:h], x[h:][:h], last[:h]
		lo[0], hi[0] = lo[0]+hi[0], lo[0]-hi[0]
		for j := 1; j < h; j++ {
			a, b := lo[j], hi[j]*w[j]
			lo[j], hi[j] = a+b, a-b
		}
	}
}

// butterfly4 is the radix-4 butterfly of the quarters a, b, c, d with
// their twiddles applied: (a+b) + (c+d), (a−b) − i(c−d), (a+b) − (c+d)
// and (a−b) + i(c−d). The inverse stores the second and fourth results
// in each other's place.
func butterfly4(a, b, c, d complex128) (y0, y1, y2, y3 complex128) {
	s0, s1 := a+b, a-b
	s2, s3 := c+d, c-d
	m := complex(imag(s3), -real(s3))
	return s0 + s2, s1 + m, s0 - s2, s1 - m
}

// columns runs transform down columns c0 … c0+nc−1 of the row-major grid
// data, p.n rows of stride elements, in place. The bit-reversal swaps
// exchange row segments and each butterfly combines row segments with
// one twiddle per quarter, so every column goes through exactly the
// arithmetic transform applies to a row: the result is bit for bit that
// of transposing, transforming rows and transposing back.
func (p *plan) columns(data []complex128, stride, c0, nc int, inverse bool) {
	n := p.n
	if n <= 1 || nc <= 0 {
		return
	}
	seg := func(r int) []complex128 { return data[r*stride+c0:][:nc] }
	sw := p.swaps
	for i := 1; i < len(sw); i += 2 {
		ra, rb := seg(int(sw[i-1])), seg(int(sw[i]))
		for c, v := range ra {
			ra[c], rb[c] = rb[c], v
		}
	}
	passes, last := p.passes, p.last
	if inverse {
		passes, last = p.passesInv, p.lastInv
	}
	h := 1
	for _, tw := range passes {
		for i := 0; i < n; i += 4 * h {
			for j := 0; j < h; j++ {
				x0 := seg(i + j)
				x1, x2, x3 := seg(i + j + h)[:len(x0)], seg(i + j + 2*h)[:len(x0)], seg(i + j + 3*h)[:len(x0)]
				o1, o3 := x1, x3
				if inverse {
					o1, o3 = x3, x1
				}
				o1, o3 = o1[:len(x0)], o3[:len(x0)]
				if j == 0 {
					for c, a := range x0 {
						x0[c], o1[c], x2[c], o3[c] = butterfly4(a, x1[c], x2[c], x3[c])
					}
					continue
				}
				w1, w2, w3 := tw[j], tw[h+j], tw[2*h+j]
				for c, a := range x0 {
					x0[c], o1[c], x2[c], o3[c] = butterfly4(a, x1[c]*w2, x2[c]*w1, x3[c]*w3)
				}
			}
		}
		h *= 4
	}
	if h < n {
		for j := 0; j < h; j++ {
			lo := seg(j)
			hi := seg(j + h)[:len(lo)]
			if j == 0 {
				for c, a := range lo {
					b := hi[c]
					lo[c], hi[c] = a+b, a-b
				}
				continue
			}
			w := last[j]
			for c, a := range lo {
				b := hi[c] * w
				lo[c], hi[c] = a+b, a-b
			}
		}
	}
}

// colChunk is the column-window width of the in-place column passes: a
// window of 16 complex128 is 256 bytes per row, so a 512-row window
// (128 KB) stays cache-resident through every stage while each row
// segment is read contiguously. Measured against 4, 8 and 32 on the
// 64² kernel transforms and the 512² raster transforms.
const colChunk = 16

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

// The kernel-grid transforms. The SOCS sweep and its adjoint run one
// small m×m transform per kernel whose input or output is nonzero or
// read only within the kernel's box, |k| ≤ a on one axis, so each
// transform does the 1-D transforms of that axis's band alone. Both run
// on the caller's goroutine: their callers already run one worker per
// CPU over the kernels, so a fan-out would only contend for the same
// CPUs.

// InverseBandRows computes, in place, the unnormalised inverse 2-D DFT
// of g with its rows outside |ky| ≤ k taken as zero, 0 ≤ k ≤ H/2: rows
// 0…k and H−k…H−1 are transformed, the rows between are cleared, and
// every column is transformed. A transform maps +0s to +0s, so the
// result is bit for bit the full inverse of g with those rows cleared.
// It carries no 1/(W·H) factor; that is an exact power of two, so a
// caller folds it into whatever scale it applies next.
//
//cardopc:noalloc
func InverseBandRows(g *Grid2, k int) {
	obs.C("fft.inverse2").Inc()
	pr, pc := getPlan(g.W), getPlan(g.H)
	checkBand(k, g.H)
	for y := 0; y < g.H; y++ {
		row := g.Data[y*g.W:][:g.W]
		if y <= k || y >= g.H-k {
			pr.transform(row, true)
		} else {
			clear(row)
		}
	}
	for c0 := 0; c0 < g.W; c0 += colChunk {
		pc.columns(g.Data, g.W, c0, min(colChunk, g.W-c0), true)
	}
}

// ForwardBandCols computes, in place, the forward 2-D DFT of g on its
// columns |kx| ≤ k, 0 ≤ k ≤ W/2: every row is transformed, then columns
// 0…k and W−k…W−1 only. Those columns hold the bits of the full forward
// transform; the columns between hold row transforms, unspecified to the
// caller.
//
//cardopc:noalloc
func ForwardBandCols(g *Grid2, k int) {
	obs.C("fft.forward2").Inc()
	pr, pc := getPlan(g.W), getPlan(g.H)
	checkBand(k, g.W)
	for y := 0; y < g.H; y++ {
		pr.transform(g.Data[y*g.W:][:g.W], false)
	}
	for c0 := 0; c0 <= k; c0 += colChunk {
		pc.columns(g.Data, g.W, c0, min(colChunk, k+1-c0), false)
	}
	for c0 := max(k+1, g.W-k); c0 < g.W; c0 += colChunk {
		pc.columns(g.Data, g.W, c0, min(colChunk, g.W-c0), false)
	}
}
