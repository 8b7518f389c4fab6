// Package fft provides hand-written fast Fourier transforms used by the
// lithography simulator and the pixel ILT engine: 2-D transforms built on
// an iterative radix-2 complex FFT that runs two butterfly stages per pass,
// with column passes in place on the grid, real-input transforms
// parallelised over a persistent worker pool, and pooled scratch
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

// plan caches, per transform length, the bit-reversal transpositions and
// the twiddles of every butterfly stage in both directions, so the
// butterfly loops carry no per-element conjugation branch and read their
// twiddles contiguously.
type plan struct {
	n int
	// swaps lists the bit-reversal transpositions as (i, j) pairs with
	// i < j, flattened.
	swaps []int32
	// stages[s] holds the twiddles of the stage of size 2<<s,
	// e^{-2πi k/(2<<s)} for k in [0, 1<<s), copied from the n-point
	// table so every twiddle keeps its bits at every length; stagesInv
	// holds their conjugates.
	stages, stagesInv [][]complex128
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

// newPlan builds the plan for the power of two n.
func newPlan(n int) *plan {
	p := &plan{n: n}
	shift := bits.LeadingZeros(uint(n)) + 1
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse(uint(i)) >> shift); i < j {
			p.swaps = append(p.swaps, int32(i), int32(j))
		}
	}
	tw := make([]complex128, n/2)
	for k := range tw {
		ang := -2 * math.Pi * float64(k) / float64(n)
		tw[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	fwd := make([]complex128, 0, n-1)
	inv := make([]complex128, 0, n-1)
	for size := 2; size <= n; size <<= 1 {
		lo := len(fwd)
		for k := 0; k < size/2; k++ {
			w := tw[k*(n/size)]
			fwd = append(fwd, w)
			inv = append(inv, complex(real(w), -imag(w)))
		}
		p.stages = append(p.stages, fwd[lo:len(fwd):len(fwd)])
		p.stagesInv = append(p.stagesInv, inv[lo:len(inv):len(inv)])
	}
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

// transform runs the unnormalised DFT of x in place; len(x) must be a
// power of two (getPlan panics otherwise).
func transform(x []complex128, inverse bool) {
	if len(x) <= 1 {
		return
	}
	getPlan(len(x)).transform(x, inverse)
}

// transform runs the unnormalised DFT of x[:p.n] in place. It is the
// textbook decimation-in-time radix-2 transform — bit-reversal, then
// stages of size 2, 4, …, n, each butterfly b := hi·w; lo, hi = a+b, a−b
// — with two stages fused per pass: a group of four elements goes
// through stages s and s+1 in registers. Every butterfly keeps its
// operands and twiddle, so the output is bit for bit the radix-2 loop's.
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
	st := p.stages
	if inverse {
		st = p.stagesInv
	}
	s := 0
	if n >= 4 {
		// Stages of size 2 and 4: three scalar twiddles.
		w1, w2, w3 := st[0][0], st[1][0], st[1][1]
		for i := 0; i+4 <= n; i += 4 {
			q := x[i : i+4 : i+4]
			a0, a1, a2, a3 := q[0], q[1], q[2], q[3]
			b := a1 * w1
			a0, a1 = a0+b, a0-b
			b = a3 * w1
			a2, a3 = a2+b, a2-b
			b = a2 * w2
			q[0], q[2] = a0+b, a0-b
			b = a3 * w3
			q[1], q[3] = a1+b, a1-b
		}
		s = 2
	}
	for ; s+1 < len(st); s += 2 {
		h := 1 << s
		t1, t2, t3 := st[s][:h], st[s+1][:h], st[s+1][h:][:h]
		for i := 0; i+4*h <= n; i += 4 * h {
			q := x[i : i+4*h]
			x0, x1, x2, x3 := q[:h], q[h:][:h], q[2*h:][:h], q[3*h:][:h]
			for j, w := range t1 {
				a0, a1, a2, a3 := x0[j], x1[j], x2[j], x3[j]
				b := a1 * w
				a0, a1 = a0+b, a0-b
				b = a3 * w
				a2, a3 = a2+b, a2-b
				b = a2 * t2[j]
				x0[j], x2[j] = a0+b, a0-b
				b = a3 * t3[j]
				x1[j], x3[j] = a1+b, a1-b
			}
		}
	}
	if s < len(st) {
		// Odd log₂ n: the stage of size n runs alone.
		h := n / 2
		lo, hi := x[:h], x[h:][:h]
		for j, w := range st[s][:h] {
			a := lo[j]
			b := hi[j] * w
			lo[j], hi[j] = a+b, a-b
		}
	}
}

// columns runs transform down columns c0 … c0+nc−1 of the row-major grid
// data, p.n rows of stride elements, in place. The bit-reversal swaps
// exchange row segments and each butterfly combines two row segments
// with one twiddle, so every column goes through exactly the arithmetic
// transform applies to a row: the result is bit for bit that of
// transposing, transforming rows and transposing back.
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
	st := p.stages
	if inverse {
		st = p.stagesInv
	}
	s := 0
	for ; s+1 < len(st); s += 2 {
		h := 1 << s
		t1, t2, t3 := st[s][:h], st[s+1][:h], st[s+1][h:][:h]
		for i := 0; i+4*h <= n; i += 4 * h {
			for j, w := range t1 {
				r := i + j
				butterflies4(seg(r), seg(r+h), seg(r+2*h), seg(r+3*h), w, t2[j], t3[j])
			}
		}
	}
	if s < len(st) {
		h := n / 2
		for j, w := range st[s][:h] {
			lo, hi := seg(j), seg(j+h)
			hi = hi[:len(lo)]
			for c, a := range lo {
				b := hi[c] * w
				lo[c], hi[c] = a+b, a-b
			}
		}
	}
}

// butterflies4 runs two fused radix-2 stages elementwise over four
// equal-length row segments: stage s pairs (x0, x1) and (x2, x3) with
// twiddle w1, stage s+1 pairs (x0, x2) with w2 and (x1, x3) with w3.
func butterflies4(x0, x1, x2, x3 []complex128, w1, w2, w3 complex128) {
	x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
	for c, a0 := range x0 {
		a1, a2, a3 := x1[c], x2[c], x3[c]
		b := a1 * w1
		a0, a1 = a0+b, a0-b
		b = a3 * w1
		a2, a3 = a2+b, a2-b
		b = a2 * w2
		x0[c], x2[c] = a0+b, a0-b
		b = a3 * w3
		x1[c], x3[c] = a1+b, a1-b
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

// Forward2 computes the in-place forward 2-D DFT of g (rows then columns)
// on the caller's goroutine. Its callers are kernel-sized transforms
// that already run one per worker, so a fan-out would only contend for
// the same CPUs.
//
//cardopc:noalloc
func Forward2(g *Grid2) {
	obs.C("fft.forward2").Inc()
	transform2(g, false)
}

// Inverse2 computes the in-place inverse 2-D DFT of g with 1/(W·H)
// normalisation, on the caller's goroutine as Forward2 does. W·H is a
// power of two, so the normalisation multiplies by its exact
// reciprocal: every nonzero value equals the complex division by W·H,
// and only the sign of an exact zero can differ.
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

// transform2 runs the separable 2-D transform serially: row transforms,
// then column transforms in place over windows of colChunk columns. The
// row pass skips rows of +0s, which every transform maps to themselves;
// a band-limited kernel spectrum holds about as many such rows as
// nonzero ones.
//
//cardopc:noalloc
func transform2(g *Grid2, inverse bool) {
	pr, pc := getPlan(g.W), getPlan(g.H)
	for y := 0; y < g.H; y++ {
		if row := g.Data[y*g.W : (y+1)*g.W]; !allPosZeroC(row) {
			pr.transform(row, inverse)
		}
	}
	for c0 := 0; c0 < g.W; c0 += colChunk {
		pc.columns(g.Data, g.W, c0, min(colChunk, g.W-c0), inverse)
	}
}
