package fft

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

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

// Forward2 computes the full forward 2-D DFT of g in place: the
// box-column forward at the full band.
func Forward2(g *Grid2) { ForwardBandCols(g, g.W/2) }

// Inverse2 computes the inverse 2-D DFT of g in place with 1/(W·H)
// normalisation: the band-row inverse at the full band, then the exact
// power-of-two reciprocal, which equals the complex division by W·H on
// every nonzero value.
func Inverse2(g *Grid2) {
	InverseBandRows(g, g.H/2)
	inv := 1 / float64(g.W*g.H)
	for i, v := range g.Data {
		g.Data[i] = complex(real(v)*inv, imag(v)*inv)
	}
}

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

// dft is the O(n²) reference transform.
func dft(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j) / float64(n)
			sum += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = sum
	}
	return out
}

func randComplex(r *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.Float64()*2-1, r.Float64()*2-1)
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// radix4 is the bit-identity oracle of the FFT kernel: the textbook
// unfused decimation-in-time radix-4 loop over the same twiddle table.
// After the bit-reversal, stages of size 4, 16, … each run every
// butterfly of (*plan).transform's comment one at a time, indexing the
// n-point table with a stride; a j = 0 butterfly skips its multiplies
// and ∓i swaps parts and flips a sign, as the kernel does. An odd
// log₂ n ends with one radix-2 stage of size n.
func radix4(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	shift := bits.LeadingZeros(uint(n)) + 1
	for i := range x {
		if j := int(bits.Reverse(uint(i)) >> shift); i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := twiddles(n)
	if inverse {
		for k, w := range tw {
			tw[k] = complex(real(w), -imag(w))
		}
	}
	// mulI multiplies by −i forward and by +i inverse.
	mulI := func(v complex128) complex128 {
		if inverse {
			return complex(-imag(v), real(v))
		}
		return complex(imag(v), -real(v))
	}
	size := 4
	for ; size <= n; size *= 4 {
		h, step := size/4, n/size
		for start := 0; start < n; start += size {
			for j := 0; j < h; j++ {
				i0, i1, i2, i3 := start+j, start+j+h, start+j+2*h, start+j+3*h
				a, b, c, d := x[i0], x[i1], x[i2], x[i3]
				if j > 0 {
					b *= tw[2*j*step]
					c *= tw[j*step]
					d *= tw[3*j*step]
				}
				x[i0] = (a + b) + (c + d)
				x[i1] = (a - b) + mulI(c-d)
				x[i2] = (a + b) - (c + d)
				x[i3] = (a - b) - mulI(c-d)
			}
		}
	}
	if size/4 < n {
		h := n / 2
		for j := 0; j < h; j++ {
			a, b := x[j], x[j+h]
			if j > 0 {
				b *= tw[j]
			}
			x[j], x[j+h] = a+b, a-b
		}
	}
}

// bitsDiff returns the first index at which got and want differ, or −1.
// Parts compare by math.Float64bits, except that a NaN need only meet a
// NaN: a NaN's payload follows the compiler's operand order, not the
// algorithm.
func bitsDiff(got, want []complex128) int {
	same := func(g, w float64) bool {
		if math.IsNaN(g) || math.IsNaN(w) {
			return math.IsNaN(g) && math.IsNaN(w)
		}
		return math.Float64bits(g) == math.Float64bits(w)
	}
	for i := range want {
		if !same(real(got[i]), real(want[i])) || !same(imag(got[i]), imag(want[i])) {
			return i
		}
	}
	return -1
}

// oracleInputs returns the input classes the bit-identity tests sweep
// at length n: random normals, normals sparse among +0 and −0,
// subnormals, ±MaxFloat64 (whose sums overflow to ±Inf and NaN), and a
// mix of ±Inf, NaN and ±0 among normals. pick draws each part from its
// values or, one time in len(vs)+1, from a normal.
func oracleInputs(r *rand.Rand, n int) map[string][]complex128 {
	gen := func(f func() float64) []complex128 {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(f(), f())
		}
		return x
	}
	negZero := math.Copysign(0, -1)
	pick := func(vs ...float64) func() float64 {
		return func() float64 {
			if v := r.Intn(len(vs) + 1); v < len(vs) {
				return vs[v]
			}
			return r.NormFloat64()
		}
	}
	return map[string][]complex128{
		"normal":       gen(r.NormFloat64),
		"signed zeros": gen(pick(0, negZero, 0)),
		"subnormal":    gen(func() float64 { return r.NormFloat64() * 0x1p-1060 }),
		"huge": gen(func() float64 {
			return math.Copysign(math.MaxFloat64*(0.5+r.Float64()/2), r.NormFloat64())
		}),
		"non-finite": gen(pick(math.Inf(1), math.Inf(-1), math.NaN(), 0, negZero)),
	}
}

func TestTransformMatchesRadix2(t *testing.T) {
	// The radix-4 kernel runs every butterfly of the textbook radix-4
	// loop with the same operands and twiddles, so every output keeps
	// its bits: at every length, in both directions, on every input
	// class.
	r := rand.New(rand.NewSource(17))
	for n := 1; n <= 8192; n *= 2 {
		for name, x := range oracleInputs(r, n) {
			for _, inverse := range []bool{false, true} {
				want := append([]complex128(nil), x...)
				radix4(want, inverse)
				got := append([]complex128(nil), x...)
				transform(got, inverse)
				if i := bitsDiff(got, want); i >= 0 {
					t.Fatalf("n=%d %s inverse=%v: element %d = %v, radix-4 gives %v", n, name, inverse, i, got[i], want[i])
				}
			}
		}
	}
}

func TestColumnsMatchTransposedRadix2(t *testing.T) {
	// The in-place column pass over a window of a strided grid equals
	// transposing the window, transforming its rows with the radix-4
	// oracle and transposing back, bit for bit; columns outside the
	// window and the stride padding stay as they were.
	r := rand.New(rand.NewSource(18))
	const width = 2*colChunk + 9
	const stride = width + 3
	windows := [][2]int{{0, 1}, {1, 3}, {4, colChunk}, {4 + colChunk, width - 4 - colChunk}}
	for h := 1; h <= 512; h *= 2 {
		for name, x := range oracleInputs(r, h*stride) {
			for _, inverse := range []bool{false, true} {
				for _, win := range windows {
					c0, nc := win[0], win[1]
					want := append([]complex128(nil), x...)
					col := make([]complex128, h)
					for c := c0; c < c0+nc; c++ {
						for y := range col {
							col[y] = want[y*stride+c]
						}
						radix4(col, inverse)
						for y, v := range col {
							want[y*stride+c] = v
						}
					}
					got := append([]complex128(nil), x...)
					getPlan(h).columns(got, stride, c0, nc, inverse)
					if i := bitsDiff(got, want); i >= 0 {
						t.Fatalf("h=%d %s inverse=%v window %v: element (%d,%d) = %v, radix-4 gives %v",
							h, name, inverse, win, i%stride, i/stride, got[i], want[i])
					}
				}
			}
		}
	}
}

// oracle2 runs radix4 over every row of g, then down every column, in
// place: the unnormalised 2-D transform.
func oracle2(g *Grid2, inverse bool) {
	w, h := g.W, g.H
	for y := 0; y < h; y++ {
		radix4(g.Data[y*w:(y+1)*w], inverse)
	}
	col := make([]complex128, h)
	for c := 0; c < w; c++ {
		for y := range col {
			col[y] = g.Data[y*w+c]
		}
		radix4(col, inverse)
		for y, v := range col {
			g.Data[y*w+c] = v
		}
	}
}

// gridDims are the grid shapes the 2-D bit-identity tests sweep.
var gridDims = [][2]int{{64, 64}, {32, 16}, {16, 32}, {1, 8}, {8, 1}, {128, 4}}

func TestTransform2MatchesRadix2(t *testing.T) {
	// Forward2 and Inverse2 equal the radix-4 oracle over rows, then
	// columns (then the exact reciprocal), bit for bit, on dense grids
	// and on grids of +0 rows beside a row of −0s.
	r := rand.New(rand.NewSource(19))
	for _, dims := range gridDims {
		w, h := dims[0], dims[1]
		for _, sparse := range []bool{false, true} {
			for _, inverse := range []bool{false, true} {
				g := NewGrid2(w, h)
				for i := range g.Data {
					g.Data[i] = complex(r.NormFloat64(), r.NormFloat64())
				}
				if sparse {
					zeroRows(g)
				}
				want := g.Clone()
				oracle2(want, inverse)
				if inverse {
					inv := 1 / float64(w*h)
					for i, v := range want.Data {
						want.Data[i] = complex(real(v)*inv, imag(v)*inv)
					}
					Inverse2(g)
				} else {
					Forward2(g)
				}
				if i := bitsDiff(g.Data, want.Data); i >= 0 {
					t.Fatalf("%dx%d sparse=%v inverse=%v: element %d = %v, radix-4 gives %v", w, h, sparse, inverse, i, g.Data[i], want.Data[i])
				}
			}
		}
	}
}

// kernelBands are the band half-widths the kernel-grid tests sweep on
// an axis of n: bands' four, plus n/4 − 1, the sweep's 15 at n = 64.
func kernelBands(n int) []int { return append(bands(n), max(n/4-1, 0)) }

func TestInverseBandRowsMatchesFull(t *testing.T) {
	// The band-row inverse equals the full inverse of the grid with its
	// rows outside |ky| ≤ k cleared, bit for bit on every element, on
	// every input class; what those rows held does not matter.
	r := rand.New(rand.NewSource(20))
	for _, dims := range gridDims {
		w, h := dims[0], dims[1]
		for name, x := range oracleInputs(r, w*h) {
			for _, k := range kernelBands(h) {
				want := &Grid2{W: w, H: h, Data: append([]complex128(nil), x...)}
				for y := k + 1; y < h-k; y++ {
					clear(want.Data[y*w : (y+1)*w])
				}
				oracle2(want, true)
				g := &Grid2{W: w, H: h, Data: append([]complex128(nil), x...)}
				InverseBandRows(g, k)
				if i := bitsDiff(g.Data, want.Data); i >= 0 {
					t.Fatalf("%dx%d %s k=%d: element (%d,%d) = %v, full inverse gives %v", w, h, name, k, i%w, i/w, g.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestForwardBandColsMatchesFull(t *testing.T) {
	// The box-column forward equals the full forward transform bit for
	// bit on the columns |kx| ≤ k it keeps, on every input class.
	r := rand.New(rand.NewSource(21))
	for _, dims := range gridDims {
		w, h := dims[0], dims[1]
		for name, x := range oracleInputs(r, w*h) {
			want := &Grid2{W: w, H: h, Data: append([]complex128(nil), x...)}
			oracle2(want, false)
			for _, k := range kernelBands(w) {
				g := &Grid2{W: w, H: h, Data: append([]complex128(nil), x...)}
				ForwardBandCols(g, k)
				for y := 0; y < h; y++ {
					for c := 0; c < w; c++ {
						if c > k && c < w-k {
							continue
						}
						i := y*w + c
						if bitsDiff(g.Data[i:i+1], want.Data[i:i+1]) >= 0 {
							t.Fatalf("%dx%d %s k=%d: element (%d,%d) = %v, full forward gives %v", w, h, name, k, c, y, g.Data[i], want.Data[i])
						}
					}
				}
			}
		}
	}
}

func TestBandTransformsPanicOutsideBand(t *testing.T) {
	// A band half-width outside [0, n/2] is a caller error.
	for name, fn := range map[string]func(*Grid2, int){"InverseBandRows": InverseBandRows, "ForwardBandCols": ForwardBandCols} {
		for _, k := range []int{-1, 9} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(16x16, %d) did not panic", name, k)
					}
				}()
				fn(NewGrid2(16, 16), k)
			}()
		}
	}
}

// FuzzTransformMatchesRadix2 drives the radix-4 kernel with arbitrary
// float64 bits: log₂ n is logn mod 13 (lengths 1…4096), and raw fills
// the real and imaginary parts eight little-endian bytes at a time,
// cycling when short (all zeros when empty). The output must meet the
// textbook radix-4 oracle by bitsDiff's rule.
func FuzzTransformMatchesRadix2(f *testing.F) {
	f.Fuzz(func(t *testing.T, logn uint8, inverse bool, raw []byte) {
		n := 1 << (logn % 13)
		word := func(i int) float64 {
			if len(raw) == 0 {
				return 0
			}
			var b [8]byte
			for j := range b {
				b[j] = raw[(8*i+j)%len(raw)]
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(word(2*i), word(2*i+1))
		}
		want := append([]complex128(nil), x...)
		radix4(want, inverse)
		transform(x, inverse)
		if i := bitsDiff(x, want); i >= 0 {
			t.Fatalf("n=%d inverse=%v: element %d = %v, radix-4 gives %v", n, inverse, i, x[i], want[i])
		}
	})
}

func TestTransform2PanicsOnNonPow2(t *testing.T) {
	// A grid that is not a power of two on either axis has no transform:
	// Forward2 and Inverse2 panic, and no such length enters the plan
	// cache.
	for _, dims := range [][2]int{{6, 4}, {4, 6}, {3, 1}} {
		for name, fn := range map[string]func(*Grid2){"Forward2": Forward2, "Inverse2": Inverse2} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%dx%d) did not panic", name, dims[0], dims[1])
					}
				}()
				fn(NewGrid2(dims[0], dims[1]))
			}()
		}
	}
	for n := range planSizes() {
		if !IsPow2(n) {
			t.Errorf("plan cache holds length %d, not a power of two", n)
		}
	}
}

func TestPow2Ceil(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 100: 128, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := Pow2Ceil(in); got != want {
			t.Errorf("Pow2Ceil(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestForwardMatchesDFT(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		x := randComplex(r, n)
		want := dft(x)
		got := append([]complex128(nil), x...)
		Forward(got)
		if e := maxErr(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: max err = %v", n, e)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	x := randComplex(r, 512)
	y := append([]complex128(nil), x...)
	Forward(y)
	Inverse(y)
	if e := maxErr(x, y); e > 1e-10 {
		t.Errorf("round trip err = %v", e)
	}
}

func TestForwardPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two length")
		}
	}()
	Forward(make([]complex128, 6))
}

func TestParsevalProperty(t *testing.T) {
	// Σ|x|² = (1/n)Σ|X|².
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := randComplex(r, 128)
		var te float64
		for _, v := range x {
			te += real(v)*real(v) + imag(v)*imag(v)
		}
		X := append([]complex128(nil), x...)
		Forward(X)
		var fe float64
		for _, v := range X {
			fe += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(te-fe/128) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestLinearityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	x := randComplex(r, 64)
	y := randComplex(r, 64)
	// FFT(x+2y) == FFT(x) + 2 FFT(y)
	sum := make([]complex128, 64)
	for i := range sum {
		sum[i] = x[i] + 2*y[i]
	}
	Forward(sum)
	X := append([]complex128(nil), x...)
	Y := append([]complex128(nil), y...)
	Forward(X)
	Forward(Y)
	for i := range X {
		X[i] += 2 * Y[i]
	}
	if e := maxErr(sum, X); e > 1e-9 {
		t.Errorf("linearity err = %v", e)
	}
}

func TestImpulseIsFlat(t *testing.T) {
	x := make([]complex128, 32)
	x[0] = 1
	Forward(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestGrid2Basics(t *testing.T) {
	g := NewGrid2(4, 2)
	g.Set(3, 1, 5)
	if g.At(3, 1) != 5 {
		t.Error("Set/At roundtrip failed")
	}
	c := g.Clone()
	c.Set(0, 0, 7)
	if g.At(0, 0) == 7 {
		t.Error("Clone must not alias")
	}
	g.Fill(2)
	for _, v := range g.Data {
		if v != 2 {
			t.Fatal("Fill failed")
		}
	}
}

func TestForward2RoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g := NewGrid2(32, 16)
	for i := range g.Data {
		g.Data[i] = complex(r.Float64(), r.Float64())
	}
	orig := g.Clone()
	Forward2(g)
	Inverse2(g)
	if e := maxErr(g.Data, orig.Data); e > 1e-10 {
		t.Errorf("2D round trip err = %v", e)
	}
}

func TestForward2MatchesSeparableDFT(t *testing.T) {
	// 2-D impulse at origin transforms to an all-ones field.
	g := NewGrid2(8, 8)
	g.Set(0, 0, 1)
	Forward2(g)
	for i, v := range g.Data {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v", i, v)
		}
	}
}

// dft2 is the O(n³) separable 2-D reference: row DFTs then column DFTs.
func dft2(g *Grid2) *Grid2 {
	out := NewGrid2(g.W, g.H)
	for y := 0; y < g.H; y++ {
		copy(out.Data[y*g.W:(y+1)*g.W], dft(g.Data[y*g.W:(y+1)*g.W]))
	}
	col := make([]complex128, g.H)
	for x := 0; x < g.W; x++ {
		for y := 0; y < g.H; y++ {
			col[y] = out.At(x, y)
		}
		for y, v := range dft(col) {
			out.Set(x, y, v)
		}
	}
	return out
}

func TestForward2NonSquareMatchesDFT(t *testing.T) {
	// Guards the in-place column pass on rectangular grids, where a
	// wrong stride or window cannot cancel out the way it might on square
	// ones.
	// The sparse grids add rows of +0s, which the first pass skips, and a
	// row of −0s, which it must transform; both directions are checked,
	// the inverse against the conjugate DFT.
	r := rand.New(rand.NewSource(7))
	for _, dims := range [][2]int{{32, 16}, {16, 32}, {64, 4}, {8, 8}} {
		for _, sparse := range []bool{false, true} {
			g := NewGrid2(dims[0], dims[1])
			for i := range g.Data {
				g.Data[i] = complex(r.Float64()*2-1, r.Float64()*2-1)
			}
			if sparse {
				zeroRows(g)
			}
			want := dft2(g)
			back := g.Clone()
			Forward2(g)
			if e := maxErr(g.Data, want.Data); e > 1e-9*float64(dims[0]*dims[1]) {
				t.Errorf("%dx%d sparse %v: max err = %v", dims[0], dims[1], sparse, e)
			}
			// Inverse2(x) = conj(DFT(conj x))/(W·H).
			for i, v := range back.Data {
				back.Data[i] = cmplx.Conj(v)
			}
			wantInv := dft2(back)
			for i, v := range back.Data {
				back.Data[i] = cmplx.Conj(v)
			}
			Inverse2(back)
			for i, v := range wantInv.Data {
				wantInv.Data[i] = cmplx.Conj(v) / complex(float64(dims[0]*dims[1]), 0)
			}
			if e := maxErr(back.Data, wantInv.Data); e > 1e-12 {
				t.Errorf("%dx%d sparse %v: inverse max err = %v", dims[0], dims[1], sparse, e)
			}
		}
	}
}

// zeroRows clears every row but the last of each group of three to +0,
// sets row 1 to −0 and clears only the real parts of the last row: the
// cases the zero-row skip must tell apart.
func zeroRows(g *Grid2) {
	for y := 0; y < g.H; y++ {
		row := g.Data[y*g.W : (y+1)*g.W]
		switch {
		case y == 1:
			for x := range row {
				row[x] = complex(math.Copysign(0, -1), math.Copysign(0, -1))
			}
		case y == g.H-1:
			for x, v := range row {
				row[x] = complex(0, imag(v))
			}
		case y%3 != 2:
			clear(row)
		}
	}
}

func TestTransformOfPositiveZerosIsPositiveZeros(t *testing.T) {
	// The lemma behind every zero-row skip: a vector of +0s leaves each
	// butterfly as +0s (a + b and a − b of +0 and ±0 are +0), in both
	// directions and at every length.
	for n := 1; n <= 4096; n *= 2 {
		for _, inverse := range []bool{false, true} {
			x := make([]complex128, n)
			transform(x, inverse)
			for i, v := range x {
				if math.Float64bits(real(v))|math.Float64bits(imag(v)) != 0 {
					t.Fatalf("n=%d inverse=%v: element %d = %v, want +0+0i", n, inverse, i, v)
				}
			}
		}
	}
}

func TestInverse2ReciprocalMatchesDivision(t *testing.T) {
	// Inverse2 normalises by the exact power-of-two reciprocal of W·H;
	// that equals the complex division on every value, subnormal results
	// included (== leaves out only the sign of an exact zero).
	r := rand.New(rand.NewSource(8))
	for _, c := range []struct {
		w, h  int
		scale float64
	}{{64, 64, 1e3}, {32, 16, 1}, {1, 8, 1}, {64, 64, 1e-312}} {
		dims := [2]int{c.w, c.h}
		g := NewGrid2(c.w, c.h)
		for i := range g.Data {
			g.Data[i] = complex(r.NormFloat64()*c.scale, r.NormFloat64()*c.scale)
		}
		want := g.Clone()
		InverseBandRows(want, c.h/2)
		n := complex(float64(dims[0]*dims[1]), 0)
		for i := range want.Data {
			want.Data[i] /= n
		}
		Inverse2(g)
		for i, v := range g.Data {
			if v != want.Data[i] {
				t.Fatalf("%dx%d: element %d = %v, division gives %v", dims[0], dims[1], i, v, want.Data[i])
			}
		}
	}
}

func TestPlanCacheBounded(t *testing.T) {
	// Concurrent transforms over more distinct lengths than maxPlans must
	// leave the plan cache capped (and survive -race).
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := 1; p <= 20; p++ {
				x := make([]complex128, 1<<p)
				x[0] = complex(float64(w), 0)
				Forward(x)
			}
		}(w)
	}
	wg.Wait()
	if n := planCount(); n > maxPlans {
		t.Errorf("plan cache holds %d entries, cap is %d", n, maxPlans)
	}
	// The cache keeps working after evictions.
	x := []complex128{1, 0, 0, 0}
	Forward(x)
	Inverse(x)
	if cmplx.Abs(x[0]-1) > 1e-12 {
		t.Errorf("round trip after eviction: %v", x[0])
	}
}

func BenchmarkForward1024(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randComplex(r, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Forward(x)
	}
}

func BenchmarkForward2_256(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	g := NewGrid2(256, 256)
	for i := range g.Data {
		g.Data[i] = complex(r.Float64(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Forward2(g)
	}
}

// BenchmarkInverse2_64 times the transform the SOCS kernel sweep runs
// 230 times per clip: the band-row inverse of a 64² spectrum nonzero
// only on a 31² box wrapped around bin 0, as litho's spectrumInto
// leaves it, at the box's half-width 15. The transform runs in place, so
// each iteration copies the spectrum in first.
func BenchmarkInverse2_64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	spec := NewGrid2(64, 64)
	for y := -15; y <= 15; y++ {
		for x := -15; x <= 15; x++ {
			spec.Set(x&63, y&63, complex(r.NormFloat64(), r.NormFloat64()))
		}
	}
	g := NewGrid2(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(g.Data, spec.Data)
		InverseBandRows(g, 15)
	}
}

// touchPlan exercises the plan cache for length n without the cost of a
// real transform being the point.
func touchPlan(n int) {
	Forward(make([]complex128, n))
}

func TestPlanEvictionLRU(t *testing.T) {
	// Cycling through more sizes than maxPlans must keep the most
	// recently used plans and evict in strict least-recently-used order.
	defer resetPlans()
	resetPlans()

	// Fill the cache: sizes 2^1 .. 2^maxPlans, oldest first.
	for p := 1; p <= maxPlans; p++ {
		touchPlan(1 << p)
	}
	if n := planCount(); n != maxPlans {
		t.Fatalf("cache holds %d plans after filling, want %d", n, maxPlans)
	}

	// Refresh the oldest entry, then overflow: the eviction must take
	// 2^2 (now the stalest), not the freshly refreshed 2^1.
	touchPlan(1 << 1)
	touchPlan(1 << (maxPlans + 1))
	got := planSizes()
	if !got[1<<1] {
		t.Error("refreshed plan 2^1 was evicted; LRU must keep it")
	}
	if got[1<<2] {
		t.Error("stalest plan 2^2 survived the eviction")
	}
	if !got[1<<(maxPlans+1)] {
		t.Error("newly inserted plan missing")
	}

	// Overflowing repeatedly evicts in insertion order: 2^3, 2^4, ...
	for i := 2; i <= 4; i++ {
		touchPlan(1 << (maxPlans + i))
		if sizes := planSizes(); sizes[1<<(i+1)] {
			t.Errorf("plan 2^%d survived; expected LRU eviction order 2^3, 2^4, ...", i+1)
		}
	}
}

func TestPlanEvictionReproducible(t *testing.T) {
	// The same access sequence leaves the same resident set — eviction
	// must not depend on map iteration order.
	defer resetPlans()
	run := func() map[int]bool {
		resetPlans()
		for p := 1; p <= maxPlans+5; p++ {
			touchPlan(1 << p)
		}
		touchPlan(1 << 3) // miss: already evicted, re-inserted, evicting another
		touchPlan(1 << 7)
		return planSizes()
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("trial %d: %d resident plans, want %d", trial, len(again), len(first))
		}
		for k := range first {
			if !again[k] {
				t.Fatalf("trial %d: plan %d missing from resident set", trial, k)
			}
		}
	}
}
