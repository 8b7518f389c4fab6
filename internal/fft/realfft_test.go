package fft

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"testing/quick"
)

// realSizes are the dimension pairs the property tests sweep: the
// smallest valid sizes (1×1, 2×1, 1×2), a thin row/column, and
// representative square/rectangular grids.
var realSizes = [][2]int{
	{1, 1}, {2, 1}, {1, 2}, {2, 2}, {4, 2}, {2, 4},
	{8, 8}, {16, 4}, {4, 16}, {32, 16}, {64, 8},
}

func randReal(r *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Float64()*2 - 1
	}
	return x
}

// complexForward2 is the reference: load the real field into a complex
// grid and run the full complex transform.
func complexForward2(src []float64, w, h int) *Grid2 {
	g := NewGrid2(w, h)
	for i, v := range src {
		g.Data[i] = complex(v, 0)
	}
	Forward2(g)
	return g
}

func TestRealForward2MatchesForward2(t *testing.T) {
	// Each size runs dense, then sparse (zeroRealRows): the dense call
	// leaves its packed rows in the pooled scratch, so a skipped pair
	// that did not clear its row would unpack them.
	r := rand.New(rand.NewSource(11))
	for _, dims := range realSizes {
		w, h := dims[0], dims[1]
		for _, sparse := range []bool{false, true} {
			src := randReal(r, w*h)
			if sparse {
				zeroRealRows(src, w, h)
			}
			want := complexForward2(src, w, h)
			hs := NewHalf2(w, h)
			RealForward2Into(hs, src, w/2)
			got := NewGrid2(w, h)
			ExpandHalfInto(got, hs)
			if e := maxErr(got.Data, want.Data); e > 1e-9*float64(w*h) {
				t.Errorf("%dx%d sparse %v: max err vs Forward2 = %v", w, h, sparse, e)
			}
		}
	}
}

// zeroRealRows is zeroRows for a real w×h field: packed pairs with both
// rows +0 (skipped), one row +0, and a row of −0 (transformed).
func zeroRealRows(src []float64, w, h int) {
	for y := 0; y < h; y++ {
		row := src[y*w : (y+1)*w]
		switch {
		case y == 1:
			for x := range row {
				row[x] = math.Copysign(0, -1)
			}
		case y%3 != 2:
			clear(row)
		}
	}
}

func TestRealForward2NyquistContent(t *testing.T) {
	// Pure Nyquist-row and Nyquist-column content is where a sloppy
	// DC/Nyquist unpack shows: both land on self-conjugate bins of the
	// packed transform. cos(π·x)·cos(π·y) concentrates all energy in the
	// (w/2, h/2) bin; the half-spectrum must carry it bit-exactly real.
	for _, dims := range [][2]int{{2, 2}, {4, 4}, {8, 4}, {16, 16}} {
		w, h := dims[0], dims[1]
		src := make([]float64, w*h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				src[y*w+x] = math.Cos(math.Pi*float64(x)) * math.Cos(math.Pi*float64(y))
			}
		}
		want := complexForward2(src, w, h)
		hs := NewHalf2(w, h)
		RealForward2Into(hs, src, w/2)
		got := NewGrid2(w, h)
		ExpandHalfInto(got, hs)
		if e := maxErr(got.Data, want.Data); e > 1e-9*float64(w*h) {
			t.Errorf("%dx%d Nyquist field: max err = %v", w, h, e)
		}
		// The Nyquist-Nyquist bin carries all the energy, purely real.
		nyq := hs.Data[(h/2)*hs.Grid2.W+w/2]
		if math.Abs(real(nyq)-float64(w*h)) > 1e-9 || math.Abs(imag(nyq)) > 1e-9 {
			t.Errorf("%dx%d: Nyquist bin = %v, want %d", w, h, nyq, w*h)
		}
	}
}

func TestRealForward2Property(t *testing.T) {
	// Any seeded random real field matches the complex reference; quick
	// drives the seeds.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const w, h = 16, 8
		src := randReal(r, w*h)
		want := complexForward2(src, w, h)
		hs := NewHalf2(w, h)
		RealForward2Into(hs, src, w/2)
		got := NewGrid2(w, h)
		ExpandHalfInto(got, hs)
		return maxErr(got.Data, want.Data) < 1e-9*float64(w*h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRealRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, dims := range realSizes {
		w, h := dims[0], dims[1]
		for _, sparse := range []bool{false, true} {
			src := randReal(r, w*h)
			if sparse {
				zeroRealRows(src, w, h)
			}
			hs := NewHalf2(w, h)
			RealForward2Into(hs, src, w/2)
			back := make([]float64, w*h)
			RealInverse2Into(back, hs, w/2, nil)
			for i := range src {
				if math.Abs(src[i]-back[i]) > 1e-10 {
					t.Errorf("%dx%d sparse %v: round trip err %v at %d", w, h, sparse, src[i]-back[i], i)
					break
				}
			}
		}
	}
}

func TestRealInverse2RowSet(t *testing.T) {
	// With a row set the inverse computes every selected row bit for bit
	// as the full inverse does, and writes no row of a pair it skips:
	// those rows keep their NaN fill.
	r := rand.New(rand.NewSource(17))
	for _, n := range []int{2, 16, 64, 512} {
		spec := NewHalf2(n, n)
		RealForward2Into(spec, randReal(r, n*n), n/2)
		sets := map[string][]bool{"empty": make([]bool, n), "single": make([]bool, n), "odd": make([]bool, n), "random": make([]bool, n)}
		sets["single"][(n/2+1)%n] = true
		for y := range sets["odd"] {
			sets["odd"][y] = y%2 == 1
			sets["random"][y] = r.Intn(5) == 0
		}
		for _, k := range bands(n) {
			scratch := NewHalf2(n, n)
			copy(scratch.Data, spec.Data)
			want := make([]float64, n*n)
			RealInverse2Into(want, scratch, k, nil)
			for name, rows := range sets {
				copy(scratch.Data, spec.Data)
				got := make([]float64, n*n)
				for i := range got {
					got[i] = math.NaN()
				}
				RealInverse2Into(got, scratch, k, rows)
				for y := 0; y < n; y++ {
					for x := 0; x < n; x++ {
						i := y*n + x
						switch {
						case rows[y] && math.Float64bits(got[i]) != math.Float64bits(want[i]):
							t.Fatalf("n=%d band %d %s rows: selected pixel (%d,%d) = %v, full inverse %v", n, k, name, x, y, got[i], want[i])
						case !rows[y] && !rows[y^1] && !math.IsNaN(got[i]):
							t.Fatalf("n=%d band %d %s rows: skipped pixel (%d,%d) written (%v)", n, k, name, x, y, got[i])
						}
					}
				}
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RealInverse2Into with a 3-row set for a 4-row field did not panic")
			}
		}()
		RealInverse2Into(make([]float64, 16), NewHalf2(4, 4), 2, make([]bool, 3))
	}()
}

func TestRealInverse2MatchesInverse2(t *testing.T) {
	// A processed (but still Hermitian) spectrum inverts to the same
	// real field as the full complex inverse.
	r := rand.New(rand.NewSource(13))
	const w, h = 16, 8
	src := randReal(r, w*h)
	full := complexForward2(src, w, h)
	// Scale the spectrum (a real, symmetric filter) so the inverse path
	// sees something other than what the forward just produced.
	for i := range full.Data {
		full.Data[i] *= 0.5
	}
	Inverse2(full)

	hs := NewHalf2(w, h)
	RealForward2Into(hs, src, w/2)
	for i := range hs.Data {
		hs.Data[i] *= 0.5
	}
	got := make([]float64, w*h)
	RealInverse2Into(got, hs, w/2, nil)
	for i := range got {
		if math.Abs(got[i]-real(full.Data[i])) > 1e-10 {
			t.Fatalf("inverse mismatch at %d: %v vs %v", i, got[i], real(full.Data[i]))
		}
	}
}

func TestExpandHalfIsHermitian(t *testing.T) {
	// The mirrored columns (kx > w/2) are constructed by conjugation, so
	// they pair bit-exactly with their stored partners; the DC and
	// Nyquist columns self-pair among stored transform outputs and are
	// Hermitian only to rounding, like any float transform.
	r := rand.New(rand.NewSource(14))
	const w, h = 16, 16
	hs := NewHalf2(w, h)
	RealForward2Into(hs, randReal(r, w*h), w/2)
	g := NewGrid2(w, h)
	ExpandHalfInto(g, hs)
	for ky := 0; ky < h; ky++ {
		for kx := 0; kx < w; kx++ {
			a := g.At(kx, ky)
			b := g.At((w-kx)%w, (h-ky)%h)
			cb := complex(real(b), -imag(b))
			if kx > w/2 {
				if a != cb {
					t.Fatalf("mirrored column not exactly conjugate at (%d,%d): %v vs conj(%v)", kx, ky, a, b)
				}
			} else if math.Abs(real(a)-real(cb)) > 1e-9 || math.Abs(imag(a)-imag(cb)) > 1e-9 {
				t.Fatalf("not Hermitian at (%d,%d): %v vs conj(%v)", kx, ky, a, b)
			}
		}
	}
}

func TestGetHalfPoolRoundTrip(t *testing.T) {
	hs := GetHalf(16, 8)
	if hs.FullW != 16 || hs.Grid2.W != 9 || hs.Grid2.H != 8 || len(hs.Data) != 72 {
		t.Fatalf("GetHalf(16, 8) shape = FullW %d, %dx%d, %d elems", hs.FullW, hs.Grid2.W, hs.Grid2.H, len(hs.Data))
	}
	hs.Release()
	// A same-element-count request may reuse the buffer with fresh dims.
	hs2 := GetHalf(16, 8)
	defer hs2.Release()
	if len(hs2.Data) != 72 {
		t.Fatalf("pooled Half2 has %d elems", len(hs2.Data))
	}
}

// BenchmarkRealForward2_256 measures the real-input transform in steady
// state, warmed as litho's steadyState warms its pooled benchmarks: the
// GC stays off, so a collection cannot empty the pools and bill their
// refill to whichever samples it falls in, and the warm-up runs on
// GOMAXPROCS goroutines at a time, four rounds, so every P's pool slot
// is warm before the timer starts.
func BenchmarkRealForward2_256(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	src := randReal(r, 256*256)
	hs := NewHalf2(256, 256)
	old := debug.SetGCPercent(-1)
	b.Cleanup(func() { debug.SetGCPercent(old) })
	for range 4 {
		var wg sync.WaitGroup
		for range runtime.GOMAXPROCS(0) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				RealForward2Into(NewHalf2(256, 256), src, 128)
			}()
		}
		wg.Wait()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RealForward2Into(hs, src, 128)
	}
}

func TestRealForward2PanicsOnBadDims(t *testing.T) {
	for _, tc := range []struct {
		w, h, srcLen, k int
	}{
		{6, 4, 24, 3}, // non-pow2 width
		{8, 8, 32, 4}, // wrong source length
		{8, 8, 64, 5}, // band wider than the half-spectrum
		{8, 8, 64, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RealForward2Into(%dx%d, %d px, band %d) did not panic", tc.w, tc.h, tc.srcLen, tc.k)
				}
			}()
			hs := &Half2{FullW: tc.w, Grid2: Grid2{W: HalfW(tc.w), H: tc.h, Data: make([]complex128, HalfW(tc.w)*tc.h)}}
			RealForward2Into(hs, make([]float64, tc.srcLen), tc.k)
		}()
	}
}

func TestRealInverse2PanicsOnBadDims(t *testing.T) {
	// The inverse checks its dimensions up front, as the forward does,
	// rather than leaving it to a transform part-way through.
	for _, tc := range []struct {
		w, h, dstLen, k int
	}{
		{6, 4, 24, 3}, // non-pow2 width
		{4, 6, 24, 2}, // non-pow2 height
		{6, 1, 6, 3},  // non-pow2 single row
		{8, 8, 32, 4}, // wrong destination length
		{8, 8, 64, 5}, // band wider than the half-spectrum
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RealInverse2Into(%dx%d, %d px, band %d) did not panic", tc.w, tc.h, tc.dstLen, tc.k)
				}
			}()
			hs := &Half2{FullW: tc.w, Grid2: Grid2{W: HalfW(tc.w), H: tc.h, Data: make([]complex128, HalfW(tc.w)*tc.h)}}
			RealInverse2Into(make([]float64, tc.dstLen), hs, tc.k, nil)
		}()
	}
	for n := range planSizes() {
		if !IsPow2(n) {
			t.Errorf("plan cache holds length %d, not a power of two", n)
		}
	}
}

// bandSizes are the real-field dimensions the band tests sweep: square
// rasters up to the default 512 px, one single-row field (the unpaired
// path) and one rectangular field.
var bandSizes = [][2]int{{2, 2}, {16, 16}, {64, 64}, {512, 512}, {16, 1}, {64, 8}}

// bands returns the band half-widths the band tests pin for width w:
// the DC column alone, one more, and the top two (n/2 is the full band).
func bands(w int) []int {
	return []int{0, min(1, w/2), max(w/2-1, 0), w / 2}
}

func TestRealForward2BandMatchesFullBand(t *testing.T) {
	// A band-k transform keeps columns 0…k of the full-band transform bit
	// for bit: the columns it computes go through the same arithmetic,
	// and nothing it computes depends on a column it skips.
	r := rand.New(rand.NewSource(15))
	for _, dims := range bandSizes {
		w, h := dims[0], dims[1]
		src := randReal(r, w*h)
		full := NewHalf2(w, h)
		RealForward2Into(full, src, w/2)
		for _, k := range bands(w) {
			hs := NewHalf2(w, h)
			RealForward2Into(hs, src, k)
			for ky := 0; ky < h; ky++ {
				for kx := 0; kx <= k; kx++ {
					if got, want := hs.At(kx, ky), full.At(kx, ky); got != want {
						t.Fatalf("%dx%d band %d: bin (%d,%d) = %v, full band %v", w, h, k, kx, ky, got, want)
					}
				}
			}
		}
	}
}

func TestRealInverse2BandMatchesFullBand(t *testing.T) {
	// A band-k inverse equals the full-band inverse of the same spectrum
	// with its columns above k zeroed, bit for bit. The skipped columns
	// hold NaN, so reading any of them would show.
	r := rand.New(rand.NewSource(16))
	for _, dims := range bandSizes {
		w, h := dims[0], dims[1]
		spec := NewHalf2(w, h)
		RealForward2Into(spec, randReal(r, w*h), w/2)
		for _, k := range bands(w) {
			zeroed := NewHalf2(w, h)
			banded := NewHalf2(w, h)
			for i, v := range spec.Data {
				zeroed.Data[i], banded.Data[i] = v, v
				if i%spec.Grid2.W > k {
					zeroed.Data[i], banded.Data[i] = 0, complex(math.NaN(), math.NaN())
				}
			}
			want := make([]float64, w*h)
			RealInverse2Into(want, zeroed, w/2, nil)
			got := make([]float64, w*h)
			RealInverse2Into(got, banded, k, nil)
			for i := range want {
				if got[i] != want[i] || math.Signbit(got[i]) != math.Signbit(want[i]) {
					t.Fatalf("%dx%d band %d: pixel %d = %v, full band %v", w, h, k, i, got[i], want[i])
				}
			}
		}
	}
}
