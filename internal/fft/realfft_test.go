package fft

import (
	"math"
	"math/rand"
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
	r := rand.New(rand.NewSource(11))
	for _, dims := range realSizes {
		w, h := dims[0], dims[1]
		src := randReal(r, w*h)
		want := complexForward2(src, w, h)
		hs := NewHalf2(w, h)
		RealForward2Into(hs, src)
		got := NewGrid2(w, h)
		ExpandHalfInto(got, hs)
		if e := maxErr(got.Data, want.Data); e > 1e-9*float64(w*h) {
			t.Errorf("%dx%d: max err vs Forward2 = %v", w, h, e)
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
		RealForward2Into(hs, src)
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
		RealForward2Into(hs, src)
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
		src := randReal(r, w*h)
		hs := NewHalf2(w, h)
		RealForward2Into(hs, src)
		back := make([]float64, w*h)
		RealInverse2Into(back, hs)
		for i := range src {
			if math.Abs(src[i]-back[i]) > 1e-10 {
				t.Errorf("%dx%d: round trip err %v at %d", w, h, src[i]-back[i], i)
				break
			}
		}
	}
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
	RealForward2Into(hs, src)
	for i := range hs.Data {
		hs.Data[i] *= 0.5
	}
	got := make([]float64, w*h)
	RealInverse2Into(got, hs)
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
	RealForward2Into(hs, randReal(r, w*h))
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

func BenchmarkRealForward2_256(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	src := randReal(r, 256*256)
	hs := NewHalf2(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RealForward2Into(hs, src)
	}
}

func TestRealForward2PanicsOnBadDims(t *testing.T) {
	for _, tc := range []struct {
		w, h, srcLen int
	}{
		{6, 4, 24}, // non-pow2 width
		{8, 8, 32}, // wrong source length
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RealForward2Into(%dx%d, %d px) did not panic", tc.w, tc.h, tc.srcLen)
				}
			}()
			hs := &Half2{FullW: tc.w, Grid2: Grid2{W: HalfW(tc.w), H: tc.h, Data: make([]complex128, HalfW(tc.w)*tc.h)}}
			RealForward2Into(hs, make([]float64, tc.srcLen))
		}()
	}
}
