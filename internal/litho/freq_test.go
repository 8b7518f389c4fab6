package litho

import (
	"testing"

	"cardopc/internal/fft"
)

func TestFreqOfFFTFreqLayout(t *testing.T) {
	// freqOf must follow the standard corner-centred DFT layout (numpy
	// fftfreq): k·df below n/2, (k−n)·df from n/2 up — in particular the
	// Nyquist bin of an even grid carries the NEGATIVE frequency −n/2·df.
	const df = 0.25
	for _, n := range []int{2, 4, 8, 16, 256} {
		for k := 0; k < n; k++ {
			want := float64(k) * df
			if k >= n/2 {
				want = float64(k-n) * df
			}
			if got := freqOf(k, n, df); got != want {
				t.Errorf("freqOf(%d, %d) = %v, want %v", k, n, got, want)
			}
		}
		if got := freqOf(n/2, n, df); got != -float64(n/2)*df {
			t.Errorf("Nyquist bin of n=%d = %v, want %v", n, got, -float64(n/2)*df)
		}
	}
}

// scatterKernel writes kernel k over the full raster into g: its box
// values, zero elsewhere.
func scatterKernel(g *fft.Grid2, bd band, k *kernel) {
	clear(g.Data)
	mask := bd.n - 1
	for i := 0; i < bd.b; i++ {
		for j := 0; j < bd.b; j++ {
			g.Set((k.dx+bd.lo+j)&mask, (k.dy+bd.lo+i)&mask, k.box[i*bd.b+j])
		}
	}
}

func TestNyquistBinUsesNegativeFrequency(t *testing.T) {
	// Pin the convention where it is observable: pick a cutoff and source
	// shift with |−Nyq+sx| ≤ fc < |+Nyq+sx|, so the Nyquist column lies
	// inside the shifted pupil only when the bin maps to the negative
	// frequency. Under the old +Nyq mapping this bin read zero. The box
	// (15 bins around d = −2) reaches the Nyquist column through the
	// wrapped index, so this drives the production box fill.
	const (
		n  = 16
		df = 1.0
		fc = 6.5 // Nyq = 8: |−8+2| = 6 ≤ 6.5 < |8+2| = 10
		sx = 2.0
	)
	bd := newBand(n, fc/df)
	pp := pupil{df: df, fc: fc, wavelengthNM: 193}
	g := fft.NewGrid2(n, n)
	scatterKernel(g, bd, bd.kernel(pp, sx, 0))
	if v := g.At(n/2, 0); v != 1 {
		t.Errorf("Nyquist-column kernel value = %v, want 1 (inside shifted pupil)", v)
	}
	// And the mirrored shift keeps it out: |−8−2| = 10 > 6.5.
	scatterKernel(g, bd, bd.kernel(pp, -sx, 0))
	if v := g.At(n/2, 0); v != 0 {
		t.Errorf("Nyquist-column kernel value = %v under −sx, want 0", v)
	}
}

func TestMirroredSourceKernelsMirror(t *testing.T) {
	// Source points at ±σx are mirror images, so their kernels must be
	// exact mirrors across the frequency origin: H₋ₛ(x, y) = H₊ₛ((n−x)%n, y).
	// This held only approximately under the old +Nyq convention, whose
	// asymmetric frequency axis ([−n/2+1, n/2] instead of [−n/2, n/2−1])
	// broke the x ↔ −x bin pairing. The pupil must stay clear of the
	// Nyquist bin (fc + |sx| < Nyq·df) for the mirror to be exact — the
	// Nyquist bin itself has no positive-frequency partner on the grid.
	const (
		n  = 16
		df = 1.0
		fc = 3.0
		sx = 2.0 // fc + sx = 5 < Nyq = 8
	)
	bd := newBand(n, fc/df)
	// Nonzero defocus exercises the phase term too.
	pp := pupil{df: df, fc: fc, wavelengthNM: 193, defocusNM: 40}
	g1 := fft.NewGrid2(n, n)
	g2 := fft.NewGrid2(n, n)
	scatterKernel(g1, bd, bd.kernel(pp, sx, 0))
	scatterKernel(g2, bd, bd.kernel(pp, -sx, 0))
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			if got, want := g2.At((n-x)%n, y), g1.At(x, y); got != want {
				t.Fatalf("mirror mismatch at (%d,%d): %v vs %v", x, y, got, want)
			}
		}
	}
}
