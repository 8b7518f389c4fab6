package litho

import (
	"fmt"
	"math"

	"cardopc/internal/fft"
	"cardopc/internal/obs"
	"cardopc/internal/raster"
)

// Band-limited SOCS imaging. Kernel k is a pupil of radius R = NA/λ·n·pitch
// frequency bins centred on bin c_k = −σ_k·R, so H_k is nonzero only in
// the (2a+1)² box of bins around d_k = round(c_k), a = ⌈R+½⌉. Moving that
// box to bin 0 multiplies the coherent field A_k by a phase ramp, which
// leaves |A_k| unchanged and makes it a trigonometric polynomial of degree
// a; |A_k|² then has degree 2a, so an m×m grid with m ≥ 4a+1 samples the
// intensity without aliasing and one zero-padded inverse transform
// recovers it on the raster exactly. The adjoint runs the same grids
// backwards: only the 2a box of Ĝ reaches a kernel box, so G is low-passed
// once and every per-kernel correlation runs on the m×m grid too.

// band is the frequency-support geometry of one kernel set. Offsets are
// signed bins; every grid index is an offset wrapped onto a power-of-two
// axis with & (size−1), which is the non-negative remainder.
type band struct {
	n int // raster size
	m int // small-grid size: Pow2Ceil(4a+1), capped at n
	a int // kernel box half-width ⌈R+½⌉
	// lo and b place a kernel's box at offsets lo … lo+b−1 around d_k on
	// each axis: lo = −a, b = 2a+1, or the whole axis when that is wider
	// than the raster.
	lo, b int
	// ulo and u place the union of every kernel's box at offsets
	// ulo … ulo+u−1 around bin 0, the whole axis when wider than it.
	ulo, u int
}

// newBand returns the box geometry for an n-pixel raster whose pupil
// radius is r frequency bins.
func newBand(n int, r float64) band {
	a := int(math.Ceil(r + 0.5))
	bd := band{n: n, m: min(fft.Pow2Ceil(4*a+1), n), a: a, lo: -a, b: 2*a + 1}
	if bd.b > n {
		bd.lo, bd.b = -n/2, n
	}
	return bd
}

// cover sets the union box to span every kernel's box.
func (bd *band) cover(ks []*kernel) {
	reach := 0
	for _, k := range ks {
		reach = max(reach, abs(k.dx), abs(k.dy))
	}
	bd.ulo, bd.u = -(reach + bd.a), 2*(reach+bd.a)+1
	if bd.u > bd.n {
		bd.ulo, bd.u = -bd.n/2, bd.n
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// kernel is one SOCS transfer function H_k stored over its support box:
// box[i·b+j] holds H_k at bin (dx+lo+j, dy+lo+i), wrapped onto the raster.
type kernel struct {
	dx, dy int
	box    []complex128
}

// kernel builds the transfer function of the coherent system with source
// frequency (sx, sy) over its box. Each bin is filled through freqOf on
// the wrapped index, so the box holds exactly the values a full n×n
// kernel grid would hold there, Nyquist convention included, and that
// grid is zero outside the box.
func (bd band) kernel(pp pupil, sx, sy float64) *kernel {
	k := &kernel{
		dx:  int(math.Round(-sx / pp.df)),
		dy:  int(math.Round(-sy / pp.df)),
		box: make([]complex128, bd.b*bd.b),
	}
	mask := bd.n - 1
	for i := 0; i < bd.b; i++ {
		ky := (k.dy + bd.lo + i) & mask
		for j := 0; j < bd.b; j++ {
			k.box[i*bd.b+j] = pp.at((k.dx+bd.lo+j)&mask, ky, bd.n, sx, sy)
		}
	}
	return k
}

// The union box is the sweep's one mask-spectrum layout: a u×u grid whose
// row iy, column ix holds the mask spectrum at signed bins
// (ulo+ix, ulo+iy), wrapped onto the raster. Every kernel box lies inside
// it, so it is all of the spectrum a sweep reads and all of the adjoint
// spectrum one writes, and the raster transforms compute only the
// half-spectrum columns 0…−ulo it covers.

// maskBoxInto writes mask's spectrum over the union box into box (u×u,
// fully overwritten). The mask transform runs at band −ulo, the widest
// |kx| the box holds, and the box is filled by ExpandHalfInto's rule, so
// every box bin equals MaskFreqInto's bin bit for bit.
//
//cardopc:noalloc
func (bd band) maskBoxInto(box *fft.Grid2, mask *raster.Field) {
	defer obs.Start("litho.mask_freq").End()
	if mask.Size != bd.n {
		panic(fmt.Sprintf("litho: %d px mask for a %d px imager", mask.Size, bd.n))
	}
	hs := fft.GetHalf(bd.n, bd.n)
	fft.RealForward2Into(hs, mask.Data, -bd.ulo)
	n, u, hw := bd.n, bd.u, hs.W
	for iy := 0; iy < u; iy++ {
		fy := bd.ulo + iy
		row := box.Data[iy*u:][:u]
		src := hs.Data[(fy&(n-1))*hw:][:hw]
		mirror := hs.Data[(-fy&(n-1))*hw:][:hw]
		for ix := range row {
			fx := bd.ulo + ix
			// A stored column up to the Nyquist column n/2; the
			// conjugate of the (−fx, −fy) partner beyond it.
			if kx := fx & (n - 1); kx <= n/2 {
				row[ix] = src[kx]
			} else {
				v := mirror[n-kx]
				row[ix] = complex(real(v), -imag(v))
			}
		}
	}
	hs.Release()
}

// freqBoxInto copies the union box of the full n×n mask spectrum
// maskFreq into box (u×u, fully overwritten).
//
//cardopc:noalloc
func (bd band) freqBoxInto(box *fft.Grid2, maskFreq *fft.Grid2) {
	n, u := bd.n, bd.u
	if maskFreq.W != n || maskFreq.H != n {
		panic(fmt.Sprintf("litho: %dx%d spectrum for a %d px imager", maskFreq.W, maskFreq.H, n))
	}
	for iy := 0; iy < u; iy++ {
		src := maskFreq.Data[((bd.ulo+iy)&(n-1))*n:][:n]
		row := box.Data[iy*u:][:u]
		for ix := range row {
			row[ix] = src[(bd.ulo+ix)&(n-1)]
		}
	}
}

// spectrumInto writes maskFreq·H_k over kernel k's box into the m×m grid
// g (fully overwritten), shifted so that bin d_k lands on bin 0. box is
// the mask spectrum over the union box.
//
//cardopc:noalloc
func (bd band) spectrumInto(g *fft.Grid2, box []complex128, k *kernel) {
	clear(g.Data)
	n, m, b, u := bd.n, bd.m, bd.b, bd.u
	for i := 0; i < b; i++ {
		off := bd.lo + i
		src := box[((k.dy+off-bd.ulo)&(n-1))*u:][:u]
		dst := g.Data[(off&(m-1))*m:][:m]
		for j, h := range k.box[i*b : (i+1)*b] {
			off := bd.lo + j
			dst[off&(m-1)] = src[(k.dx+off-bd.ulo)&(n-1)] * h
		}
	}
}

// resampleInto writes into dst (a d×d real field, fully overwritten) the
// s×s real field src band-limited to its |f| ≤ w box and sampled on the
// d×d grid, for (d, s) = (n, m) or (m, n) and w < m/2: the box of src's
// spectrum, truncated or zero-padded, goes through one inverse transform
// of size d, scaled by (m/n)². Downwards that factor is the ratio of the
// two grids' transform scales, so the m×m samples are the low-passed
// raster field's values. Upwards it is the inverse ratio (n/m)² times the
// (m/n)⁴ by which the raster |A_k|² is smaller than the m-grid |a_k|², so
// the sum of w_k|a_k|² comes out as the raster intensity. Both transforms
// run at band w, so only columns 0…w of either half-spectrum are
// computed, cleared or read.
//
//cardopc:noalloc
func (bd band) resampleInto(dst []float64, d int, src []float64, s, w int) {
	hs := fft.GetHalf(s, s)
	fft.RealForward2Into(hs, src, w)
	hd := fft.GetHalf(d, d)
	for ky := 0; ky < d; ky++ {
		clear(hd.Data[ky*hd.W:][:w+1])
	}
	scale := float64(bd.m*bd.m) / float64(bd.n*bd.n)
	for off := -w; off <= w; off++ {
		row := hd.Data[(off&(d-1))*hd.W:][:w+1]
		for kx, v := range hs.Data[(off&(s-1))*hs.W:][:w+1] {
			row[kx] = complex(real(v)*scale, imag(v)*scale)
		}
	}
	hs.Release()
	fft.RealInverse2Into(dst, hd, w)
	hd.Release()
}

// correlateInto adds wk·P·conj(H_k) over kernel k's box into the
// union-box spectrum acc (u×u), where P is the m×m spectrum of g_m ⊙ a_k
// with bin d_k shifted to bin 0, as spectrumInto placed it.
//
//cardopc:noalloc
func (bd band) correlateInto(acc []complex128, p *fft.Grid2, k *kernel, wk float64) {
	n, m, b, u := bd.n, bd.m, bd.b, bd.u
	for i := 0; i < b; i++ {
		off := bd.lo + i
		src := p.Data[(off&(m-1))*m:][:m]
		dst := acc[((k.dy+off-bd.ulo)&(n-1))*u:][:u]
		for j, h := range k.box[i*b : (i+1)*b] {
			off := bd.lo + j
			v := src[off&(m-1)] * complex(real(h), -imag(h))
			dst[(k.dx+off-bd.ulo)&(n-1)] += complex(wk*real(v), wk*imag(v))
		}
	}
}

// realInverseInto writes Re[IFFT(S)] into dst (n², fully overwritten) for
// the union-box spectrum S (u×u): the Hermitian part
// (S(f) + conj S(−f))/2 goes into columns 0…−ulo of a half-spectrum, the
// rest of those columns zero, and through one real inverse transform at
// that band.
//
//cardopc:noalloc
func (bd band) realInverseInto(dst []float64, S []complex128) {
	n, u, k := bd.n, bd.u, -bd.ulo
	hn := fft.GetHalf(n, n)
	hwn := hn.W
	for ky := 0; ky < n; ky++ {
		clear(hn.Data[ky*hwn:][:k+1])
	}
	for iy := 0; iy < u; iy++ {
		fy := iy + bd.ulo
		ky, py := fy&(n-1), (-fy-bd.ulo)&(n-1)
		for ix := 0; ix < u; ix++ {
			fx := ix + bd.ulo
			kx := fx & (n - 1)
			if kx > n/2 {
				continue
			}
			c := S[py*u+((-fx-bd.ulo)&(n-1))]
			v := S[iy*u+ix] + complex(real(c), -imag(c))
			hn.Data[ky*hwn+kx] = complex(real(v)*0.5, imag(v)*0.5)
		}
	}
	fft.RealInverse2Into(dst, hn, k)
	hn.Release()
}
