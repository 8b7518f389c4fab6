package fft

import (
	"fmt"

	"cardopc/internal/obs"
)

// Real-input 2-D FFT. The rasterised mask is purely real, so its
// spectrum is Hermitian — F[ky][kx] = conj(F[(H−ky)%H][(W−kx)%W]) — and
// only W/2+1 of the W columns carry independent information. The
// transforms here exploit that twice over: row spectra are computed by
// packing two real rows into one complex transform (z = a + i·b, then
// an O(W) unpack splits the two Hermitian row spectra), and the column
// pass only touches the W/2+1 stored columns. Compared to loading the
// real field into a complex grid and running a full 2-D transform, the
// FFT work halves. The row passes spread their packed rows over the
// worker pool; the column pass runs in place on the half-spectrum, its
// windows of colChunk columns spread over the same pool. Both transforms
// also take a band half-width k: the forward computes only the stored
// columns 0…k and the inverse reads only those, so a consumer whose
// spectrum is band-limited (the SOCS kernel sweep reads the mask
// spectrum over |kx| ≤ k) skips the other column transforms. Every kept
// column goes through the same arithmetic as at the full band k = W/2,
// so it is bit-identical to it. Two row prunings keep that guarantee. The
// forward skips the transform of a packed row pair whose two rows are
// all +0, since the transform of +0s is +0s; a mask raster is mostly
// such rows. The inverse takes an optional row set and runs its row
// pass only on the pairs that hold a selected row, so a consumer that
// samples a few rows of the field (the correction step's EPE probes)
// pays for those alone. ExpandHalfInto mirrors a full-band
// half-spectrum into a full grid for consumers that want every bin.

// Half2 is the half-spectrum of a real FullW×H field: H rows of
// FullW/2+1 non-redundant columns, stored row-major in the embedded
// Grid2 (so Grid2.W = FullW/2+1, Grid2.H = H). The DC column is column
// 0 and the Nyquist column of an even FullW is column FullW/2; both are
// self-conjugate only in full-field aggregate, not per element — rows
// still pair as row ky ↔ conj(row (H−ky)%H) within those columns.
type Half2 struct {
	// FullW is the width of the real spatial field this spectrum
	// describes; the embedded grid stores FullW/2+1 columns.
	FullW int
	Grid2
}

// HalfW returns the stored column count for a real field of width w.
func HalfW(w int) int { return w/2 + 1 }

// NewHalf2 allocates a zeroed half-spectrum for a w×h real field.
func NewHalf2(w, h int) *Half2 {
	return &Half2{FullW: w, Grid2: Grid2{W: HalfW(w), H: h, Data: make([]complex128, HalfW(w)*h)}}
}

// GetHalf returns a pooled half-spectrum for a w×h real field. The
// contents are unspecified — RealForward2Into overwrites every element.
// Return it with Release once no longer referenced.
func GetHalf(w, h int) *Half2 {
	n := HalfW(w) * h
	if v := poolIn(&halfPools, n).Get(); v != nil {
		hs := v.(*Half2)
		debugCheckGet(hs)
		hs.FullW, hs.Grid2.W, hs.Grid2.H = w, HalfW(w), h
		return hs
	}
	obs.C("fft.pool.half_miss").Inc()
	hs := NewHalf2(w, h)
	debugCheckGet(hs)
	return hs
}

// Release returns the half-spectrum to the free pool. It must not be
// used afterwards. Builds tagged cardopc_pooldebug panic when the same
// half-spectrum is released twice.
func (hs *Half2) Release() {
	if hs == nil || len(hs.Data) == 0 {
		return
	}
	debugCheckPut(hs, "Half2")
	poolIn(&halfPools, len(hs.Data)).Put(hs)
}

// RealForward2Into computes the forward 2-D DFT of the real w×h field
// src (row-major, w = hs.FullW, h = hs.H) into the stored columns 0…k of
// the half-spectrum hs, 0 ≤ k ≤ w/2; columns above k are left with
// unspecified contents. Dimensions must be powers of two. hs row ky
// column kx holds F[ky][kx] of the full forward 2-D DFT of the
// complex-loaded field (ForwardBandCols at band w/2), for
// kx ≤ k; at k = w/2 that is every stored column, and the remaining
// columns follow from Hermitian symmetry (ExpandHalfInto reconstructs
// them). A column kx ≤ k holds the same bits at every band that keeps it.
// A row pair whose pixels are all +0 skips its row transform and unpacks
// zeros, which are the bits the transform would have produced.
//
//cardopc:noalloc
func RealForward2Into(hs *Half2, src []float64, k int) {
	obs.C("fft.rforward2").Inc()
	w, h := hs.FullW, hs.Grid2.H
	if len(src) != w*h {
		panic(fmt.Sprintf("fft: %d-px real field for a %dx%d half-spectrum", len(src), w, h))
	}
	if !IsPow2(w) || !IsPow2(h) {
		panic(fmt.Sprintf("fft: real transform dims %dx%d are not powers of two", w, h))
	}
	checkBand(k, w)
	hw := HalfW(w)

	if h == 1 {
		// A single row cannot pair: run one complex transform over the
		// real-loaded row and keep the bins up to k.
		zg := GetGrid(w, 1)
		for i, v := range src {
			zg.Data[i] = complex(v, 0)
		}
		transform(zg.Data, false)
		copy(hs.Data[:k+1], zg.Data)
		PutGrid(zg)
		return
	}

	// Row pass: pack rows (2p, 2p+1) into one complex row, transform,
	// and unpack the two Hermitian row spectra up to bin k:
	//   A[j] = (Z[j] + conj(Z[(w−j)%w])) / 2
	//   B[j] = (Z[j] − conj(Z[(w−j)%w])) / 2i
	// The (w−j)%w indexing makes DC (j=0) and the Nyquist bin (j=w/2)
	// their own partners, so both fall out of the same formula. A pair of
	// +0 rows packs to +0s, which the transform leaves as they are, so
	// clearing z gives the same unpacked bits, −0 imaginary parts of the
	// odd row included.
	pr := getPlan(w)
	zg := GetGrid(w, h/2)
	parallelRows(h/2, func(p int) { //cardopc:allow noalloc one fan-out closure per pass, pinned by the mask_freq allocs budget
		z := zg.Data[p*w : (p+1)*w]
		a := src[(2*p)*w : (2*p+1)*w]
		b := src[(2*p+1)*w : (2*p+2)*w]
		if allPosZero(a) && allPosZero(b) {
			clear(z)
		} else {
			for j := 0; j < w; j++ {
				z[j] = complex(a[j], b[j])
			}
			pr.transform(z, false)
		}
		ra := hs.Data[(2*p)*hw : (2*p)*hw+k+1]
		rb := hs.Data[(2*p+1)*hw : (2*p+1)*hw+k+1]
		for j := range ra {
			zj := z[j]
			zc := z[(w-j)%w]
			cc := complex(real(zc), -imag(zc))
			ra[j] = (zj + cc) * 0.5
			d := zj - cc
			// d / 2i = −0.5i·d
			rb[j] = complex(imag(d)*0.5, -real(d)*0.5)
		}
	})
	PutGrid(zg)

	// Column pass over the stored columns 0…k, in place on hs, one
	// window of colChunk columns per work item.
	columnPass(hs, k, false)
}

// columnPass transforms the stored columns 0…k of hs in place, spreading
// windows of colChunk columns over the worker pool.
//
//cardopc:noalloc
func columnPass(hs *Half2, k int, inverse bool) {
	pc := getPlan(hs.Grid2.H)
	parallelRows((k+colChunk)/colChunk, func(i int) { //cardopc:allow noalloc one fan-out closure per pass, pinned by the mask_freq allocs budget
		c0 := i * colChunk
		pc.columns(hs.Data, hs.Grid2.W, c0, min(colChunk, k+1-c0), inverse)
	})
}

// RealInverse2Into computes the inverse 2-D DFT of the half-spectrum hs
// into the real field dst (len w·h), including the 1/(w·h)
// normalisation. It reads only the stored columns 0…k, 0 ≤ k ≤ w/2, and
// treats the columns above k as zero; at k = w/2 that is the whole
// half-spectrum. Like InverseBandRows, the transform is destructive: hs is
// consumed as in-place scratch and holds unspecified contents
// afterwards. hs must be the (possibly processed, still Hermitian in
// its implied full form) spectrum of a real field — the reconstruction
// discards nothing, so a non-Hermitian spectrum would fold its
// imaginary part into the neighbouring row. A skipped column is zero
// either way, so the result is bit-identical to the full-band inverse of
// the same spectrum with its columns above k cleared.
//
// rows selects the rows of dst to compute: nil computes all of them,
// otherwise len(rows) must be h. The final row pass, which produces
// spatial rows 2p and 2p+1 together, then runs only on the pairs with
// rows[2p] || rows[2p+1]; the rows of every other pair are left as they
// were. Each row it does compute is bit-identical to the full inverse.
//
//cardopc:noalloc
func RealInverse2Into(dst []float64, hs *Half2, k int, rows []bool) {
	obs.C("fft.rinverse2").Inc()
	w, h := hs.FullW, hs.Grid2.H
	if len(dst) != w*h {
		panic(fmt.Sprintf("fft: %d-px real field for a %dx%d half-spectrum", len(dst), w, h))
	}
	if rows != nil && len(rows) != h {
		panic(fmt.Sprintf("fft: %d-row set for a %d-row field", len(rows), h))
	}
	if !IsPow2(w) || !IsPow2(h) {
		panic(fmt.Sprintf("fft: real transform dims %dx%d are not powers of two", w, h))
	}
	checkBand(k, w)
	hw := HalfW(w)
	inv := 1 / float64(w*h)

	if h == 1 {
		if rows != nil && !rows[0] {
			return
		}
		zg := GetGrid(w, 1)
		hermitianExtendRow(zg.Data, hs.Data[:hw], k)
		transform(zg.Data, true)
		for i := range dst {
			dst[i] = real(zg.Data[i]) * inv
		}
		PutGrid(zg)
		return
	}

	// Column pass first (unnormalised; the 1/(w·h) factor is applied in
	// the final write-out).
	columnPass(hs, k, true)

	// Row pass: after the column inverse each spatial row is Hermitian
	// in kx, so rows (2p, 2p+1) reconstruct from one complex inverse of
	// Z[j] = A[j] + i·B[j] — the exact inverse of the forward packing.
	pr := getPlan(w)
	zg := GetGrid(w, h/2)
	parallelRows(h/2, func(p int) { //cardopc:allow noalloc one fan-out closure per pass, pinned by the mask_freq allocs budget
		if rows != nil && !rows[2*p] && !rows[2*p+1] {
			return
		}
		z := zg.Data[p*w : (p+1)*w]
		ra := hs.Data[(2*p)*hw : (2*p)*hw+hw]
		rb := hs.Data[(2*p+1)*hw : (2*p+1)*hw+hw]
		for j := 0; j < w; j++ {
			var a, b complex128
			if j <= k {
				a, b = ra[j], rb[j]
			} else if j >= w-k {
				ac, bc := ra[w-j], rb[w-j]
				a = complex(real(ac), -imag(ac))
				b = complex(real(bc), -imag(bc))
			}
			// a + i·b, zero between the two bands
			z[j] = complex(real(a)-imag(b), imag(a)+real(b))
		}
		pr.transform(z, true)
		da := dst[(2*p)*w : (2*p+1)*w]
		db := dst[(2*p+1)*w : (2*p+2)*w]
		for j, v := range z {
			da[j] = real(v) * inv
			db[j] = imag(v) * inv
		}
	})
	PutGrid(zg)
}

// checkBand panics unless k is a band half-width of a w-wide field.
func checkBand(k, w int) {
	if k < 0 || k > w/2 {
		panic(fmt.Sprintf("fft: band half-width %d outside [0, %d]", k, w/2))
	}
}

// hermitianExtendRow fills the full-width row z from its half-spectrum
// half up to bin k: z[j] = half[j] for j ≤ k, conj(half[w−j]) for
// j ≥ w−k, zero between.
func hermitianExtendRow(z []complex128, half []complex128, k int) {
	w := len(z)
	for j := range z {
		switch {
		case j <= k:
			z[j] = half[j]
		case j >= w-k:
			v := half[w-j]
			z[j] = complex(real(v), -imag(v))
		default:
			z[j] = 0
		}
	}
}

// ExpandHalfInto reconstructs the full W×H spectrum from a
// half-spectrum via Hermitian symmetry: dst[ky][kx] = hs[ky][kx] for
// kx ≤ W/2, conj(hs[(H−ky)%H][W−kx]) above. dst is fully overwritten
// and must match the half-spectrum's real-field dimensions. The
// mirrored columns are exact conjugates of their stored partners by
// construction; within the stored DC and Nyquist columns, rows pair
// only to rounding error, as in any float transform.
//
//cardopc:noalloc
func ExpandHalfInto(dst *Grid2, hs *Half2) {
	w, h := hs.FullW, hs.Grid2.H
	if dst.W != w || dst.H != h {
		panic(fmt.Sprintf("fft: expand %dx%d half-spectrum into %dx%d grid", w, h, dst.W, dst.H))
	}
	hw := HalfW(w)
	parallelRows(h, func(ky int) { //cardopc:allow noalloc one fan-out closure per expand, pinned by the mask_freq allocs budget
		row := dst.Data[ky*w : (ky+1)*w]
		copy(row[:hw], hs.Data[ky*hw:ky*hw+hw])
		mrow := hs.Data[((h-ky)%h)*hw : ((h-ky)%h)*hw+hw]
		for kx := hw; kx < w; kx++ {
			v := mrow[w-kx]
			row[kx] = complex(real(v), -imag(v))
		}
	})
}
