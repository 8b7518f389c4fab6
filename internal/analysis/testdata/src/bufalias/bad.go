// Known-bad fixture for the bufalias analyzer: scratch buffers shared
// across goroutine boundaries. The package is named fft because
// bufalias scopes itself to the parallel numeric kernels.
package fft

import "sync"

type grid struct{ data []complex128 }

func mulInto(dst, a, b *grid) {
	for i := range dst.data {
		dst.data[i] = a.data[i] * b.data[i]
	}
}

// hoistedScratch is the classic bad "optimisation": one scratch grid
// allocated outside the worker loop, convolved into by every worker.
func hoistedScratch(in *grid, workers int) {
	var wg sync.WaitGroup
	scratch := &grid{data: make([]complex128, len(in.data))}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mulInto(scratch, in, in) // want "shared scratch buffer scratch"
		}(w)
	}
	wg.Wait()
}

// fixedSlot writes one fixed element of a shared slice from every
// goroutine in the loop.
func fixedSlot(workers int) []float64 {
	acc := make([]float64, 16)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			acc[0] = acc[0] + 1 // want "shared scratch buffer acc"
		}()
	}
	wg.Wait()
	return acc
}

// InverseBandRows and ForwardBandCols stand in for the in-place
// kernel-grid transforms: they write their argument without an Into
// suffix.
func InverseBandRows(g *grid, k int) {
	for i := range g.data {
		g.data[i] = -g.data[i]
	}
}

func ForwardBandCols(g *grid, k int) {
	for i := range g.data {
		g.data[i] = 2 * g.data[i]
	}
}

// sharedTransform runs every worker's in-place inverse on one hoisted
// grid.
func sharedTransform(workers int) {
	var wg sync.WaitGroup
	g := &grid{data: make([]complex128, 64)}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			InverseBandRows(g, 15) // want "shared scratch buffer g"
		}()
	}
	wg.Wait()
}

// sharedForward runs every worker's in-place forward transform on one
// hoisted grid.
func sharedForward(workers int) {
	var wg sync.WaitGroup
	buf := &grid{data: make([]complex128, 64)}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ForwardBandCols(buf, 15) // want "shared scratch buffer buf"
		}()
	}
	wg.Wait()
}
