package fft

import (
	"sync"

	"cardopc/internal/obs"
)

// Scratch pooling for the litho/ILT hot path: every aerial-image or
// adjoint-gradient evaluation needs a small complex grid plus an
// accumulator per kernel worker, and raster-sized spectra and transform
// scratch for the mask transform and the final inverse — megabytes per
// evaluation at 512², which reallocating per call would turn into
// steady-state allocation churn. Grids and workspaces are pooled per
// element count; sizes vary only with the tile grid, so the pools stay
// small and sync.Pool's GC integration bounds idle memory.

var (
	gridPools sync.Map // element count → *sync.Pool of *Grid2
	wsPools   sync.Map // element count → *sync.Pool of *Workspace
	halfPools sync.Map // element count → *sync.Pool of *Half2
)

func poolIn(m *sync.Map, n int) *sync.Pool {
	if p, ok := m.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := m.LoadOrStore(n, &sync.Pool{})
	return p.(*sync.Pool)
}

// GetGrid returns a w×h grid from the free pool, allocating only on a
// pool miss. The contents are unspecified — callers must overwrite
// every element. Return the grid with PutGrid once it is no longer
// referenced.
func GetGrid(w, h int) *Grid2 {
	if v := poolIn(&gridPools, w*h).Get(); v != nil {
		g := v.(*Grid2)
		debugCheckGet(g)
		g.W, g.H = w, h
		return g
	}
	obs.C("fft.pool.grid_miss").Inc()
	g := NewGrid2(w, h)
	debugCheckGet(g)
	return g
}

// PutGrid returns g to the free pool. g must not be used afterwards.
// Builds tagged cardopc_pooldebug panic when the same grid is returned
// twice.
func PutGrid(g *Grid2) {
	if g == nil || len(g.Data) == 0 {
		return
	}
	debugCheckPut(g, "Grid2")
	poolIn(&gridPools, len(g.Data)).Put(g)
}

// Workspace bundles the per-worker scratch of one litho kernel loop: a
// complex grid for one kernel's field and a float accumulator for the
// weighted intensity partial sum.
type Workspace struct {
	// Grid is w×h transform scratch with unspecified contents.
	Grid *Grid2
	// Acc is a zeroed w·h accumulator.
	Acc []float64
}

// GetWorkspace returns a pooled workspace for a w×h grid: Grid holds
// unspecified contents, Acc is zeroed and ready to accumulate. Release
// it when the partial sums have been reduced.
func GetWorkspace(w, h int) *Workspace {
	n := w * h
	if v := poolIn(&wsPools, n).Get(); v != nil {
		ws := v.(*Workspace)
		debugCheckGet(ws)
		ws.Grid.W, ws.Grid.H = w, h
		clear(ws.Acc)
		return ws
	}
	obs.C("fft.pool.ws_miss").Inc()
	ws := &Workspace{Grid: NewGrid2(w, h), Acc: make([]float64, n)}
	debugCheckGet(ws)
	return ws
}

// Release returns the workspace to the free pool. The workspace (and
// its Grid and Acc) must not be used afterwards. Builds tagged
// cardopc_pooldebug panic when the same workspace is released twice.
func (ws *Workspace) Release() {
	if ws == nil || ws.Grid == nil {
		return
	}
	debugCheckPut(ws, "Workspace")
	poolIn(&wsPools, len(ws.Acc)).Put(ws)
}
