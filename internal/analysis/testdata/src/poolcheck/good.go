// Known-good fixture for the poolcheck analyzer: the disciplined
// acquire/release shapes of the hot path, none of which may be flagged.
package fixture

import "sync"

func straightLine(n int) {
	g := GetGrid(n, n)
	use(g)
	PutGrid(g)
}

func deferredPut(n int, fail bool) error {
	g := GetGrid(n, n)
	defer PutGrid(g)
	if fail {
		return errFail
	}
	use(g)
	return nil
}

func deferredRelease(n int) {
	ws := GetWorkspace(n, n)
	defer ws.Release()
	_ = ws.Acc
}

func deferredCacheRelease(n int) {
	c := NewForwardCache()
	defer c.Release()
	_ = c
}

func deferredClosureRelease(n int) {
	g := GetGrid(n, n)
	defer func() {
		PutGrid(g)
	}()
	use(g)
}

// halfSpectrumPattern is the rfft2 hot path (litho.MaskFreqInto):
// acquire the pooled half-spectrum, transform into it, expand to the
// full grid, release.
func halfSpectrumPattern(n int) {
	hs := GetHalf(n, n)
	useHalf(hs)
	hs.Release()
}

func deferredHalfRelease(n int, fail bool) error {
	hs := GetHalf(n, n)
	defer hs.Release()
	if fail {
		return errFail
	}
	useHalf(hs)
	return nil
}

func bothBranchesRelease(n int, flip bool) {
	g := GetGrid(n, n)
	if flip {
		use(g)
		PutGrid(g)
	} else {
		PutGrid(g)
	}
}

func releaseBeforeEveryReturn(n int, fail bool) error {
	g := GetGrid(n, n)
	if fail {
		PutGrid(g)
		return errFail
	}
	use(g)
	PutGrid(g)
	return nil
}

// panicPath acquires and then may panic: crash paths carry no release
// obligation (the process is gone), and the happy path releases.
func panicPath(n, m int) {
	g := GetGrid(n, n)
	if n != m {
		panic("size mismatch")
	}
	use(g)
	PutGrid(g)
}

// workerHandOff is the litho fan-out pattern: each worker acquires a
// workspace and parks it in the shared slice; the launcher drains and
// releases after the barrier. The index store transfers ownership
// silently, and the drain releases range variables poolcheck never
// tracked.
func workerHandOff(n, workers int) {
	wss := make([]*Workspace, workers)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			ws := GetWorkspace(n, n)
			ws.Acc[0] = float64(w)
			wss[w] = ws
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	for _, ws := range wss {
		_ = ws.Acc
		ws.Release()
	}
}

// loopHandOff acquires into a fresh local each iteration and hands the
// value to the slice owner: the hand-off ends the local's obligation, so
// the back-edge re-acquire is clean (a loop that gathers one pooled
// spectrum per mask).
func loopHandOff(n, b int) []*Grid {
	mfs := make([]*Grid, b)
	for i := 0; i < b; i++ {
		g := GetGrid(n, n)
		use(g)
		mfs[i] = g
	}
	return mfs
}

// borrowedByCallback lends the grid to a synchronously-invoked closure;
// the release stays with the caller.
func borrowedByCallback(n int, each func(func(int))) {
	g := GetGrid(n, n)
	each(func(i int) {
		g.Data[i] = 0
	})
	PutGrid(g)
}

func loopLocalAcquire(n, iters int) {
	for i := 0; i < iters; i++ {
		g := GetGrid(n, n)
		use(g)
		PutGrid(g)
	}
}

func earlyReturnBeforeAcquire(n int, skip bool) {
	if skip {
		return
	}
	g := GetGrid(n, n)
	use(g)
	PutGrid(g)
}

// providerCallerReleases consumes a pool-returning function
// (escapeReturn in bad.go): the summary hands the obligation to this
// call site, and the release here discharges it.
func providerCallerReleases(n int) {
	g := escapeReturn(n)
	use(g)
	PutGrid(g)
}

// releaseViaHelper discharges the obligation through a callee whose
// summary releases the parameter (releaseIt in bad.go).
func releaseViaHelper(n int) {
	g := GetGrid(n, n)
	use(g)
	releaseIt(g)
}

// fencedGoroutineBorrow is the litho convolution fan-out: workers
// borrow the grid, wg.Wait fences the borrow, and only then is the
// value released.
func fencedGoroutineBorrow(n, workers int) {
	g := GetGrid(n, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			use(g)
		}()
	}
	wg.Wait()
	PutGrid(g)
}

// deferFencedBorrow fences with a deferred barrier instead of an
// inline one: the Wait still runs on every exit.
func deferFencedBorrow(n int) {
	g := GetGrid(n, n)
	defer PutGrid(g)
	var wg sync.WaitGroup
	wg.Add(1)
	defer wg.Wait()
	go func() {
		defer wg.Done()
		use(g)
	}()
}

// cacheOwner mirrors fft.ForwardCache: a method that releases every
// pooled value reachable from its receiver (summary ReleasesRecvHeld)
// makes the type a legitimate owner, so storing an acquire into its
// fields is an ownership transfer, not an escape.
type cacheOwner struct{ grids []*Grid }

func (c *cacheOwner) Release() {
	for _, g := range c.grids {
		if g != nil {
			PutGrid(g)
		}
	}
}

func (c *cacheOwner) fill(n int) {
	c.grids[0] = GetGrid(n, n)
}
