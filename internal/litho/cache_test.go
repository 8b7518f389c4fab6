package litho

import (
	"sync"
	"testing"

	"cardopc/internal/obs"
)

// Stats reports cache effectiveness: distinct configurations built and
// requests served from warm state.
func (c *ProcessCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of distinct imaging setups resident.
func (c *ProcessCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.procs)
}

// smallCfg is a cheap imaging config for cache tests.
func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.GridSize = 64
	cfg.PitchNM = 16
	return cfg
}

func TestProcessCacheSharesAcrossRequests(t *testing.T) {
	st := obs.NewState(obs.Config{Metrics: true})
	obs.Setup(st)
	defer obs.Setup(nil)

	c := NewProcessCache()
	p1 := c.Get(smallCfg(), DefaultCorners())
	builds := obs.C("litho.build_kernels").Value()
	if builds == 0 {
		t.Fatal("first Get built no kernels")
	}
	p2 := c.Get(smallCfg(), DefaultCorners())
	if p1 != p2 {
		t.Error("second Get returned a different Process")
	}
	if got := obs.C("litho.build_kernels").Value(); got != builds {
		t.Errorf("warm Get rebuilt kernels: counter %d -> %d", builds, got)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}

	// A different imaging setup builds fresh kernels.
	other := smallCfg()
	other.DefocusNM = 25
	p3 := c.Get(other, DefaultCorners())
	if p3 == p1 {
		t.Error("distinct config returned the shared Process")
	}
	if got := obs.C("litho.build_kernels").Value(); got <= builds {
		t.Errorf("distinct config did not build kernels (counter still %d)", got)
	}
	if c.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", c.Len())
	}
}

// Concurrent misses on one key must build exactly once and agree on the
// result.
func TestProcessCacheConcurrentMiss(t *testing.T) {
	st := obs.NewState(obs.Config{Metrics: true})
	obs.Setup(st)
	defer obs.Setup(nil)

	c := NewProcessCache()
	const n = 8
	procs := make([]*Process, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			procs[i] = c.Get(smallCfg(), DefaultCorners())
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if procs[i] != procs[0] {
			t.Fatalf("goroutine %d got a different Process", i)
		}
	}
	// One Process build runs buildKernels twice — nominal plus the
	// defocused inner corner (the dose-only outer shares the nominal
	// set). The cache must not have multiplied that.
	if got := obs.C("litho.build_kernels").Value(); got != 2 {
		t.Errorf("concurrent misses built kernels %d times, want 2 (nominal + defocused inner)", got)
	}
}
