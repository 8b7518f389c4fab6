package litho

import (
	"sync"

	"cardopc/internal/obs"
)

// ProcessCache shares built Process stacks (SOCS kernel sets plus their
// corner simulators) across requests keyed by imaging configuration.
// Kernel construction fills one support box per kernel (two sets of 23
// boxes of 31² bins for the default 512 px process), and the kernel sets
// are immutable once built, so a long-running server can hand the same
// *Process to every job that images with the same optics. The cache is
// safe for concurrent use; concurrent misses on the same key build once
// and share the result.
type ProcessCache struct {
	mu     sync.Mutex
	procs  map[processKey]*entry
	hits   int64
	misses int64
}

// processKey identifies one imaging setup. Config and CornerSpec are
// flat comparable structs, so the pair is a valid map key.
type processKey struct {
	cfg     Config
	corners CornerSpec
}

// entry carries the built process plus the once that guards its
// construction, so a second request for the same key blocks on the
// build instead of duplicating it.
type entry struct {
	once sync.Once
	proc *Process
}

// NewProcessCache returns an empty cache.
func NewProcessCache() *ProcessCache {
	return &ProcessCache{procs: map[processKey]*entry{}}
}

// Get returns the shared Process for (cfg, corners), building it on the
// first request. The returned Process is shared — callers must treat it
// as immutable (Simulator already is, once constructed).
func (c *ProcessCache) Get(cfg Config, corners CornerSpec) *Process {
	return c.GetScoped(obs.Scope{}, cfg, corners)
}

// GetScoped is Get with attribution: the cache hit/miss counters are
// recorded through sc, so a server job's overlay registry shows which
// jobs paid cold-start kernel builds and which ran warm. The Process
// itself stays shared across scopes — attribution labels the lookup,
// not the artifact. The ambient (zero) scope makes this identical to
// Get.
func (c *ProcessCache) GetScoped(sc obs.Scope, cfg Config, corners CornerSpec) *Process {
	cfg = cfg.WithDefaults()
	key := processKey{cfg: cfg, corners: corners}
	c.mu.Lock()
	e, ok := c.procs[key]
	if !ok {
		e = &entry{}
		c.procs[key] = e
		c.misses++
	} else {
		c.hits++
	}
	c.mu.Unlock()
	if ok {
		sc.Count("litho.proc_cache.hit", 1)
	} else {
		sc.Count("litho.proc_cache.miss", 1)
	}
	e.once.Do(func() { e.proc = NewProcess(cfg, corners) })
	return e.proc
}
