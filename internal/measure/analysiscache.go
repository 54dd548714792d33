package measure

import (
	"math"
	"sync"
	"sync/atomic"

	"cookiewalk/internal/core"
	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/xrand"
)

// analysisCache memoizes page-analysis results (core.Analysis) by
// content fingerprint: the post-fetch pipeline — parse, core.Detect,
// language detection, categorization — runs ONCE per distinct page
// body instead of once per visit. An eight-vantage-point landscape
// crawl loads at most two distinct renders per site (banner shown or
// not), so up to eight visits collapse onto one analysis.
//
// The cache is process-global and keyed by memoKey: the page
// fingerprint mixed with the identity of the universe it was fetched
// from. A fingerprint alone covers the top-level document only; the
// frames, injected scripts and subresources that Compose fetches come
// from the universe, so one top page can compose differently in two
// universes (a seed-42 and a seed-7 site share a domain and a page
// shell whose injected banner differs). Studies of the same universe
// share entries, as the rounds of a trend run rely on.
//
// Concurrency: shards keep worker contention negligible, and each
// entry is a singleflight slot — the first goroutine to claim a
// fingerprint computes the analysis while concurrent claimants for the
// same fingerprint wait on the entry's WaitGroup instead of
// duplicating in-flight work. Bounding mirrors the webfarm render
// cache: a shard past analysisShardMax entries is reset (in-flight
// entries survive through their pointers; the next visit repopulates),
// so memory stays bounded with no eviction bookkeeping that could
// affect results.
type analysisCache struct {
	shards [analysisShards]analysisShard

	// hits counts visits served by a published entry; misses counts
	// claims that ran a fresh analysis. Monotonic over the process
	// lifetime — trend rounds subtract snapshots to report how much of
	// a round's crawl the memo absorbed. Seeded entries (checkpoint
	// replay) count as neither: they were never analyzed this process.
	hits   atomic.Uint64
	misses atomic.Uint64
}

const (
	analysisShards = 64
	// analysisShardMax bounds entries per shard (≈260k across the
	// cache; a full-scale crawl's working set is ~2 variants × 45k
	// sites spread over 64 shards).
	analysisShardMax = 4096
)

type analysisShard struct {
	mu sync.Mutex
	m  map[uint64]*analysisEntry
	// slab is the unused tail of the shard's current entry slab: entries
	// are carved from it under mu, so a shard allocates once per
	// analysisSlab claims or seeds. Entries are never reused, so a
	// pointer a waiter holds stays its entry whatever the shard does.
	slab []analysisEntry
	// _ pads the shard to a full 64-byte cache line (Mutex 8 + map
	// header 8 + slab header 24 = 40), so neighbouring shards' locks
	// never false-share a line across workers memoizing different
	// fingerprints.
	_ [24]byte
}

// analysisSlab is the number of entries a shard carves from one
// allocation.
const analysisSlab = 64

// newEntry hands out a zero entry from the shard's slab; s.mu must be
// held.
func (s *analysisShard) newEntry() *analysisEntry {
	if len(s.slab) == 0 {
		s.slab = make([]analysisEntry, analysisSlab)
	}
	e := &s.slab[0]
	s.slab = s.slab[1:]
	return e
}

// analysisEntry is one fingerprint's singleflight slot, carved from its
// shard's slab. A claimed entry is published with its WaitGroup at one
// (Add(1) before the shard map holds it); a and failed are written
// exactly once, before Done. Readers Wait first, and Done
// synchronizes before the return of every Wait, so the WaitGroup is
// the edge that publishes both race-free. A seeded entry is complete
// when published: its zero WaitGroup never blocks, and the shard lock
// publishes its analysis.
type analysisEntry struct {
	wg sync.WaitGroup
	a  core.Analysis
	// failed marks a claim whose compute errored (a composition
	// degraded by transport faults) or died: the entry was already
	// unpublished, and waiters must re-claim instead of consuming it —
	// a failed fetch can never seed the memo.
	failed bool
}

// get returns the memoized analysis for fp, computing it via compute
// on first claim. compute runs on the claiming goroutine; concurrent
// callers with the same fingerprint block until it finishes and share
// the result.
func (c *analysisCache) get(fp uint64, compute func() core.Analysis) core.Analysis {
	a, _ := c.getChecked(fp, func() (core.Analysis, error) { return compute(), nil })
	return a
}

// getChecked is get for computations that can fail: a compute error is
// returned to the claiming caller only, the entry is unpublished, and
// any concurrent waiters on the same fingerprint loop back to claim
// the slot themselves — their own visit's fetch decides their outcome.
// Nothing about a failure is ever memoized.
func (c *analysisCache) getChecked(fp uint64, compute func() (core.Analysis, error)) (core.Analysis, error) {
	s := &c.shards[fp%analysisShards]
	for {
		s.mu.Lock()
		if e, ok := s.m[fp]; ok {
			s.mu.Unlock()
			e.wg.Wait()
			if e.failed {
				continue
			}
			c.hits.Add(1)
			return e.a, nil
		}
		e := s.newEntry()
		e.wg.Add(1)
		if s.m == nil || len(s.m) >= analysisShardMax {
			s.m = make(map[uint64]*analysisEntry, 64)
		}
		s.m[fp] = e
		s.mu.Unlock()
		c.misses.Add(1)
		return c.fill(s, fp, e, compute)
	}
}

// fill runs compute for a freshly claimed entry: success publishes the
// analysis; an error — or a compute that panics or runs runtime.Goexit
// (t.Fatal in a test helper) — unpublishes the entry so later visits
// recompute, marks it failed, and unblocks waiters into re-claiming.
func (c *analysisCache) fill(s *analysisShard, fp uint64, e *analysisEntry, compute func() (core.Analysis, error)) (core.Analysis, error) {
	completed := false
	defer func() {
		if completed {
			return
		}
		s.mu.Lock()
		if s.m[fp] == e {
			delete(s.m, fp)
		}
		s.mu.Unlock()
		e.failed = true
		e.wg.Done()
	}()
	a, err := compute()
	if err != nil {
		return core.Analysis{}, err
	}
	e.a = a
	completed = true
	e.wg.Done()
	return a, nil
}

// seed publishes an already-computed analysis for fp — the
// checkpoint-resume path, where a replayed observation carries the
// analysis its original visit computed. An existing entry (computed or
// in flight) always wins: seeding never replaces live results, it only
// fills holes, so a seeded cache behaves exactly like one warmed by
// real visits.
func (c *analysisCache) seed(fp uint64, a core.Analysis) {
	s := &c.shards[fp%analysisShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[fp]; ok {
		return
	}
	if s.m == nil || len(s.m) >= analysisShardMax {
		s.m = make(map[uint64]*analysisEntry, 64)
	}
	e := s.newEntry()
	e.a = a
	s.m[fp] = e
}

// analyses is the process-wide analysis memo shared by all crawlers;
// Crawler.NoAnalysisCache bypasses it for debugging.
var analyses analysisCache

// memoKey is the analyses key of page fingerprint fp fetched from
// reg's universe: fp mixed with the generator config, which fixes
// every byte the universe serves. A nil reg keys by fp alone.
func memoKey(reg *synthweb.Registry, fp uint64) uint64 {
	if reg == nil {
		return fp
	}
	cfg := reg.Config()
	return xrand.Mix64(xrand.Mix64(fp, cfg.Seed), math.Float64bits(cfg.FillerScale))
}
