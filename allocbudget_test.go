package cookiewalk_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"cookiewalk"
	"cookiewalk/internal/campaign"
	"cookiewalk/internal/core"
	"cookiewalk/internal/measure"
	"cookiewalk/internal/vantage"
)

// Per-visit allocation budgets for the crawl hot path, split by memo
// state, plus the cookie-measurement visit:
//
//   - cached: the steady-state landscape visit — transport dispatch and
//     a fingerprint lookup, NO parse/detect/classify. Measured 0 allocs
//     (both kinds): the scratch request plus the farm's reply values,
//     which hand a cached page over with no response recorder.
//   - cached, gated: the same cookiewall visit on a study with the host
//     gate (its circuit breaker) armed. Measured 0 allocs: an
//     armed gate sends the request down the same path, through the same
//     reusable request, as an unarmed one, so it shares their budget.
//   - cached, resilient: the gated visit with retries and a visit
//     timeout armed as well. Measured 4 allocs, all from the per-visit
//     context.WithTimeout that session arms; retries cost nothing until
//     an attempt fails.
//   - uncached: the full pipeline a memo miss runs — parse, detection,
//     language, category. Measured 1 alloc (cookiewall) / 0 (regular)
//     once the page, its nodes and attributes came from the session's
//     slab and parser arenas, recycled at each Reset; the one left is
//     the cookiewall's corpus-word slice, which the analysis keeps (3 /
//     2 before the recycling, with page text extracted into the
//     worker's buffer for language and category scoring; 5 / 4 before
//     that; 12 / 5 before detection
//     that searches shadow roots in place, scans prices without a
//     regexp and extracts banner text into the worker's core.Detector
//     buffer; 33 / 29 before that buffer; 62 / 56 before the
//     single-allocation Node.Text and the in-place eTLD+1).
//   - cookie visit: one MeasureCookies repetition in accept mode — load,
//     click, reload with every tracker, tally the jar. Measured 70
//     allocs on the first cookiewall domain. Each call runs a campaign
//     of its own, so its worker's browser is new and its arenas and page
//     slab are allocated on first use, not recycled. The last step
//     carved the Cookie headers from a session arena, read the consent
//     form from a session body and shared one parser chunk among shadow
//     roots (75 before it). Before that, what fell (79
//     before) was the growth of the old attribute arena, the shadow
//     root's document node and the node snapshots Compose now keeps in
//     session buffers. One of them is the call's
//     visit-label slice and one its label: MeasureCookies builds its
//     reps labels once per call, so a campaign no longer formats one per
//     visit, but this one-site, one-rep call pays for the slice. The
//     last step opened the page through the session's URL instead of
//     concatenating and parsing its string (81 before it). The step
//     before parsed plain absolute subresource and click URLs into the
//     session's scratch URL and reloaded through the page's own URL
//     instead of re-parsing its string: 111 before it, and 116 before
//     interned page headers, page text in the worker's buffer and
//     one-allocation memo entries (the comment then said 122, its
//     reading when measured; 121 with a label per visit). Earlier
//     steps: detection that only
//     locates the banner (no banner text, corpus slice or price list),
//     subresources found by walking the trees without collecting them
//     and the consent form read without ParseForm (145 before them);
//     tracker replies from the farm's render cache,
//     absolute subresource URLs parsed once and never stringified,
//     entity decoding that leaves non-decoding '&' uncopied and
//     pre-encoded consent bodies (390 before them); the zero-alloc
//     eTLD+1 and tally, single-parse subresource fetches, map-free
//     tracker responses, recorder-free farm replies (1 942 before
//     them), the consent POST on the reusable request (412 before it)
//     and detection in the reused buffer (401 before it).
//   - warm-session cookie visit: the same measurement as one call over
//     16 cookiewalls × 2 repetitions, divided per visit, so the
//     workers' first-use costs and the call's own are shared and what
//     the session recycles is not counted again. Measured 5.44 allocs
//     at any GOMAXPROCS (11.84 before the string arenas, the session
//     form body and the shared shadow-root chunk).
//
// Budgets carry headroom for toolchain drift while still failing
// tier-1 long before any path regresses to its previous profile
// (earlier budgets: 5/4, 8/6, 20/12, 45/40, 110/100 and 150/125
// uncached, 80, 93, 140, 180, 600 and 500 cookie visit, 40/30 and 6/6
// cached, 6 cached gated; the first profiled visit made ~222 allocs).
const (
	cookiewallCachedAllocBudget   = 1
	regularCachedAllocBudget      = 1
	resilientCachedAllocBudget    = 4
	cookiewallUncachedAllocBudget = 1
	regularUncachedAllocBudget    = 1
	cookieVisitAllocBudget        = 75
	warmCookieVisitAllocBudget    = 6
	warmSessionWalls              = 16
	warmSessionReps               = 2
)

// TestVisitAllocBudget pins the allocation count of the single-visit
// hot path in both memo states, so allocation regressions fail tier-1
// instead of surfacing months later in campaign wall-clock time. The
// visits run under campaign.WithAffinity, the way a campaign worker
// runs them: one browser session reused across visits. A budget of 1
// cannot see one extra allocation per cached visit, let alone a
// fraction of one; TestLandscapeCrawlAllocBudget, which pins a whole
// crawl, is the gate for per-visit drift below 1.
func TestVisitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is exact; skip in -short/-race runs")
	}
	s := cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.02, Reps: 2})
	noMemo := cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.02, Reps: 2, NoAnalysisCache: true})
	gated := cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.02, Reps: 2, BreakerThreshold: 5})
	// The gated study with every other resilience knob armed too; no
	// attempt fails, so retries never fire and the timeout never expires.
	resilient := cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.02, Reps: 2,
		BreakerThreshold: 5, VisitRetries: 2, VisitTimeout: time.Minute})
	vp, ok := vantage.ByName("Germany")
	if !ok {
		t.Fatal("no Germany VP")
	}
	ctx := campaign.WithAffinity(context.Background())

	wall := s.CookiewallDomains()[0]
	regular := ""
	for _, d := range s.Targets() {
		if o := s.Crawler().Visit(ctx, vp, d, measure.VisitOpts{}); o.Err == "" && o.Kind == core.KindRegular {
			regular = d
			break
		}
	}
	if regular == "" {
		t.Fatal("no regular-banner site found")
	}

	for _, tc := range []struct {
		name, domain string
		crawler      *measure.Crawler
		budget       float64
	}{
		{"cookiewall-cached", wall, s.Crawler(), cookiewallCachedAllocBudget},
		{"regular-cached", regular, s.Crawler(), regularCachedAllocBudget},
		{"cookiewall-cached-gated", wall, gated.Crawler(), cookiewallCachedAllocBudget},
		{"cookiewall-cached-resilient", wall, resilient.Crawler(), resilientCachedAllocBudget},
		{"cookiewall-uncached", wall, noMemo.Crawler(), cookiewallUncachedAllocBudget},
		{"regular-uncached", regular, noMemo.Crawler(), regularUncachedAllocBudget},
	} {
		c := tc.crawler
		c.Visit(ctx, vp, tc.domain, measure.VisitOpts{}) // warm render + analysis caches
		got := testing.AllocsPerRun(50, func() {
			if o := c.Visit(ctx, vp, tc.domain, measure.VisitOpts{}); o.Err != "" {
				t.Fatal(o.Err)
			}
		})
		t.Logf("%s visit: %.1f allocs (budget %.0f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s visit allocates %.1f, budget is %.0f — the hot path regressed",
				tc.name, got, tc.budget)
		}
	}

	// The cookie measurement behind Figures 4-6: load, accept, reload
	// with every tracker, tally the jar. One site, one repetition, so
	// each run is exactly one cookie visit.
	c := s.Crawler()
	visit := func() {
		res, err := c.MeasureCookies(ctx, vp, "alloc budget", []string{wall}, 1, measure.ModeAccept, "")
		if err != nil || len(res) != 1 || res[0].Err != "" || res[0].Tally.Tracking == 0 {
			t.Fatalf("MeasureCookies(%s) = %+v, %v", wall, res, err)
		}
	}
	visit()
	got := testing.AllocsPerRun(50, visit)
	t.Logf("cookie visit: %.1f allocs (budget %d)", got, cookieVisitAllocBudget)
	if got > cookieVisitAllocBudget {
		t.Errorf("cookie visit allocates %.1f, budget is %d — the measurement path regressed",
			got, cookieVisitAllocBudget)
	}

	// The same measurement on warm sessions: one call over
	// warmSessionWalls cookiewalls × warmSessionReps, so its workers'
	// browsers recycle their arenas and slabs across visits, and the
	// call's own costs are shared by every visit.
	walls := s.CookiewallDomains()[:warmSessionWalls]
	campaignVisit := func() {
		res, err := c.MeasureCookies(ctx, vp, "alloc budget warm", walls, warmSessionReps, measure.ModeAccept, "")
		if err != nil || len(res) != len(walls) {
			t.Fatalf("MeasureCookies(%d walls) = %d results, %v", len(walls), len(res), err)
		}
		for _, r := range res {
			if r.Err != "" {
				t.Fatalf("MeasureCookies(%s): %s", r.Domain, r.Err)
			}
		}
	}
	campaignVisit()
	got = testing.AllocsPerRun(10, campaignVisit) / (warmSessionWalls * warmSessionReps)
	t.Logf("warm-session cookie visit: %.2f allocs (budget %d)", got, warmCookieVisitAllocBudget)
	if got > warmCookieVisitAllocBudget {
		t.Errorf("warm-session cookie visit allocates %.2f, budget is %d — the measurement path regressed",
			got, warmCookieVisitAllocBudget)
	}
}

// Crawl-total budget: one warm landscape crawl — every vantage point
// over every target, render cache and analysis memo primed — at seed 42,
// scale 0.02 and 12 shards (the shard count DefaultShards gives the
// paper's 45 222 targets), under GOMAXPROCS(1). Measured 423 allocs and
// 1 260 752 B per crawl, identical across runs and processes with the
// collector off. The bytes were 1 256 144 until each campaign worker
// gained a scratch subresource URL and a text buffer, which moved each
// worker a crawl allocates from the 1 152 B size class to the 1 280 B
// one: 1 024 B more per crawl. They were 1 257 168 until each worker's
// browser gained its arenas' chunk tables, its page slab and its
// snapshot buffers (a 1 576 B worker, in the 1 792 B class); the warm
// crawl composes nothing, so none of them is allocated, and its Reset
// recycles nothing. Each campaign run sets up one worker pool and one
// delivery ring for all its shards, so the set-up counted here is per
// run, not per shard. The margins absorb toolchain drift only: one more
// allocation per visit, or 16 KiB more per run, fails.
const (
	crawlAllocBudget = 423 + 8
	crawlBytesBudget = 1256144 + 16<<10
)

// TestLandscapeCrawlAllocBudget pins the allocations and bytes of one
// warm landscape crawl, the call BenchmarkLandscapeCrawl times. It is
// the only gate on costs a single visit does not show: per-run worker
// pool and per-campaign set-up, delivery and the landscape index, and
// per-visit drift too small for TestVisitAllocBudget's budgets.
//
// The collector is off while the crawls are measured: a cycle hands the
// runtime work (refilling its sudog cache, cleaning up unique maps)
// whose allocations would otherwise land in the count at random. The
// reading is the least of three crawls, so a stray allocation by a
// goroutine another test left behind cannot fail the gate either.
func TestLandscapeCrawlAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is exact; skip in -short/-race runs")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.02, Reps: 2, Shards: 12})
	targets, vps := s.Targets(), vantage.All()
	crawl := func() {
		l, err := s.Crawler().Landscape(context.Background(), vps, targets)
		if err != nil || l.Targets != len(targets) {
			t.Fatalf("Landscape: %d of %d targets, %v", l.Targets, len(targets), err)
		}
	}
	crawl() // prime the render cache and the analysis memo
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs, bytes := ^uint64(0), ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		crawl()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("landscape crawl: %d allocs (budget %d), %d B (budget %d)",
		allocs, crawlAllocBudget, bytes, crawlBytesBudget)
	if allocs > crawlAllocBudget {
		t.Errorf("landscape crawl allocates %d times, budget is %d — the crawl path regressed",
			allocs, crawlAllocBudget)
	}
	if bytes > crawlBytesBudget {
		t.Errorf("landscape crawl allocates %d B, budget is %d — the crawl path regressed",
			bytes, crawlBytesBudget)
	}
}
