package cookiewalk_test

import (
	"context"
	"testing"

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
//   - uncached: the full pipeline a memo miss runs — parse, detection,
//     language, category. Measured 33 allocs (cookiewall) / 29
//     (regular) with the single-allocation Node.Text and the in-place
//     eTLD+1 (62 / 56 before those two).
//   - cookie visit: one MeasureCookies repetition in accept mode — load,
//     click, reload with every tracker, tally the jar. Measured 412
//     allocs on the first cookiewall domain with the zero-alloc eTLD+1
//     and tally, single-parse subresource fetches, map-free tracker
//     responses and recorder-free farm replies (1 942 before them).
//
// Budgets carry headroom for toolchain drift while still failing
// tier-1 long before any path regresses to its previous profile
// (earlier budgets: 110/100 and 150/125 uncached, 40/30 and 6/6 cached; the
// first profiled visit made ~222 allocs).
const (
	cookiewallCachedAllocBudget   = 1
	regularCachedAllocBudget      = 1
	cookiewallUncachedAllocBudget = 45
	regularUncachedAllocBudget    = 40
	cookieVisitAllocBudget        = 600
)

// TestVisitAllocBudget pins the allocation count of the single-visit
// hot path in both memo states, so allocation regressions fail tier-1
// instead of surfacing months later in campaign wall-clock time. The
// visits run under campaign.WithAffinity, the way a campaign worker
// runs them: one browser session reused across visits.
func TestVisitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is exact; skip in -short/-race runs")
	}
	s := cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.02, Reps: 2})
	noMemo := cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.02, Reps: 2, NoAnalysisCache: true})
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
}
