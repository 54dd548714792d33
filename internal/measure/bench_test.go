package measure

import (
	"context"
	"testing"

	"cookiewalk/internal/browser"
	"cookiewalk/internal/campaign"
	"cookiewalk/internal/core"
	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/webfarm"
)

// BenchmarkAnalyzeMemo isolates the analysis memo itself on a real
// composed cookiewall page:
//
//   - hit: steady-state lookup of an already-analyzed fingerprint —
//     the cost the 2nd..8th vantage point pays instead of the pipeline;
//   - miss: first-claim cost, i.e. the full analyzePage pipeline plus
//     the singleflight bookkeeping (each iteration claims a fresh
//     fingerprint).
func BenchmarkAnalyzeMemo(b *testing.B) {
	reg := synthweb.Generate(synthweb.Config{Seed: 42, FillerScale: 0.02})
	farm := webfarm.New(reg)
	var domain string
	for _, s := range reg.CookiewallSites() {
		if s.Reachable {
			domain = s.Domain
			break
		}
	}
	if domain == "" {
		b.Fatal("no reachable cookiewall site")
	}
	br := browser.New(farm.Transport(), germanyVP())
	page, err := br.Open("https://" + domain + "/")
	if err != nil {
		b.Fatal(err)
	}

	// One worker for every analysis, as a crawl worker keeps its
	// detector and text buffer.
	var w worker
	b.Run("hit", func(b *testing.B) {
		var c analysisCache
		c.get(page.Fingerprint, func() core.Analysis { return w.analyzePage(page) })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := c.get(page.Fingerprint, func() core.Analysis {
				b.Fatal("memo hit ran compute")
				return core.Analysis{}
			})
			if a.Kind != core.KindCookiewall {
				b.Fatal("wrong cached analysis")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		var c analysisCache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Distinct fingerprint per iteration: every get is a first
			// claim running the full pipeline.
			a := c.get(uint64(i), func() core.Analysis { return w.analyzePage(page) })
			if a.Kind != core.KindCookiewall {
				b.Fatal("wrong analysis")
			}
		}
	})
}

// BenchmarkCookieVisit measures one cookie-measurement visit, the unit
// of Figures 4-6: load a cookiewall page, click accept, reload with the
// consent cookie (trackers and all), then tally the jar by party and
// blocklist. It runs under campaign.WithAffinity, reusing one browser
// session the way a campaign worker does.
func BenchmarkCookieVisit(b *testing.B) {
	reg := synthweb.Generate(synthweb.Config{Seed: 42, FillerScale: 0.02})
	c := New(reg, webfarm.New(reg).Transport())
	var domain string
	for _, s := range reg.CookiewallSites() {
		if s.Reachable {
			domain = s.Domain
			break
		}
	}
	if domain == "" {
		b.Fatal("no reachable cookiewall site")
	}
	ctx := campaign.WithAffinity(context.Background())
	want, err := c.cookieVisit(ctx, germanyVP(), domain, "Germany|0|accept", ModeAccept, "")
	if err != nil {
		b.Fatal(err)
	}
	if want.ThirdParty == 0 || want.Tracking == 0 {
		b.Fatalf("accepting %s set no third-party or tracking cookies: %+v", domain, want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := c.cookieVisit(ctx, germanyVP(), domain, "Germany|0|accept", ModeAccept, "")
		if err != nil || got != want {
			b.Fatalf("visit %d: %+v, %v; first visit %+v", i, got, err, want)
		}
	}
}

// BenchmarkAnalysisCacheContention measures concurrent warm-memo
// lookups spread across many fingerprints — what every worker of a
// parallel campaign does for the 2nd..8th vantage point of each site.
// Run with -cpu 1,4: the shards are padded to distinct cache lines, so
// added Ps should add throughput, not lock convoys.
func BenchmarkAnalysisCacheContention(b *testing.B) {
	var c analysisCache
	const keys = 4096
	for i := 0; i < keys; i++ {
		c.get(uint64(i), func() core.Analysis { return core.Analysis{Kind: core.KindRegular} })
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			a := c.get(uint64(i%keys), func() core.Analysis {
				b.Fatal("warm lookup ran compute")
				return core.Analysis{}
			})
			if a.Kind != core.KindRegular {
				b.Fatal("wrong cached analysis")
			}
			i++
		}
	})
}
