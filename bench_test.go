// Benchmark harness: one benchmark per paper artefact, at full scale
// (45 222 targets). Each benchmark regenerates its table or figure the
// way the paper's analysis pipeline does — from one shared measurement
// campaign — and logs the artefact (visible with -v) so the rows and
// series can be compared against the paper directly.
//
// Run: go test -bench=. -benchmem
package cookiewalk_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"cookiewalk"
	"cookiewalk/internal/campaign"
	"cookiewalk/internal/core"
	"cookiewalk/internal/measure"
	"cookiewalk/internal/vantage"
)

var (
	fullOnce  sync.Once
	fullStudy *cookiewalk.Study
)

// fullScale returns the shared full-scale study with the landscape
// campaign already run (the expensive one-time setup every analysis
// shares, like the paper's single crawl).
func fullScale(b *testing.B) *cookiewalk.Study {
	b.Helper()
	fullOnce.Do(func() {
		fullStudy = cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 1, Reps: 5})
		fullStudy.Landscape()
	})
	return fullStudy
}

// benchReport regenerates one artefact per iteration.
func benchReport(b *testing.B, exp cookiewalk.Experiment) {
	s := fullScale(b)
	b.ResetTimer()
	var text string
	for i := 0; i < b.N; i++ {
		var err error
		text, err = s.Report(exp)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + text)
}

// BenchmarkLandscapeCrawl measures the raw eight-VP campaign over all
// 45 222 targets (the input to Table 1 and Figures 1-3/6), running
// through the streaming campaign engine.
func BenchmarkLandscapeCrawl(b *testing.B) {
	s := fullScale(b)
	targets := s.Targets()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := s.Crawler().Landscape(context.Background(), vantage.All(), targets)
		if err != nil {
			b.Fatal(err)
		}
		if l.Targets != len(targets) {
			b.Fatal("crawl incomplete")
		}
	}
	// The GOMAXPROCS the iterations actually ran under. The name's -N
	// suffix can disagree: with `-benchtime 1x -cpu 1,4` the framework
	// reuses the probe run (executed at the LAST cpu value) for the
	// first entry, so run each cpu value in its own `go test`
	// invocation when the numbers matter. Reported after the loop —
	// ResetTimer discards earlier metrics.
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkTable1 regenerates Table 1 (cookiewalls per vantage point).
func BenchmarkTable1(b *testing.B) { benchReport(b, cookiewalk.ExpTable1) }

// BenchmarkEmbeddings regenerates the §3 embedding split (76/132/72).
func BenchmarkEmbeddings(b *testing.B) { benchReport(b, cookiewalk.ExpEmbeddings) }

// BenchmarkAccuracy regenerates the §3 accuracy audit (98.2%).
func BenchmarkAccuracy(b *testing.B) { benchReport(b, cookiewalk.ExpAccuracy) }

// BenchmarkPrevalence regenerates the §4.1 rates (0.6%, 2.9%, 8.5%).
func BenchmarkPrevalence(b *testing.B) { benchReport(b, cookiewalk.ExpPrevalence) }

// BenchmarkFigure1 regenerates the category distribution.
func BenchmarkFigure1(b *testing.B) { benchReport(b, cookiewalk.ExpFigure1) }

// BenchmarkFigure2 regenerates the price heatmap and ECDF.
func BenchmarkFigure2(b *testing.B) { benchReport(b, cookiewalk.ExpFigure2) }

// BenchmarkFigure3 regenerates the category-price analysis.
func BenchmarkFigure3(b *testing.B) { benchReport(b, cookiewalk.ExpFigure3) }

// BenchmarkFigure4 measures the §4.3 cookie experiment end to end:
// 280 cookiewall + 280 regular sites × 5 repetitions, accept clicks,
// cookie counting — uncached, the full workload.
func BenchmarkFigure4(b *testing.B) {
	s := fullScale(b)
	l := s.Landscape()
	vp, _ := vantage.ByName("Germany")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := s.Crawler().RunFigure4(context.Background(), l, vp, 5, 42)
		if err != nil {
			b.Fatal(err)
		}
		if len(f.Cookiewall) == 0 {
			b.Fatal("no cookiewall measurements")
		}
	}
}

// BenchmarkFigure5 measures the §4.4 SMP experiment end to end: all
// 219 contentpass partners × 5 repetitions × accept+subscribe.
func BenchmarkFigure5(b *testing.B) {
	s := fullScale(b)
	vp, _ := vantage.ByName("Germany")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := s.Crawler().RunFigure5(context.Background(), vp, "contentpass", 5)
		if err != nil {
			b.Fatal(err)
		}
		if f.Partners != 219 {
			b.Fatalf("partners = %d", f.Partners)
		}
	}
}

// BenchmarkFigure6 regenerates the tracking-vs-price correlation.
func BenchmarkFigure6(b *testing.B) { benchReport(b, cookiewalk.ExpFigure6) }

// BenchmarkSMP regenerates the §4.4 partner summary.
func BenchmarkSMP(b *testing.B) { benchReport(b, cookiewalk.ExpSMP) }

// BenchmarkBypass measures the §4.5 ad-blocker experiment end to end:
// 280 cookiewalls × 5 repetitions with filter lists active.
func BenchmarkBypass(b *testing.B) { benchReport(b, cookiewalk.ExpBypass) }

// BenchmarkAblation measures the detection-ablation study (280 walls
// re-analyzed under four pipeline configurations).
func BenchmarkAblation(b *testing.B) { benchReport(b, cookiewalk.ExpAblation) }

// BenchmarkAutoReject measures the §5 auto-reject experiment.
func BenchmarkAutoReject(b *testing.B) { benchReport(b, cookiewalk.ExpAutoReject) }

// BenchmarkRevocation measures the §5 revocation experiment
// (accept → revisit → delete cookies → revisit, 280 sites).
func BenchmarkRevocation(b *testing.B) { benchReport(b, cookiewalk.ExpRevocation) }

var (
	smallOnce  sync.Once
	smallStudy *cookiewalk.Study
)

// smallScale returns a shared small study for focused hot-path
// benchmarks: cheap setup (CI runs these with -benchtime 1x as a
// bit-rot smoke test), identical per-visit work.
func smallScale(b *testing.B) *cookiewalk.Study {
	b.Helper()
	smallOnce.Do(func() {
		smallStudy = cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.02, Reps: 2})
	})
	return smallStudy
}

// BenchmarkVisit measures the campaign's per-visit unit of work on the
// crawl hot path, in both memo states:
//
//   - cookiewall/regular run with the analysis cache DISABLED: the full
//     fetch-parse-detect-classify pipeline of a memo miss, directly
//     comparable to the pre-PR3 per-visit numbers;
//   - cached-repeat runs the default memoizing path on a warm cache —
//     the steady-state cost of the 2nd..8th vantage point loading an
//     identical render (fetch + fingerprint lookup, no parse).
//
// Visits run under campaign.WithAffinity, reusing one browser session
// the way a campaign worker does.
func BenchmarkVisit(b *testing.B) {
	s := smallScale(b)
	vp, _ := vantage.ByName("Germany")
	noMemo := measure.New(s.Crawler().Reg, s.Transport())
	noMemo.NoAnalysisCache = true
	wall := s.CookiewallDomains()[0]
	for _, bc := range []struct {
		name, domain string
		crawler      *measure.Crawler
	}{
		{"cookiewall", wall, noMemo},
		{"regular", regularDomain(b, s), noMemo},
		{"cached-repeat", wall, s.Crawler()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := bc.crawler
			ctx := campaign.WithAffinity(context.Background())
			c.Visit(ctx, vp, bc.domain, measure.VisitOpts{}) // warm render + analysis caches
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if o := c.Visit(ctx, vp, bc.domain, measure.VisitOpts{}); o.Err != "" {
					b.Fatal(o.Err)
				}
			}
		})
	}
}

// regularDomain finds a reachable site showing a regular banner.
func regularDomain(b *testing.B, s *cookiewalk.Study) string {
	b.Helper()
	vp, _ := vantage.ByName("Germany")
	c := s.Crawler()
	for _, d := range s.Targets() {
		if o := c.Visit(context.Background(), vp, d, measure.VisitOpts{}); o.Err == "" && o.Kind == core.KindRegular {
			return d
		}
	}
	b.Fatal("no regular-banner site found")
	return ""
}

// BenchmarkReportAll measures the COMPLETE study — universe
// generation, the eight-VP landscape and every follow-up experiment
// campaign, rendered end to end — under the serial schedule
// (ExperimentParallelism 1, the pre-DAG execution order) and the
// concurrent one (one slot per core, campaigns sharing the worker
// budget). Each iteration builds a fresh study: artefacts are memoized
// per Study, so reusing one would only measure the cache. Outputs are
// byte-identical across sub-benchmarks (pinned by
// TestSchedulerDeterminismAcrossParallelism); only wall clock may
// differ, and only on multi-core runs.
func BenchmarkReportAll(b *testing.B) {
	for _, bc := range []struct {
		name string
		par  int
	}{
		{"serial", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := cookiewalk.New(cookiewalk.Config{
					Seed: 42, Scale: 0.02, Reps: 2, ExperimentParallelism: bc.par,
				})
				out, err := s.Report(cookiewalk.ExpAll)
				if err != nil {
					b.Fatal(err)
				}
				if len(out) == 0 {
					b.Fatal("empty report")
				}
			}
		})
	}
}

// BenchmarkDetectHTML measures the detector alone on a static page.
func BenchmarkDetectHTML(b *testing.B) {
	page := `<html><body><main><p>Nachrichten über Politik und Sport.</p></main>
	<div class="cw-overlay" role="dialog" style="position:fixed;top:20%">
	<p>Werbefrei im Abo für nur 2,99 € pro Monat oder mit Cookies akzeptieren.</p>
	<button>Alle akzeptieren</button><button>Jetzt abonnieren</button></div></body></html>`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := cookiewalk.DetectInHTML(page)
		if rep.BannerKind != "cookiewall" {
			b.Fatal("detection failed")
		}
	}
}

// BenchmarkGenerateUniverse measures full-scale registry generation.
func BenchmarkGenerateUniverse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := cookiewalk.New(cookiewalk.Config{Seed: uint64(i + 1), Scale: 1})
		if len(s.Targets()) != 45222 {
			b.Fatalf("targets = %d", len(s.Targets()))
		}
	}
}
