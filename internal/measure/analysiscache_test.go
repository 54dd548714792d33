package measure

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"cookiewalk/internal/core"
	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/vantage"
	"cookiewalk/internal/webfarm"
)

// TestAnalysisCacheSingleflight pins the dedup contract: many
// goroutines racing on ONE fingerprint run the compute exactly once
// and all observe its result.
func TestAnalysisCacheSingleflight(t *testing.T) {
	var c analysisCache
	var computes atomic.Int64
	const workers = 16
	var wg sync.WaitGroup
	results := make([]core.Analysis, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = c.get(42, func() core.Analysis {
				computes.Add(1)
				return core.Analysis{Kind: core.KindCookiewall, Language: "de", MatchedWords: []string{"abo"}}
			})
		}(w)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times for one fingerprint, want 1", n)
	}
	for w, a := range results {
		if a.Kind != core.KindCookiewall || a.Language != "de" || len(a.MatchedWords) != 1 {
			t.Fatalf("worker %d saw analysis %+v", w, a)
		}
	}
}

// TestAnalysisCacheConcurrent hammers the cache from many goroutines
// over many fingerprints, each mapping to a deterministic expected
// analysis. Run with -race, this is the correctness gate for the memo
// under parallel campaigns (the analogue of TestRenderCacheConcurrent).
func TestAnalysisCacheConcurrent(t *testing.T) {
	var c analysisCache
	want := func(fp uint64) core.Analysis {
		return core.Analysis{
			Kind:       core.Kind(fp % 3),
			PriceCount: int(fp % 7),
			Language:   fmt.Sprintf("l%d", fp%5),
		}
	}
	const (
		workers = 8
		fps     = 512
	)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i := 0; i < fps; i++ {
					// Vary the order per worker so claims and waits
					// interleave across shards.
					fp := uint64((i*131 + w*17 + rep) % fps)
					got := c.get(fp, func() core.Analysis { return want(fp) })
					if !reflect.DeepEqual(got, want(fp)) {
						select {
						case errs <- fmt.Sprintf("worker %d: fp %d diverged under concurrency", w, fp):
						default:
						}
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestAnalysisCacheBounded checks overflow behaviour: shards past
// their entry bound reset and keep serving correct results.
func TestAnalysisCacheBounded(t *testing.T) {
	var c analysisCache
	for i := 0; i < 3*analysisShards*analysisShardMax/2; i++ {
		fp := uint64(i)
		a := c.get(fp, func() core.Analysis { return core.Analysis{PriceCount: int(fp)} })
		if a.PriceCount != int(fp) {
			t.Fatalf("fp %d: wrong analysis after overflow churn", fp)
		}
	}
	for i := range c.shards {
		if n := len(c.shards[i].m); n > analysisShardMax {
			t.Fatalf("shard %d holds %d entries, bound is %d", i, n, analysisShardMax)
		}
	}
	// A fingerprint evicted by a reset is recomputed, not lost.
	recomputed := false
	a := c.get(0, func() core.Analysis { recomputed = true; return core.Analysis{PriceCount: 0} })
	if a.PriceCount != 0 {
		t.Fatal("wrong analysis after reset")
	}
	_ = recomputed // either outcome is legal; correctness is the value
}

// TestVisitAnalysisCacheEquivalence crawls a slice of the universe
// from every vantage point with the memo enabled and disabled and
// requires observation-for-observation identical results — the
// VP-independence invariant the whole tentpole rests on, checked at
// the Observation level (the golden report pins it end to end).
func TestVisitAnalysisCacheEquivalence(t *testing.T) {
	c, _ := fixture(t)
	plain := New(c.Reg, c.Transport)
	plain.NoAnalysisCache = true

	targets := c.Reg.TargetList()
	if len(targets) > 120 {
		targets = targets[:120]
	}
	for _, vp := range vantage.All() {
		for _, domain := range targets {
			cached := c.Visit(context.Background(), vp, domain, VisitOpts{})
			direct := plain.Visit(context.Background(), vp, domain, VisitOpts{})
			if !reflect.DeepEqual(cached, direct) {
				t.Fatalf("%s from %s: cached observation %+v != uncached %+v",
					domain, vp.Name, cached, direct)
			}
		}
	}
}

// rewriteTransport routes the browser's https://domain/ requests to a
// local listener while preserving the Host header — the cmd/webfarm
// deployment mode, where the browser sees a PLAIN http.RoundTripper
// and must derive fingerprints by hashing downloaded bytes.
type rewriteTransport struct {
	addr string // host:port of the test listener
}

func (rt rewriteTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	clone := req.Clone(req.Context())
	clone.URL.Scheme = "http"
	clone.URL.Host = rt.addr
	clone.Host = req.URL.Host // virtual hosting by Host header
	return http.DefaultTransport.RoundTrip(clone)
}

// TestAnalysisFingerprintFallbackHash exercises the plain-RoundTripper
// fingerprint path end to end over cmd/webfarm's real-listener mode:
// visits through a TCP socket must produce byte-identical observations
// to in-process visits — with the memo on AND off — because the
// fallback body hash resolves to the same content token the in-process
// fast path hands out. Distinct sites must keep distinct analyses (no
// false sharing through the fallback hash).
func TestAnalysisFingerprintFallbackHash(t *testing.T) {
	reg := synthweb.Generate(synthweb.Config{Seed: 42, FillerScale: 0.02})
	farm := webfarm.New(reg)
	srv := httptest.NewServer(farm)
	defer srv.Close()

	inproc := New(reg, farm.Transport())
	overWire := New(reg, rewriteTransport{addr: srv.Listener.Addr().String()})
	overWireDirect := New(reg, rewriteTransport{addr: srv.Listener.Addr().String()})
	overWireDirect.NoAnalysisCache = true

	// A handful of structurally distinct sites: cookiewalls in several
	// embeddings plus a regular-banner site.
	var domains []string
	for _, s := range reg.CookiewallSites() {
		if len(domains) < 6 && s.Reachable {
			domains = append(domains, s.Domain)
		}
	}
	for _, s := range reg.Sites() {
		if s.Banner == synthweb.BannerRegular && s.Reachable {
			domains = append(domains, s.Domain)
			break
		}
	}
	if len(domains) < 3 {
		t.Fatal("not enough test sites")
	}

	vpDE, _ := vantage.ByName("Germany")
	vpBR, _ := vantage.ByName("Brazil")
	for _, domain := range domains {
		for _, vp := range []vantage.VP{vpDE, vpBR} {
			// The memo-free overWireDirect visit below is the ground
			// truth: had the fallback hash folded two distinct pages
			// onto one memo entry, the cached observations here would
			// diverge from it for at least one (domain, VP).
			want := inproc.Visit(context.Background(), vp, domain, VisitOpts{})
			got := overWire.Visit(context.Background(), vp, domain, VisitOpts{})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s from %s: real-listener observation %+v != in-process %+v",
					domain, vp.Name, got, want)
			}
			direct := overWireDirect.Visit(context.Background(), vp, domain, VisitOpts{})
			if !reflect.DeepEqual(direct, want) {
				t.Fatalf("%s from %s: real-listener uncached observation diverges", domain, vp.Name)
			}
		}
	}
}

// TestAnalyzeOneUsesCampaignEngine guards the single-target campaign
// path against regressions from the Visit split: one visit through
// AnalyzeOne equals a direct Visit.
func TestAnalyzeOneUsesCampaignEngine(t *testing.T) {
	c, _ := fixture(t)
	domain := c.Reg.TargetList()[0]
	vp := germanyVP()
	direct := c.Visit(context.Background(), vp, domain, VisitOpts{})
	viaEngine, err := c.AnalyzeOne(context.Background(), vp, domain, VisitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, viaEngine) {
		t.Fatalf("AnalyzeOne %+v != Visit %+v", viaEngine, direct)
	}
}

// TestAnalysisMemoSeparatesUniverses: the memo is process-wide, yet a
// page shell that two universes serve byte for byte must be analyzed
// per universe, because what Compose fetches into it (frames, injected
// scripts) comes from the universe. Seeds 42 and 7 share cookiewall
// domains whose top-level documents fingerprint equal while their
// banners differ; a cached visit in one universe must not hand its
// analysis to the other.
func TestAnalysisMemoSeparatesUniverses(t *testing.T) {
	ctx := context.Background()
	vp, _ := vantage.ByName("Germany")
	crawler := func(seed uint64) *Crawler {
		reg := synthweb.Generate(synthweb.Config{Seed: seed, FillerScale: 0.02})
		return New(reg, webfarm.New(reg).Transport())
	}
	a, b := crawler(42), crawler(7)
	direct := func(c *Crawler, domain string) Observation {
		plain := New(c.Reg, c.Transport)
		plain.NoAnalysisCache = true
		return plain.Visit(ctx, vp, domain, VisitOpts{})
	}
	shared := 0
	for _, s := range a.Reg.CookiewallSites() {
		if _, ok := b.Reg.Site(s.Domain); !ok {
			continue
		}
		wantA, wantB := direct(a, s.Domain), direct(b, s.Domain)
		if wantA.Err != "" || wantA.Fingerprint != wantB.Fingerprint || reflect.DeepEqual(wantA, wantB) {
			continue
		}
		shared++
		// Either universe may claim the fingerprint first.
		for _, order := range [][2]*Crawler{{b, a}, {a, b}} {
			for _, c := range order {
				want := wantA
				if c == b {
					want = wantB
				}
				if got := c.Visit(ctx, vp, s.Domain, VisitOpts{}); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s in seed %d: cached observation %+v != uncached %+v",
						s.Domain, c.Reg.Config().Seed, got, want)
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no domain serves an equal page shell with different banners at seeds 42 and 7; the test checks nothing")
	}
	t.Logf("%d shared page shells analyzed per universe", shared)
}
