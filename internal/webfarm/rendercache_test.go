package webfarm

import (
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"cookiewalk/internal/synthweb"
)

// cacheStates enumerates pageState variants that exercise every field
// the render key must capture: consent states, VP-visibility classes,
// bot UAs and jittered visits.
func cacheStates(s *synthweb.Site) []pageState {
	return []pageState{
		{site: s, vpName: "Germany"},
		{site: s, vpName: "Germany", rejected: true},
		{site: s, vpName: "Germany", consented: true},
		{site: s, vpName: "Germany", consented: true, visit: "Germany|0|accept"},
		{site: s, vpName: "Germany", consented: true, visit: "Germany|1|accept"},
		{site: s, vpName: "Germany", subscribed: true, visit: "Germany|0|sub"},
		{site: s, vpName: "Germany", consented: true, subscribed: true, visit: "Germany|2|sub"},
		{site: s, vpName: "Brazil"},
		{site: s, vpName: ""},
		{site: s, vpName: "Germany", botUA: true},
		{site: s, vpName: "US East", botUA: true},
	}
}

// testSites picks a representative site population: cookiewalls in
// every embedding, a VP-restricted wall, a bot-sensitive site and a
// few regular/filler sites.
func testSites(t *testing.T) []*synthweb.Site {
	t.Helper()
	var sites []*synthweb.Site
	sites = append(sites,
		pickCookiewall(t, func(s *synthweb.Site) bool { return s.Provider.Name == "local" }),
		pickCookiewall(t, func(s *synthweb.Site) bool { return s.Provider.Host != "" }),
		pickCookiewall(t, func(s *synthweb.Site) bool { return s.Embedding == synthweb.EmbedIFrame }),
		pickCookiewall(t, func(s *synthweb.Site) bool { return s.Embedding == synthweb.EmbedShadowClosed }),
		pickCookiewall(t, func(s *synthweb.Site) bool { return len(s.ShowToVPs) > 0 }),
	)
	botSensitive, regular := false, 0
	for _, s := range testReg.Sites() {
		if !s.Reachable {
			continue
		}
		if s.BotSensitive && !botSensitive {
			sites = append(sites, s)
			botSensitive = true
		} else if s.Banner == synthweb.BannerRegular && regular < 3 {
			sites = append(sites, s)
			regular++
		}
		if botSensitive && regular >= 3 {
			break
		}
	}
	return sites
}

// renderSitePageUncached, bannerFragmentUncached and
// bannerDocumentUncached render without looking the render up or
// storing it, each into an arena of its own.
func (f *Farm) renderSitePageUncached(st pageState) string {
	var w docWriter
	for w.next() {
		f.writeSitePage(&w, st)
	}
	return w.String()
}

func (f *Farm) bannerFragmentUncached(s *synthweb.Site, providerHost string) string {
	var w docWriter
	for w.next() {
		writeBannerFragment(&w, s, providerHost)
	}
	return w.String()
}

func (f *Farm) bannerDocumentUncached(s *synthweb.Site) string {
	var w docWriter
	for w.next() {
		writeBannerDocument(&w, s)
	}
	return w.String()
}

// TestRenderCacheByteIdentical pins the cache's core contract: for
// every site and page state, the cached render (second call), the
// cache-populating render (first call) and a direct uncached render
// are the same bytes.
func TestRenderCacheByteIdentical(t *testing.T) {
	farm := New(testReg) // fresh farm => empty cache
	for _, s := range testSites(t) {
		for i, st := range cacheStates(s) {
			first := farm.renderSitePage(st)
			second := farm.renderSitePage(st)
			direct := farm.renderSitePageUncached(st)
			if first.body != direct {
				t.Errorf("%s state %d: populating render != uncached render", s.Domain, i)
			}
			if second.body != direct {
				t.Errorf("%s state %d: cached render != uncached render", s.Domain, i)
			}
			// The memoized fingerprint must be exactly the content hash
			// a plain HTTP reader would compute from the same bytes.
			if first.fp != bodyHash(direct) || second.fp != first.fp {
				t.Errorf("%s state %d: memoized fingerprint != bodyHash(render)", s.Domain, i)
			}
		}
		if s.Banner == synthweb.BannerNone {
			continue
		}
		if got, want := farm.bannerDocument(s), farm.bannerDocumentUncached(s); got.body != want || got.fp != bodyHash(want) {
			t.Errorf("%s: cached banner document diverges", s.Domain)
		}
		if s.Provider.Host == "" {
			continue
		}
		if got, want := farm.bannerFragment(s), farm.bannerFragmentUncached(s, s.Provider.Host); got.body != want || got.fp != bodyHash(want) {
			t.Errorf("%s: cached banner fragment diverges", s.Domain)
		}
	}
}

// TestRenderCacheKeyCoversJitter makes sure distinct visit labels on
// consent pages do not collide in the cache (their tracker-embed
// jitter differs), while pre-consent pages ignore the label entirely.
func TestRenderCacheKeyCoversJitter(t *testing.T) {
	farm := New(testReg)
	// Jitter may round to the same counts for one site, so find a
	// (site, label pair) whose UNCACHED renders differ, then check the
	// cache preserves exactly that difference.
	var site *synthweb.Site
	var stA, stB pageState
	for _, s := range testReg.CookiewallSites() {
		if s.Cookies.PostTracking == 0 {
			continue
		}
		for v := 1; v < 6 && site == nil; v++ {
			a := pageState{site: s, consented: true, visit: "Germany|0|accept"}
			b := pageState{site: s, consented: true, visit: fmt.Sprintf("Germany|%d|accept", v)}
			if farm.renderSitePageUncached(a) != farm.renderSitePageUncached(b) {
				site, stA, stB = s, a, b
			}
		}
		if site != nil {
			break
		}
	}
	if site == nil {
		t.Fatal("no site with visit-jitter-distinct consent renders found")
	}
	vA := farm.renderSitePage(stA)
	vB := farm.renderSitePage(stB)
	if vA.body == vB.body {
		t.Fatalf("%s: consent renders for distinct visit labels collide in the cache", site.Domain)
	}
	if vA.fp == vB.fp {
		t.Fatalf("%s: distinct jittered renders share a fingerprint", site.Domain)
	}
	if vA.body != farm.renderSitePageUncached(stA) || vB.body != farm.renderSitePageUncached(stB) {
		t.Fatalf("%s: cached jittered renders diverge from uncached", site.Domain)
	}
	// Pre-consent pages never embed jittered counts: any label must hit
	// the same cache entry and the same bytes.
	p0 := farm.renderSitePage(pageState{site: site, vpName: "Germany"})
	p1 := farm.renderSitePage(pageState{site: site, vpName: "Germany", visit: "Germany|1|accept"})
	if p0.body != p1.body || p0.fp != p1.fp {
		t.Fatalf("%s: pre-consent render depends on visit label", site.Domain)
	}
}

// TestRenderCacheConcurrent hammers one farm's cache from many
// goroutines across sites and states, and then with concurrent misses
// on one shard, and checks every result, body and interned header,
// against an uncached reference render. Run with -race, this is the
// cache-correctness gate for parallel campaigns.
func TestRenderCacheConcurrent(t *testing.T) {
	farm := New(testReg)
	ref := New(testReg) // renders references through its own cache-free path
	sites := testSites(t)

	type job struct {
		st         pageState
		want       string
		wantHeader http.Header
	}
	var jobs []job
	for _, s := range sites {
		for _, st := range cacheStates(s) {
			jobs = append(jobs, job{st: st, want: ref.renderSitePageUncached(st), wantHeader: ref.refPageHeader(st)})
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for i, j := range jobs {
					// Vary the order per worker so gets and puts interleave.
					j = jobs[(i+w*7+rep)%len(jobs)]
					got := farm.renderSitePage(j.st)
					if got.body != j.want || got.fp != bodyHash(j.want) || !reflect.DeepEqual(got.header, j.wantHeader) {
						select {
						case errs <- fmt.Sprintf("worker %d: %s render diverged under concurrency", w, j.st.site.Domain):
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

	// Concurrent misses on one shard: distinct keys that all hash to
	// shard 0, so every writing pass takes turns on one arena, while
	// other workers read the documents written before theirs.
	one := New(testReg)
	var same []job
	for i := 0; len(same) < 64; i++ {
		st := pageState{site: sites[i%len(sites)], vpName: "Germany", consented: true,
			visit: fmt.Sprintf("Germany|%d|accept", i)}
		if one.renders.shard(pageKey(st)) == &one.renders.shards[0] {
			same = append(same, job{st: st, want: ref.renderSitePageUncached(st)})
		}
	}
	errs = make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var seen []string
			for i := range same {
				j := same[(i+w*11)%len(same)]
				got := one.renderSitePage(j.st)
				if got.body != j.want {
					errs <- fmt.Sprintf("worker %d: %s miss on a shared shard diverged", w, j.st.visit)
					return
				}
				seen = append(seen, got.body)
			}
			for i, body := range seen {
				if body != same[(i+w*11)%len(same)].want {
					errs <- fmt.Sprintf("worker %d: a document changed after later misses", w)
					return
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

// TestRenderCacheBounded checks the overflow behaviour: a shard that
// exceeds its entry bound resets and keeps serving correct renders.
func TestRenderCacheBounded(t *testing.T) {
	var c renderCache
	for i := 0; i < 3*renderShardMax; i++ {
		k := renderKey{domain: fmt.Sprintf("site-%06d.example", i), kind: kindPage}
		c.put(k, k.domain, nil)
	}
	for i := range c.shards {
		if n := len(c.shards[i].m); n > renderShardMax {
			t.Fatalf("shard %d holds %d entries, bound is %d", i, n, renderShardMax)
		}
	}
	// Entries written after a reset are still served, fingerprint intact.
	k := renderKey{domain: "after-reset.example", kind: kindPage}
	c.put(k, "page", nil)
	if v, ok := c.get(k); !ok || v.body != "page" || v.fp != bodyHash("page") {
		t.Fatal("cache lost an entry written after overflow reset")
	}
}
