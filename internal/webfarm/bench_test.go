package webfarm

import (
	"testing"

	"cookiewalk/internal/synthweb"
)

// benchStates mixes the page states a landscape + cookie campaign
// actually requests.
func benchStates(sites []*synthweb.Site) []pageState {
	var sts []pageState
	for _, s := range sites {
		sts = append(sts,
			pageState{site: s, vpName: "Germany"},
			pageState{site: s, vpName: "Brazil"},
			pageState{site: s, consented: true, visit: "Germany|0|accept"},
		)
	}
	return sts
}

// BenchmarkRenderSitePage measures page rendering through the farm's
// memoizing path (steady-state: every request after the first per key
// is a cache hit) against the raw renderer.
func BenchmarkRenderSitePage(b *testing.B) {
	sites := testReg.CookiewallSites()
	sts := benchStates(sites)
	b.Run("cached", func(b *testing.B) {
		farm := New(testReg)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if farm.renderSitePage(sts[i%len(sts)]).body == "" {
				b.Fatal("empty render")
			}
		}
	})
	b.Run("uncached", func(b *testing.B) {
		farm := New(testReg)
		var a shardArena // one arena, as a shard's misses share theirs
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := docWriter{b: &a}
			for w.next() {
				farm.writeSitePage(&w, sts[i%len(sts)])
			}
			if w.String() == "" {
				b.Fatal("empty render")
			}
		}
	})
}

// BenchmarkRenderCacheContention hammers a warm render cache from
// every P at once — the landscape crawl's steady state, where all
// workers read memoized pages concurrently. Run with -cpu 1,4 to see
// the scaling: the shards are RLock-only and padded to distinct cache
// lines, so throughput should grow near-linearly with P.
func BenchmarkRenderCacheContention(b *testing.B) {
	farm := New(testReg)
	sts := benchStates(testReg.CookiewallSites())
	for _, st := range sts { // warm every key
		if farm.renderSitePage(st).body == "" {
			b.Fatal("empty render")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if farm.renderSitePage(sts[i%len(sts)]).body == "" {
				b.Fatal("empty render")
			}
			i++
		}
	})
}
