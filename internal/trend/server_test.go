package trend

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for cache-TTL tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func newTestStore(t *testing.T, rounds int) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), testManifest())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for i := 0; i < rounds; i++ {
		if err := s.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func get(t *testing.T, h http.Handler, url string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestServerTrendQueries(t *testing.T) {
	srv := NewServer(ServerConfig{Store: newTestStore(t, 3)})
	h := srv.Handler()

	w := get(t, h, "/v1/trends/prevalence", nil)
	if w.Code != 200 {
		t.Fatalf("prevalence: %d %s", w.Code, w.Body)
	}
	var reply trendReply
	if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Points) != 3 || reply.Points[2].Round != 2 {
		t.Fatalf("points: %+v", reply.Points)
	}
	if reply.Points[1].Value != 0.007 {
		t.Fatalf("round 1 prevalence = %v", reply.Points[1].Value)
	}

	// Range bounds are inclusive.
	w = get(t, h, "/v1/trends/cookiewalls?from=1&to=1", nil)
	json.Unmarshal(w.Body.Bytes(), &reply)
	if len(reply.Points) != 1 || reply.Points[0].Value != 281 {
		t.Fatalf("ranged points: %+v", reply.Points)
	}

	// Per-VP metrics need ?vp=.
	w = get(t, h, "/v1/trends/vp_banner_rate?vp=Germany", nil)
	json.Unmarshal(w.Body.Bytes(), &reply)
	if len(reply.Points) != 3 || reply.Points[0].Value != 0.31 {
		t.Fatalf("vp points: %+v", reply.Points)
	}
	if w := get(t, h, "/v1/trends/vp_banner_rate", nil); w.Code != 400 {
		t.Fatalf("missing vp: %d", w.Code)
	}
	if w := get(t, h, "/v1/trends/prevalence?vp=Germany", nil); w.Code != 400 {
		t.Fatalf("vp on scalar metric: %d", w.Code)
	}
	if w := get(t, h, "/v1/trends/vp_banner_rate?vp=Atlantis", nil); w.Code != 404 {
		t.Fatalf("unknown vp: %d", w.Code)
	}
	if w := get(t, h, "/v1/trends/nope", nil); w.Code != 404 {
		t.Fatalf("unknown metric: %d", w.Code)
	}
	if w := get(t, h, "/v1/trends/prevalence?from=x", nil); w.Code != 400 {
		t.Fatalf("bad from: %d", w.Code)
	}

	// /v1/metrics enumerates the registry.
	w = get(t, h, "/v1/metrics", nil)
	if w.Code != 200 || !strings.Contains(w.Body.String(), "vp_banner_rate") {
		t.Fatalf("metrics: %d %s", w.Code, w.Body)
	}
}

func TestServerCacheHitMissAccounting(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	srv := NewServer(ServerConfig{Store: newTestStore(t, 2), Now: clock.now, CacheTTL: 10 * time.Second})
	h := srv.Handler()

	get(t, h, "/v1/trends/prevalence", nil)
	get(t, h, "/v1/trends/prevalence", nil)
	get(t, h, "/v1/trends/prevalence", nil)
	st := srv.CacheStats()
	if st.Misses != 1 || st.Hits != 2 || st.Entries != 1 {
		t.Fatalf("stats after 3 identical queries: %+v", st)
	}

	// A different canonical key is its own entry — but ?from=0 alone is
	// NOT one: it canonicalizes to the same (from, to) as the default.
	get(t, h, "/v1/trends/prevalence?from=0", nil)
	if st := srv.CacheStats(); st.Hits != 3 || st.Entries != 1 {
		t.Fatalf("stats after canonically identical query: %+v", st)
	}
	get(t, h, "/v1/trends/prevalence?from=1", nil)
	if st := srv.CacheStats(); st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats after distinct query: %+v", st)
	}

	// TTL expiry: same version, but the entry aged out.
	clock.t = clock.t.Add(11 * time.Second)
	get(t, h, "/v1/trends/prevalence", nil)
	if st := srv.CacheStats(); st.Misses != 3 || st.Stale != 0 {
		t.Fatalf("stats after TTL expiry: %+v", st)
	}
}

// TestServerCacheBounded: distinct queries must not grow the response
// cache without limit. Entries that expired go at the next insert, and
// live distinct keys within one TTL stop at maxCacheEntries.
func TestServerCacheBounded(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	srv := NewServer(ServerConfig{Store: newTestStore(t, 2), Now: clock.now, CacheTTL: 10 * time.Second})
	h := srv.Handler()
	for i := range 10000 {
		if w := get(t, h, fmt.Sprintf("/v1/trends/prevalence?to=%d", i), nil); w.Code != http.StatusOK {
			t.Fatalf("to=%d: %d", i, w.Code)
		}
		clock.t = clock.t.Add(11 * time.Second)
	}
	if st := srv.CacheStats(); st.Misses != 10000 || st.Entries != 1 {
		t.Fatalf("after 10000 distinct expiring queries: %+v, want 1 entry", st)
	}
	for i := range 3 * maxCacheEntries {
		get(t, h, fmt.Sprintf("/v1/trends/prevalence?from=%d", i), nil)
		if n := srv.CacheStats().Entries; n > maxCacheEntries {
			t.Fatalf("after %d live distinct queries: %d entries, cap %d", i+1, n, maxCacheEntries)
		}
	}

	// Eviction reuses the map: refilling it and sweeping it allocate
	// nothing.
	if testing.Short() {
		return // alloc counting is exact; skip in -short/-race runs
	}
	saved := maps.Clone(srv.entries)
	later := clock.t.Add(time.Hour)
	if n := testing.AllocsPerRun(20, func() {
		maps.Copy(srv.entries, saved)
		srv.evict(later, 0)
	}); n != 0 {
		t.Errorf("evict allocates %.1f per sweep", n)
	}
}

func TestServerCacheInvalidationOnNewRound(t *testing.T) {
	store := newTestStore(t, 2)
	srv := NewServer(ServerConfig{Store: store})
	h := srv.Handler()

	w := get(t, h, "/v1/trends/prevalence", nil)
	var before trendReply
	json.Unmarshal(w.Body.Bytes(), &before)
	if len(before.Points) != 2 {
		t.Fatalf("before: %+v", before.Points)
	}

	// A new round lands: the cached body must not be served again.
	if err := store.Append(record(2)); err != nil {
		t.Fatal(err)
	}
	w = get(t, h, "/v1/trends/prevalence", nil)
	var after trendReply
	json.Unmarshal(w.Body.Bytes(), &after)
	if len(after.Points) != 3 {
		t.Fatalf("after new round: %+v", after.Points)
	}
	st := srv.CacheStats()
	if st.Stale != 1 || st.Misses != 2 {
		t.Fatalf("stats after invalidation: %+v", st)
	}
}

func TestServerETag304RoundTrip(t *testing.T) {
	store := newTestStore(t, 2)
	srv := NewServer(ServerConfig{Store: store})
	h := srv.Handler()

	w := get(t, h, "/v1/rounds", nil)
	etag := w.Header().Get("ETag")
	if w.Code != 200 || etag == "" {
		t.Fatalf("first: %d etag=%q", w.Code, etag)
	}
	w = get(t, h, "/v1/rounds", map[string]string{"If-None-Match": etag})
	if w.Code != http.StatusNotModified || w.Body.Len() != 0 {
		t.Fatalf("conditional: %d body=%q", w.Code, w.Body)
	}
	if st := srv.CacheStats(); st.NotModified != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// After a new round the ETag changes and the stale validator
	// revalidates with a full body.
	if err := store.Append(record(2)); err != nil {
		t.Fatal(err)
	}
	w = get(t, h, "/v1/rounds", map[string]string{"If-None-Match": etag})
	if w.Code != 200 || w.Header().Get("ETag") == etag {
		t.Fatalf("post-append conditional: %d etag=%q", w.Code, w.Header().Get("ETag"))
	}
}

func TestServerAuth(t *testing.T) {
	srv := NewServer(ServerConfig{Store: newTestStore(t, 1), Token: "s3cret"})
	h := srv.Handler()
	if w := get(t, h, "/v1/rounds", nil); w.Code != 401 {
		t.Fatalf("no token: %d", w.Code)
	}
	if w := get(t, h, "/v1/rounds", map[string]string{"Authorization": "Bearer wrong"}); w.Code != 401 {
		t.Fatalf("wrong token: %d", w.Code)
	}
	if w := get(t, h, "/v1/rounds", map[string]string{"Authorization": "Bearer s3cret"}); w.Code != 200 {
		t.Fatalf("right token: %d", w.Code)
	}
}

func TestServerStatus(t *testing.T) {
	store := newTestStore(t, 2)
	srv := NewServer(ServerConfig{Store: store, Runner: &Runner{Store: store}})
	w := get(t, srv.Handler(), "/v1/status", nil)
	if w.Code != 200 {
		t.Fatalf("status: %d", w.Code)
	}
	var reply statusReply
	if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Rounds != 2 || reply.StoreVersion != 2 || reply.Runner == nil {
		t.Fatalf("status reply: %+v", reply)
	}
}

// TestServerResponseDeterminism mirrors TestExportDeterminism at the
// API layer: two servers over two INDEPENDENTLY built stores holding
// the same rounds answer every query with byte-identical bodies and
// ETags.
func TestServerResponseDeterminism(t *testing.T) {
	urls := []string{
		"/v1/rounds",
		"/v1/rounds?from=1&to=2",
		"/v1/metrics",
		"/v1/trends/prevalence",
		"/v1/trends/price_median?from=0&to=3",
		"/v1/trends/vp_banner_rate?vp=Germany",
		"/v1/trends/vp_errors?vp=US+East",
	}
	type response struct{ body, etag string }
	var runs [][]response
	for run := 0; run < 2; run++ {
		h := NewServer(ServerConfig{Store: newTestStore(t, 4)}).Handler()
		var rs []response
		for _, u := range urls {
			w := get(t, h, u, nil)
			if w.Code != 200 {
				t.Fatalf("run %d %s: %d %s", run, u, w.Code, w.Body)
			}
			rs = append(rs, response{body: w.Body.String(), etag: w.Header().Get("ETag")})
		}
		runs = append(runs, rs)
	}
	for i, u := range urls {
		if runs[0][i].body != runs[1][i].body {
			t.Errorf("%s: bodies differ across independent stores:\n  A: %s\n  B: %s", u, runs[0][i].body, runs[1][i].body)
		}
		if runs[0][i].etag != runs[1][i].etag {
			t.Errorf("%s: ETags differ: %q vs %q", u, runs[0][i].etag, runs[1][i].etag)
		}
	}
}
