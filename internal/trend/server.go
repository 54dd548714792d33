package trend

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cookiewalk/internal/httpsrv"
)

// The query API. Routes follow the coordinator API's conventions
// (internal/campaign/dist): Go 1.22 method patterns, optional bearer
// token, JSON bodies. Everything served is precomputed — responses are
// assembled from stored per-round aggregates and memoized in a
// response cache keyed by the canonical query, so heavy read traffic
// costs map lookups, not JSON re-encoding, and conditional requests
// (If-None-Match) cost only an ETag compare.
//
//	GET /v1/trends/{metric}?from=&to=[&vp=]  one metric as a time series
//	GET /v1/rounds?from=&to=                 full round records
//	GET /v1/metrics                          the queryable metric registry
//	GET /v1/status                           store/runner/cache health (uncached)

// ServerConfig configures a trend query server.
type ServerConfig struct {
	// Store is the round store to serve. Required.
	Store *Store
	// Runner, when set, contributes schedule state to /v1/status.
	Runner *Runner
	// Token, when non-empty, locks the API behind bearer auth exactly
	// like the fleet coordinator's -fleet-token.
	Token string
	// CacheTTL bounds a cached response's lifetime (default 15s).
	// Entries are also invalidated eagerly whenever a new round lands,
	// whatever their age. Expired and invalidated entries are dropped
	// the next time a body is cached, and the cache never holds more
	// than maxCacheEntries.
	CacheTTL time.Duration
	// Now is the cache clock (defaults to time.Now; tests inject).
	Now func() time.Time
}

// CacheStats is the response cache's accounting, served by /v1/status.
type CacheStats struct {
	// Hits are requests served from a cached body (304s included);
	// Misses built a fresh body. Stale counts the misses whose cached
	// entry existed but predated the newest round — the
	// new-round-invalidation path.
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Stale       uint64 `json:"stale"`
	NotModified uint64 `json:"not_modified"`
	Entries     int    `json:"entries"`
}

// Server serves the query API over a Store.
type Server struct {
	cfg ServerConfig
	now func() time.Time
	ttl time.Duration

	mu      sync.Mutex
	entries map[string]*cacheEntry
	stats   CacheStats
}

// maxCacheEntries caps the response cache. The query space is
// unbounded (from/to windows), so a scan of distinct keys within one
// round and one TTL would otherwise grow the map without limit; the
// cache is cleared outright when an insert finds it full of live
// entries. Real key mixes stay far below the cap: every metric, per
// vantage point where it applies, plus a few dozen windows.
const maxCacheEntries = 1024

// cacheEntry is one memoized response body. version pins the store
// state it was computed from; expires bounds its lifetime.
type cacheEntry struct {
	body    []byte
	etag    string
	version uint64
	expires time.Time
}

// NewServer builds a query server over cfg.Store.
func NewServer(cfg ServerConfig) *Server {
	s := &Server{cfg: cfg, now: cfg.Now, ttl: cfg.CacheTTL, entries: map[string]*cacheEntry{}}
	if s.now == nil {
		s.now = time.Now
	}
	if s.ttl <= 0 {
		s.ttl = 15 * time.Second
	}
	return s
}

// Handler returns the API handler (mount it on a server of your
// choosing). With a token configured every route requires
// "Authorization: Bearer <token>" (httpsrv.RequireBearer, the fleet
// coordinator's check too).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/trends/{metric}", s.handleTrend)
	mux.HandleFunc("GET /v1/rounds", s.handleRounds)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	return httpsrv.RequireBearer(s.cfg.Token, mux)
}

// CacheStats snapshots the response cache accounting.
func (s *Server) CacheStats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	return st
}

// trendReply is one metric's time series.
type trendReply struct {
	Metric string       `json:"metric"`
	VP     string       `json:"vp,omitempty"`
	From   int          `json:"from"`
	To     int          `json:"to"`
	Points []trendPoint `json:"points"`
}

type trendPoint struct {
	Round int     `json:"round"`
	At    int64   `json:"at"`
	Value float64 `json:"value"`
}

// roundsReply is the full-record listing.
type roundsReply struct {
	Rounds []Record `json:"rounds"`
}

// parseRange reads from/to round bounds (inclusive; empty means the
// full series).
func parseRange(r *http.Request) (from, to int, err error) {
	from, to = 0, -1
	if v := r.URL.Query().Get("from"); v != "" {
		if from, err = strconv.Atoi(v); err != nil || from < 0 {
			return 0, 0, fmt.Errorf("bad from=%q (want a round index)", v)
		}
	}
	if v := r.URL.Query().Get("to"); v != "" {
		if to, err = strconv.Atoi(v); err != nil || to < 0 {
			return 0, 0, fmt.Errorf("bad to=%q (want a round index)", v)
		}
	}
	return from, to, nil
}

func (s *Server) handleTrend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("metric")
	m, ok := metricIndex[name]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown metric %q (see /v1/metrics)", name), http.StatusNotFound)
		return
	}
	vp := r.URL.Query().Get("vp")
	if m.PerVP && vp == "" {
		http.Error(w, fmt.Sprintf("metric %q needs ?vp=<vantage point>", name), http.StatusBadRequest)
		return
	}
	if !m.PerVP && vp != "" {
		http.Error(w, fmt.Sprintf("metric %q is not per-VP; drop ?vp=", name), http.StatusBadRequest)
		return
	}
	from, to, err := parseRange(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := fmt.Sprintf("trend|%s|%s|%d|%d", name, vp, from, to)
	s.serveCached(w, r, key, func() ([]byte, error) {
		recs := s.cfg.Store.Rounds(from, to)
		reply := trendReply{Metric: name, VP: vp, From: from, To: to, Points: []trendPoint{}}
		for _, rec := range recs {
			v, ok := m.eval(rec, vp)
			if !ok {
				return nil, fmt.Errorf("unknown vantage point %q", vp)
			}
			reply.Points = append(reply.Points, trendPoint{Round: rec.Round, At: rec.At, Value: v})
		}
		return json.Marshal(reply)
	})
}

func (s *Server) handleRounds(w http.ResponseWriter, r *http.Request) {
	from, to, err := parseRange(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := fmt.Sprintf("rounds|%d|%d", from, to)
	s.serveCached(w, r, key, func() ([]byte, error) {
		recs := s.cfg.Store.Rounds(from, to)
		if recs == nil {
			recs = []Record{}
		}
		return json.Marshal(roundsReply{Rounds: recs})
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.serveCached(w, r, "metrics", func() ([]byte, error) {
		return json.Marshal(struct {
			Metrics []Metric `json:"metrics"`
		}{Metrics: metrics})
	})
}

// statusReply is deliberately uncached and unconditional: it reports
// live health (including the cache's own counters), not round data.
type statusReply struct {
	Rounds       int          `json:"rounds"`
	StoreVersion uint64       `json:"store_version"`
	Cache        CacheStats   `json:"cache"`
	Runner       *RunnerState `json:"runner,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	reply := statusReply{
		Rounds:       s.cfg.Store.Len(),
		StoreVersion: s.cfg.Store.Version(),
		Cache:        s.CacheStats(),
	}
	if s.cfg.Runner != nil {
		st := s.cfg.Runner.State()
		reply.Runner = &st
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(reply)
}

// serveCached answers from the response cache, rebuilding the body when
// no entry exists, the entry predates the newest round, or its TTL
// lapsed. The ETag is a digest of the body, so it is identical across
// server restarts and across independently built stores holding the
// same rounds — byte-determinism extends to conditional requests.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, build func() ([]byte, error)) {
	now := s.now()
	version := s.cfg.Store.Version()
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok && e.version == version && now.Before(e.expires) {
		s.stats.Hits++
		body, etag := e.body, e.etag
		s.mu.Unlock()
		s.reply(w, r, body, etag)
		return
	}
	if ok && e.version != version {
		s.stats.Stale++
	}
	s.stats.Misses++
	s.mu.Unlock()

	// Build outside the lock: a slow encode must not stall cache hits
	// for other keys. Concurrent misses on the same key both build —
	// the bodies are identical, last write wins.
	body, err := build()
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	sum := sha256.Sum256(body)
	etag := fmt.Sprintf(`"%x"`, sum[:8])
	s.mu.Lock()
	s.evict(now, version)
	s.entries[key] = &cacheEntry{body: body, etag: etag, version: version, expires: now.Add(s.ttl)}
	s.mu.Unlock()
	s.reply(w, r, body, etag)
}

// evict makes room for one insert: it drops entries that expired by now
// or predate store version, and clears the cache when it is still full.
// Deleting during a range and clear reuse the map, so eviction never
// allocates. s.mu must be held.
func (s *Server) evict(now time.Time, version uint64) {
	for k, e := range s.entries {
		if e.version < version || !now.Before(e.expires) {
			delete(s.entries, k)
		}
	}
	if len(s.entries) >= maxCacheEntries {
		clear(s.entries)
	}
}

// reply writes body with cache validators, honoring If-None-Match.
func (s *Server) reply(w http.ResponseWriter, r *http.Request, body []byte, etag string) {
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", fmt.Sprintf("max-age=%d", int(s.ttl.Seconds())))
	if r.Header.Get("If-None-Match") == etag {
		s.mu.Lock()
		s.stats.NotModified++
		s.mu.Unlock()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}
