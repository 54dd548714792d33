package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cookiewalk/internal/trend"
	"cookiewalk/internal/vantage"
	"cookiewalk/internal/xrand"
)

// handlerMeter wraps a server's http.Handler: it times each request
// per route as a layer span (traced), counts responses outside 2xx/304,
// and notes the fleet's first lease and last merge.
type handlerMeter struct {
	tr     *tracer
	prefix string
	non2xx atomic.Int64

	mu         sync.Mutex
	kinds      map[string]*spanKind
	firstLease time.Time
	lastMerge  time.Time
}

func newHandlerMeter(tr *tracer, prefix string) *handlerMeter {
	return &handlerMeter{tr: tr, prefix: prefix, kinds: map[string]*spanKind{}}
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (m *handlerMeter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		m.tr.enter(start)
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, req)
		end := time.Now()
		m.tr.leave(end)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		if code/100 != 2 && code != http.StatusNotModified {
			m.non2xx.Add(1)
		}
		route := strings.TrimPrefix(req.URL.Path, "/v1/")
		if i := strings.IndexByte(route, '/'); i >= 0 {
			route = route[:i]
		}
		m.mu.Lock()
		k := m.kinds[route]
		if k == nil && m.tr != nil {
			k = m.tr.kind(m.prefix + route)
			m.kinds[route] = k
		}
		if route == "lease" && m.firstLease.IsZero() {
			m.firstLease = end
		}
		if route == "journal" && code == http.StatusOK {
			m.lastMerge = end
		}
		m.mu.Unlock()
		k.record(0, 1, start, end)
	})
}

// fleetSpan returns the coordinator's first lease and last merge.
func (m *handlerMeter) fleetSpan() (first, last time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.firstLease, m.lastMerge
}

// account counts the server-side failures into the repetition and,
// traced, records each route's latency as prefix+route in unit scale.
func (m *handlerMeter) account(r *rep, prefix string, scale float64) {
	if n := m.non2xx.Load(); n > 0 {
		r.failN(n, "%d server responses outside 2xx and 304", n)
	}
	if r.tr == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, route := range sortedKeys(m.kinds) {
		r.layerOp(prefix+route, m.kinds[route].histogram(), scale)
	}
}

// rpcMeter times and counts fleet workers' coordinator RPCs through
// the transport under each dist.Client's HTTPClient. Every RPC is a
// layer span, and so is each lease run: from the lease grant to the
// upload of its journal, the worker's crawl of the range.
type rpcMeter struct {
	tr                                         *tracer
	rpcs, leases, waits, heartbeats, shipBytes atomic.Int64
	non2xx, transportErrs                      atomic.Int64

	leaseK, shipK, otherK, runK *spanKind

	mu   sync.Mutex
	idle [][2]time.Time // from a "wait" reply to the worker's next lease request (zero: none yet)
}

func newRPCMeter(tr *tracer) *rpcMeter {
	return &rpcMeter{
		tr:     tr,
		leaseK: tr.kind("dist lease RPC"), shipK: tr.kind("dist ship RPC"),
		otherK: tr.kind("dist RPC"), runK: tr.kind("dist lease run"),
	}
}

func (m *rpcMeter) transport(next http.RoundTripper, lane int) http.RoundTripper {
	return &rpcTransport{m: m, next: next, lane: lane, waiting: -1}
}

type rpcTransport struct {
	m    *rpcMeter
	next http.RoundTripper
	lane int

	// The worker's lease loop is sequential, but its heartbeats share
	// the transport from another goroutine.
	mu       sync.Mutex
	waiting  int // index of the open idle interval in m.idle, or -1
	leasedAt time.Time
}

func (t *rpcTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	m := t.m
	start := time.Now()
	path := req.URL.Path
	t.mu.Lock()
	switch path {
	case "/v1/lease":
		if t.waiting >= 0 {
			m.mu.Lock()
			m.idle[t.waiting][1] = start
			m.mu.Unlock()
			t.waiting = -1
		}
		if !t.leasedAt.IsZero() {
			// The last lease run ended without an upload.
			m.tr.leave(start)
			t.leasedAt = time.Time{}
		}
	case "/v1/journal":
		if !t.leasedAt.IsZero() {
			// From the lease grant to the upload: the worker's crawl of
			// the range, including writing its journal.
			m.runK.record(0, t.lane, t.leasedAt, start)
			m.tr.leave(start)
			t.leasedAt = time.Time{}
		}
	}
	t.mu.Unlock()

	m.rpcs.Add(1)
	m.tr.enter(start)
	resp, err := t.next.RoundTrip(req)
	end := time.Now()
	m.tr.leave(end)
	if err != nil {
		// A request cut off by the workers' stop after the fleet
		// completed is not a failed RPC.
		if req.Context().Err() == nil {
			m.transportErrs.Add(1)
		}
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		m.non2xx.Add(1)
	}
	switch path {
	case "/v1/lease":
		m.leaseK.record(0, t.lane, start, end)
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			m.transportErrs.Add(1)
			return nil, err
		}
		resp.Body = io.NopCloser(bytes.NewReader(data))
		var reply struct {
			Status string `json:"status"`
		}
		if json.Unmarshal(data, &reply) == nil {
			t.mu.Lock()
			switch reply.Status {
			case "lease":
				m.leases.Add(1)
				t.leasedAt = end
				m.tr.enter(end)
			case "wait":
				m.waits.Add(1)
				m.mu.Lock()
				t.waiting = len(m.idle)
				m.idle = append(m.idle, [2]time.Time{end, {}})
				m.mu.Unlock()
			}
			t.mu.Unlock()
		}
	case "/v1/heartbeat":
		m.heartbeats.Add(1)
		m.otherK.record(0, t.lane, start, end)
	case "/v1/journal":
		m.shipBytes.Add(req.ContentLength)
		m.shipK.record(0, t.lane, start, end)
	default:
		m.otherK.record(0, t.lane, start, end)
	}
	return resp, nil
}

// account counts the fleet RPCs and their failures into the repetition.
func (m *rpcMeter) account(r *rep) {
	r.res.Attempted += m.rpcs.Load()
	if n := m.non2xx.Load() + m.transportErrs.Load(); n > 0 {
		r.failN(n, "%d fleet RPCs failed (%d outside 2xx, %d transport errors)", n, m.non2xx.Load(), m.transportErrs.Load())
	}
}

// layers records the fleet layer metrics over the fleet's span, from
// its first lease to its last merge.
func (m *rpcMeter) layers(r *rep, workers int, first, last time.Time) {
	r.layer("dist.leases", float64(m.leases.Load()))
	r.layer("dist.heartbeats", float64(m.heartbeats.Load()))
	r.layer("dist.ship_bytes", float64(m.shipBytes.Load()))
	r.layerOp("dist.lease_rtt_ms", m.leaseK.histogram(), 1e6)
	r.layerOp("dist.lease_run_ms", m.runK.histogram(), 1e6)
	r.layerOp("dist.ship_ms", m.shipK.histogram(), 1e6)
	if !last.After(first) {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var idle time.Duration
	for _, iv := range m.idle {
		to := iv[1]
		if to.IsZero() || to.After(last) {
			to = last
		}
		if from := iv[0]; to.After(from) {
			idle += to.Sub(from)
		}
	}
	r.layer("dist.worker_idle_share", float64(idle)/(float64(workers)*float64(last.Sub(first))))
}

// The trend-serve query phase: an open-loop load against the trend
// query API on a loopback listener, at each of queryRates for
// querySeconds, over a seeded mix of every metric, per-VP metrics,
// from/to windows, round listings and conditional requests — while a
// writer appends one round per second through Store.Append, so every
// append invalidates the response cache under live reads.

var queryRates = []int{1000, 4000, 8000}

// queryRefRate is the rate query_p50_ms and query_p99_ms are read at.
const queryRefRate = 4000

// querySeconds is how long each rate runs; tracedQuerySeconds in the
// traced repetition, so that the traced run fits its time budget.
const (
	querySeconds       = 2
	tracedQuerySeconds = 1
)

// Limits a rate must meet to count toward query_max_rps.
const (
	queryP99Limit = 5 * time.Millisecond
	queryLagLimit = 100 * time.Millisecond
)

// queryKeys is the seeded key mix: every metric (per-VP metrics once
// per vantage point), from/to windows, round listings and the metric
// registry.
func queryKeys(seed uint64) []string {
	keys := []string{"/v1/metrics", "/v1/rounds"}
	var plain []string
	for _, m := range trend.Metrics() {
		if !m.PerVP {
			plain = append(plain, m.Name)
			keys = append(keys, "/v1/trends/"+m.Name)
			continue
		}
		for _, vp := range vantage.All() {
			keys = append(keys, "/v1/trends/"+m.Name+"?vp="+url.QueryEscape(vp.Name))
		}
	}
	rng := xrand.New(xrand.SubSeed(seed, "cwbench trend windows"))
	for i := 0; i < 16; i++ {
		from := rng.Intn(8)
		keys = append(keys, fmt.Sprintf("/v1/trends/%s?from=%d&to=%d", rng.Pick(plain), from, from+rng.Intn(8)))
	}
	for i := 0; i < 4; i++ {
		from := rng.Intn(8)
		keys = append(keys, fmt.Sprintf("/v1/rounds?from=%d&to=%d", from, from+rng.Intn(4)))
	}
	seen := map[string]bool{}
	out := keys[:0]
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// bodyLedger checks the query API's responses: one ETag always names
// one body, and that body's digest (checked at the end); a 304 answers
// exactly the ETag the request carried.
type bodyLedger struct {
	mu     sync.Mutex
	etags  map[string]string // key → last ETag seen, for conditional requests
	bodies map[string][]byte // ETag → body
	bad    []string
}

func (b *bodyLedger) etag(key string) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.etags[key]
}

func (b *bodyLedger) observe(key, etag string, body []byte) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if etag == "" {
		b.bad = append(b.bad, key+": 200 without an ETag")
		return false
	}
	b.etags[key] = etag
	if have, ok := b.bodies[etag]; ok {
		if !bytes.Equal(have, body) {
			b.bad = append(b.bad, key+": two bodies under ETag "+etag)
			return false
		}
		return true
	}
	b.bodies[etag] = append([]byte(nil), body...)
	return true
}

// verify checks every distinct body against its ETag, which the server
// derives from the body's SHA-256.
func (b *bodyLedger) verify() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	bad := b.bad
	for etag, body := range b.bodies {
		sum := sha256.Sum256(body)
		if want := fmt.Sprintf(`"%x"`, sum[:8]); want != etag {
			bad = append(bad, fmt.Sprintf("body under ETag %s digests to %s", etag, want))
		}
	}
	return bad
}

// rateResult is one fixed rate of the open loop.
type rateResult struct {
	rate    int
	sent    int64
	failed  atomic.Int64
	lat     hist // ns from each request's scheduled send time
	lagEnd  time.Duration
	statusN map[int]int64
}

// loadGen is the open-loop generator: requests are due on a fixed
// schedule, and at most one request per connection is in flight, so a
// request that finds every connection busy waits, and that wait counts
// in its latency.
type loadGen struct {
	base    string
	clients []*http.Client
	ledger  *bodyLedger
	keys    []string
	seed    uint64
	query   *spanKind
}

func (g *loadGen) get(ctx context.Context, c *http.Client, key string, cond bool) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+key, nil)
	if err != nil {
		return 0, err
	}
	var sent string
	if cond {
		if sent = g.ledger.etag(key); sent != "" {
			req.Header.Set("If-None-Match", sent)
		}
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, err
	}
	tag := resp.Header.Get("ETag")
	switch resp.StatusCode {
	case http.StatusOK:
		if !g.ledger.observe(key, tag, body) {
			return resp.StatusCode, errors.New("inconsistent body")
		}
	case http.StatusNotModified:
		if sent == "" || tag != sent {
			return resp.StatusCode, fmt.Errorf("304 for ETag %q, request carried %q", tag, sent)
		}
	default:
		return resp.StatusCode, fmt.Errorf("status %d", resp.StatusCode)
	}
	return resp.StatusCode, nil
}

// run sends rate requests per second for d, request k due at start +
// k/rate. Request k's key and whether it is conditional (one in five)
// derive from (seed, rate, k) alone, so the mix is identical on every
// run whichever connection sends it.
func (g *loadGen) run(ctx context.Context, rate int, d time.Duration) *rateResult {
	res := &rateResult{rate: rate, statusN: map[int]int64{}}
	n := int64(float64(rate) * d.Seconds())
	interval := time.Second / time.Duration(rate)
	mix := xrand.SubSeed(g.seed, "cwbench trend mix", fmt.Sprint(rate))
	var next atomic.Int64
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for lane, c := range g.clients {
		wg.Add(1)
		go func(lane int, c *http.Client) {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				h := xrand.Mix64(mix, uint64(k))
				key := g.keys[h%uint64(len(g.keys))]
				status, err := g.get(ctx, c, key, (h>>32)%5 == 0)
				end := time.Now()
				res.lat.add(int64(end.Sub(due)))
				g.query.record(0, 200+lane, sent, end)
				mu.Lock()
				res.statusN[status]++
				if k == n-1 {
					res.lagEnd = sent.Sub(due)
				}
				mu.Unlock()
				if err != nil {
					res.failed.Add(1)
				}
			}
		}(lane, c)
	}
	wg.Wait()
	res.sent = n
	return res
}

// queryPhase runs the open loop, holding each rate for seconds, and
// returns the trend digest: the store's bytes plus the final body of
// every distinct query key.
func (r *rep) queryPhase(ctx context.Context, store *trend.Store, runner *trend.Runner, dir string, seconds int) string {
	// Collect the rounds' garbage first, so the load does not pay for a
	// heap the crawls left behind.
	runtime.GC()
	srv := trend.NewServer(trend.ServerConfig{Store: store, Runner: runner})
	hm := newHandlerMeter(r.tr, "trend handler ")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.fail("listen: %v", err)
		return ""
	}
	hs := &http.Server{Handler: hm.wrap(srv.Handler())}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			r.fail("trend server: %v", err)
		}
	}()

	ledger := &bodyLedger{etags: map[string]string{}, bodies: map[string][]byte{}}
	gen := &loadGen{base: "http://" + ln.Addr().String(), ledger: ledger, keys: queryKeys(r.seed), seed: r.seed,
		query: r.tr.kind("trend query")}
	for i := 0; i < runtime.NumCPU(); i++ {
		transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		defer transport.CloseIdleConnections()
		gen.clients = append(gen.clients, &http.Client{Transport: transport, Timeout: 30 * time.Second})
	}
	stats0 := srv.CacheStats()

	// The writer: one round per second, a copy of the last measured
	// round under the next round number, stamped an hour later.
	appends := len(queryRates) * seconds
	recs := store.Rounds(0, -1)
	last := recs[len(recs)-1]
	appendK := r.tr.kind("trend.Store.Append")
	writerErr := make(chan error, 1)
	phaseStart := time.Now()
	go func() {
		for k := 1; k <= appends; k++ {
			select {
			case <-time.After(time.Until(phaseStart.Add(time.Duration(k) * time.Second))):
			case <-ctx.Done():
				writerErr <- ctx.Err()
				return
			}
			t0 := time.Now()
			err := store.Append(trend.Record{Round: last.Round + k, At: last.At + int64(k)*3600, Summary: last.Summary})
			appendK.record(0, 300, t0, time.Now())
			if err != nil {
				writerErr <- err
				return
			}
		}
		writerErr <- nil
	}()

	var results []*rateResult
	for _, rate := range queryRates {
		sp := r.tr.begin(fmt.Sprintf("trend open loop %d/s", rate), 0, 0)
		res := gen.run(ctx, rate, time.Duration(seconds)*time.Second)
		sp.end()
		results = append(results, res)
	}
	if err := <-writerErr; err != nil {
		r.fail("trend writer: %v", err)
	}
	stats1 := srv.CacheStats()

	maxRPS := 0
	for _, res := range results {
		r.res.Attempted += res.sent
		if f := res.failed.Load(); f > 0 {
			r.failN(f, "%d of %d queries at %d/s failed (statuses %v)", f, res.sent, res.rate, res.statusN)
		}
		p99 := time.Duration(res.lat.quantile(0.99))
		if p99 <= queryP99Limit && res.lagEnd < queryLagLimit {
			maxRPS = res.rate
		}
		if res.rate == queryRefRate {
			r.metric("query_p50_ms", res.lat.quantile(0.50)/1e6)
			r.metric("query_p99_ms", float64(p99)/1e6)
			r.metric("query_samples", float64(res.lat.count()))
		}
		r.layer(fmt.Sprintf("trend.generator_lag_ms.r%d", res.rate), float64(res.lagEnd)/1e6)
		r.layer(fmt.Sprintf("trend.query_p99_ms.r%d", res.rate), float64(p99)/1e6)
	}
	r.metric("query_max_rps", float64(maxRPS))

	// Final bodies of every key, after the last append.
	h := sha256.New()
	data, err := os.ReadFile(filepath.Join(dir, "rounds.cwt"))
	r.check(err == nil, "read trend store: %v", err)
	h.Write(data)
	for _, key := range gen.keys {
		resp, err := gen.clients[0].Get(gen.base + key)
		if err != nil {
			r.fail("final GET %s: %v", key, err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		r.check(err == nil && resp.StatusCode == http.StatusOK, "final GET %s: status %d, err %v", key, resp.StatusCode, err)
		fmt.Fprintf(h, "%s %d\n", key, len(body))
		h.Write(body)
	}
	for _, msg := range ledger.verify() {
		r.fail("query API: %s", msg)
	}
	hm.account(r, "trend.handler_us.", 1e3)
	r.layer("trend.cache_hits", float64(stats1.Hits-stats0.Hits))
	r.layer("trend.cache_misses", float64(stats1.Misses-stats0.Misses))
	r.layer("trend.cache_stale", float64(stats1.Stale-stats0.Stale))
	r.layer("trend.not_modified", float64(stats1.NotModified-stats0.NotModified))
	if n := stats1.Hits + stats1.Misses - stats0.Hits - stats0.Misses; n > 0 {
		r.layer("trend.cache_hit_ratio", float64(stats1.Hits-stats0.Hits)/float64(n))
	}
	r.layerOp("trend.append_ms", appendK.histogram(), 1e6)
	r.layer("trend.distinct_bodies", float64(len(ledger.bodies)))
	return hex.EncodeToString(h.Sum(nil))
}
