package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cookiewalk"
	"cookiewalk/internal/campaign"
	"cookiewalk/internal/measure"
)

// repResult is what one repetition's child process reports to the
// parent, as one JSON line on standard output.
type repResult struct {
	Workload string `json:"workload"`
	// Metrics are the end-to-end metrics of this repetition (peak_rss_mb
	// is added by the parent from the child's rusage).
	Metrics map[string]float64 `json:"metrics"`
	// Layers are the per-layer metrics; traced repetitions only.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Setups are the set-up times of a set-up-only child.
	Setups []float64 `json:"setups,omitempty"`
	// Digests are SHA-256 digests of the workload's outputs.
	Digests   map[string]string `json:"digests"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
}

// rep is one repetition of one workload, running in its own process so
// that the process-global analysis memo and session pools start empty,
// as they do for a user running cookiewalk.
type rep struct {
	seed  uint64
	scale float64
	reps  int
	// setupOnly stops the workload after its set-up: the parent's extra
	// set-up samples.
	setupOnly bool
	// traceSize runs the workload at the traced run's size.
	traceSize bool
	tmp       string // scratch directory, removed by the parent
	tr        *tracer
	farm      *farmMeter // traced repetitions only
	res       repResult

	lanes    sync.Map // *campaign.Affinity → trace lane
	nextLane atomic.Int64
	engine   engineTotals // crawl-warm's traced campaign runs
}

func newRep(o repOptions, tmp string) *rep {
	r := &rep{seed: o.Seed, scale: o.Scale, reps: o.Reps, setupOnly: o.Setups > 0, traceSize: o.TraceSize, tmp: tmp}
	r.res = repResult{Workload: o.Workload, Metrics: map[string]float64{}, Digests: map[string]string{}}
	if o.TraceOut != "" {
		r.tr = newTracer()
		r.farm = &farmMeter{}
		r.res.Layers = map[string]float64{}
	}
	return r
}

// config is the study configuration every workload starts from.
func (r *rep) config() cookiewalk.Config {
	cfg := cookiewalk.Config{Seed: r.seed, Scale: r.scale, Reps: r.reps}
	if r.farm != nil {
		cfg.WrapTransport = r.farm.wrap
	}
	return cfg
}

func (r *rep) metric(name string, v float64) { r.res.Metrics[name] = v }

// layer records a per-layer metric (dropped on untraced repetitions).
func (r *rep) layer(name string, v float64) {
	if r.res.Layers != nil {
		r.res.Layers[name] = v
	}
}

// layerOp records a per-op histogram as p50/p99 in unit scale (1e3 for
// µs, 1e6 for ms) plus its sample count.
func (r *rep) layerOp(name string, h *hist, scale float64) {
	if h == nil || r.res.Layers == nil {
		return
	}
	r.layer(name+".p50", h.quantile(0.50)/scale)
	r.layer(name+".p99", h.quantile(0.99)/scale)
	r.layer(name+".n", float64(h.count()))
}

// check counts one attempted operation and records it as failed when
// ok is false.
func (r *rep) check(ok bool, format string, args ...any) {
	r.res.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *rep) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN records n failed operations with one explanation.
func (r *rep) failN(n int64, format string, args ...any) {
	r.res.Failed += n
	if len(r.res.Problems) < 20 {
		r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
	}
}

// lane maps a campaign worker (identified by its affinity slot) to a
// stable trace lane.
func (r *rep) lane(ctx context.Context) int {
	a := campaign.AffinityFrom(ctx)
	if a == nil {
		return 0
	}
	if v, ok := r.lanes.Load(a); ok {
		return v.(int)
	}
	v, _ := r.lanes.LoadOrStore(a, int(100+r.nextLane.Add(1)))
	return v.(int)
}

// setup times cookiewalk.New: universe, farm and crawler.
func (r *rep) setup(cfg cookiewalk.Config) *cookiewalk.Study {
	sp := r.tr.begin("cookiewalk.New", 0, 0)
	start := time.Now()
	st := cookiewalk.New(cfg)
	r.res.Metrics["setup_s"] += time.Since(start).Seconds()
	sp.end()
	return st
}

// phase brackets a workload's timed phase: wall clock, allocations,
// analysis-memo and farm counters, layer attribution and (traced) heap
// samples.
type phase struct {
	r          *rep
	start      time.Time
	ms         runtime.MemStats
	hits, miss uint64
	attr       time.Duration // tracer's attributed time at the start
	heap       *heapSampler
	// skip is what untimed left out of the phase.
	skip struct {
		wall                         time.Duration
		mallocs, bytes, gcs, pauseNs uint64
		hits, miss                   uint64
	}
}

func (r *rep) beginPhase() *phase {
	// Start every timed phase from a collected heap so one repetition's
	// leftover garbage does not land in the next phase's timing.
	runtime.GC()
	p := &phase{r: r}
	runtime.ReadMemStats(&p.ms)
	p.hits, p.miss = measure.AnalysisMemoCounters()
	if r.farm != nil {
		r.farm.active.Store(true)
		p.heap = startHeapSampler()
	}
	p.start = time.Now()
	p.attr = r.tr.attributed(p.start)
	return p
}

// untimed runs f inside the phase but leaves it out of the phase's
// wall time, allocations, memo lookups and farm round trips: work that
// only tracing from outside needs. f must open no layer span.
func (p *phase) untimed(f func()) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	h0, m0 := measure.AnalysisMemoCounters()
	if p.r.farm != nil {
		p.r.farm.active.Store(false)
	}
	start := time.Now()
	f()
	p.skip.wall += time.Since(start)
	if p.r.farm != nil {
		p.r.farm.active.Store(true)
	}
	h1, m1 := measure.AnalysisMemoCounters()
	runtime.ReadMemStats(&ms1)
	p.skip.mallocs += ms1.Mallocs - ms0.Mallocs
	p.skip.bytes += ms1.TotalAlloc - ms0.TotalAlloc
	p.skip.gcs += uint64(ms1.NumGC - ms0.NumGC)
	p.skip.pauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
	p.skip.hits += h1 - h0
	p.skip.miss += m1 - m0
}

// end closes the phase over visits landscape visits, records
// allocs_per_visit and the traced runtime, memo, farm and attribution
// layers, and returns the phase's wall time.
func (p *phase) end(visits int64) time.Duration {
	now := time.Now()
	wall := now.Sub(p.start) - p.skip.wall
	r := p.r
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.metric("allocs_per_visit", float64(ms.Mallocs-p.ms.Mallocs-p.skip.mallocs)/float64(visits))
	if r.farm == nil {
		return wall
	}
	r.farm.active.Store(false)
	r.layer("runtime.heap_peak_mb", float64(p.heap.stop())/(1<<20))
	r.layer("runtime.gc_cycles", float64(uint64(ms.NumGC-p.ms.NumGC)-p.skip.gcs))
	r.layer("runtime.gc_pause_ms", float64(ms.PauseTotalNs-p.ms.PauseTotalNs-p.skip.pauseNs)/1e6)
	r.layer("runtime.bytes_per_visit", float64(ms.TotalAlloc-p.ms.TotalAlloc-p.skip.bytes)/float64(visits))
	hits, miss := measure.AnalysisMemoCounters()
	hits, miss = hits-p.hits-p.skip.hits, miss-p.miss-p.skip.miss
	r.layer("measure.memo_hits", float64(hits))
	r.layer("measure.memo_misses", float64(miss))
	if hits+miss > 0 {
		r.layer("measure.memo_hit_ratio", float64(hits)/float64(hits+miss))
	}
	calls := r.farm.calls.Load()
	r.layer("webfarm.requests_per_visit", float64(calls)/float64(visits))
	r.layer("webfarm.busy_share", float64(r.farm.busy.Load())/(float64(wall)*float64(runtime.GOMAXPROCS(0))))
	r.layerOp("webfarm.roundtrip_ns", &r.farm.hist, 1)
	r.layer("trace.unattributed_share", 1-float64(r.tr.attributed(now)-p.attr)/float64(wall))
	return wall
}

// heapSampler tracks the live-heap high-water mark of a traced phase.
type heapSampler struct {
	stopCh chan struct{}
	done   chan struct{}
	peak   uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 {
			h.peak = max(h.peak, sample[0].Value.Uint64())
		}
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-tick.C:
			case <-h.stopCh:
				read()
				return
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopCh)
	<-h.done
	return h.peak
}

// landscapeDigest hashes a landscape's per-VP tallies and cookiewall
// domains: everything the study derives its tables from.
func landscapeDigest(l *measure.Landscape) string {
	h := sha256.New()
	fmt.Fprintf(h, "targets %d\n", l.Targets)
	for _, v := range l.PerVP {
		fmt.Fprintf(h, "%s visited=%d errors=%d none=%d regular=%d accept=%d\n",
			v.VP, v.Visited, v.Errors, v.NoBanner, v.Regular, len(v.RegularAcceptDomains))
		for _, o := range v.Cookiewalls {
			fmt.Fprintf(h, "  %s %s %s\n", o.Domain, o.Language, o.Category)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestBytes(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// checkLandscape verifies a landscape's visit accounting: every target
// visited from every vantage point, and errors only where the universe
// marks the site unreachable. It returns the landscape's visit count.
func (r *rep) checkLandscape(l *measure.Landscape, c *measure.Crawler, label string) int64 {
	unreachable := 0
	for _, d := range c.Reg.TargetList() {
		if s, ok := c.Reg.Site(d); !ok || !s.Reachable {
			unreachable++
		}
	}
	var visits int64
	for _, v := range l.PerVP {
		visits += int64(v.Visited)
		r.res.Attempted += int64(v.Visited)
		if v.Visited != l.Targets {
			r.failN(abs(v.Visited-l.Targets), "%s: %s visited %d of %d targets", label, v.VP, v.Visited, l.Targets)
		}
		if v.Errors != unreachable {
			r.failN(abs(v.Errors-unreachable), "%s: %s had %d visit errors, %d sites are unreachable", label, v.VP, v.Errors, unreachable)
		}
	}
	r.check(len(l.PerVP) == 8, "%s: %d vantage points, want 8", label, len(l.PerVP))
	return visits
}

func abs(x int) int64 {
	if x < 0 {
		return int64(-x)
	}
	return int64(x)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
