package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"cookiewalk"
	"cookiewalk/internal/campaign"
	"cookiewalk/internal/campaign/dist"
	"cookiewalk/internal/core"
	"cookiewalk/internal/measure"
	"cookiewalk/internal/trend"
	"cookiewalk/internal/vantage"
)

// The four workloads. Each stresses a different set of layers, so an
// optimisation of one layer shows on the workload that exercises it
// and, as predicted, not on one that bypasses it:
//
//	layer                          crawl-warm study-cold fleet-loopback trend-serve
//	campaign engine                most       little     some           some
//	webfarm render miss            none       yes        yes            every round
//	browser/dom/detect/classify    none       most       most (workers) round 0 only
//	journal write / replay         none       none       both           write
//	dist lease/ship/merge          none       none       most           none
//	study DAG + experiments        none       yes        post-merge     summary deps
//	trend store + query cache      none       none       none           most
const (
	crawlWarm     = "crawl-warm"
	studyCold     = "study-cold"
	fleetLoopback = "fleet-loopback"
	trendServe    = "trend-serve"
)

var workloadNames = []string{crawlWarm, studyCold, fleetLoopback, trendServe}

// warmCrawls is crawl-warm's timed crawl count: the same five full
// crawls the BENCH_PR<n>.json series times. At the traced run's size it
// times tracedWarmCrawls, so that the traced run fits its time budget;
// wall_s is a median per crawl either way.
const (
	warmCrawls       = 5
	tracedWarmCrawls = 1
)

// trendRounds is trend-serve's round count: round 0 analyses every
// page, rounds 1 and 2 are delta rounds on a warm memo. At the traced
// run's size it runs tracedTrendRounds, round 0 and one delta round.
const (
	trendRounds       = 3
	tracedTrendRounds = 2
)

// run executes the repetition's workload.
func (r *rep) run(ctx context.Context) error {
	switch r.res.Workload {
	case crawlWarm:
		r.crawlWarm(ctx)
	case studyCold:
		r.studyCold(ctx)
	case fleetLoopback:
		r.fleetLoopback(ctx)
	case trendServe:
		r.trendServe(ctx)
	default:
		return fmt.Errorf("unknown workload %q (have %s)", r.res.Workload, strings.Join(workloadNames, ", "))
	}
	return nil
}

// crawlWarm: one untimed priming crawl fills the render cache and the
// analysis memo, then warmCrawls full crawls are timed. Every render
// and analysis is a cache hit, so the campaign engine, the browser's
// fetch and the cache lookups do almost all of the work.
func (r *rep) crawlWarm(ctx context.Context) {
	r.timeUniverse()
	st := r.setup(r.config())
	if r.setupOnly {
		return
	}
	c := st.Crawler()
	targets, vps := st.Targets(), vantage.All()
	crawl := func(label string) *measure.Landscape {
		if r.tr != nil {
			return r.tracedLandscape(ctx, c, vps, targets)
		}
		l, err := c.Landscape(ctx, vps, targets)
		r.check(err == nil, "%s: %v", label, err)
		return l
	}
	_, miss0 := measure.AnalysisMemoCounters()

	prime := crawl("priming crawl")
	want := landscapeDigest(prime)
	r.res.Digests["landscape"] = want
	r.checkLandscape(prime, c, "priming crawl")

	crawls := warmCrawls
	if r.traceSize {
		crawls = tracedWarmCrawls
	}
	p := r.beginPhase()
	var walls []float64
	var visits int64
	for i := 1; i <= crawls; i++ {
		start := time.Now()
		l := crawl(fmt.Sprintf("crawl %d", i))
		walls = append(walls, time.Since(start).Seconds())
		visits += r.checkLandscape(l, c, fmt.Sprintf("crawl %d", i))
		r.check(landscapeDigest(l) == want, "crawl %d differs from the priming crawl", i)
	}
	p.end(visits)
	wall := medianOf(walls)
	r.metric("wall_s", wall)
	r.metric("visits_per_s", float64(visits)/float64(crawls)/wall)
	if r.tr == nil {
		return
	}

	r.checkMemoMisses(miss0)
	r.engineLayers()
	r.visitErrorShare(prime)

	// The wrapped run: an untraced crawl through the timing wrapper must
	// allocate what the unwrapped crawl of the untraced reference
	// repetition does (the parent compares) and produce the same
	// landscape.
	r.farm.active.Store(true)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, err := c.Landscape(ctx, vps, targets)
	runtime.ReadMemStats(&after)
	r.farm.active.Store(false)
	r.check(err == nil && landscapeDigest(l) == want, "wrapped crawl differs from the priming crawl (err %v)", err)
	r.layer("webfarm.wrapped_allocs_per_visit", float64(after.Mallocs-before.Mallocs)/float64(len(targets)*len(vps)))

	r.probes(ctx, st)
}

// tracedLandscape is Crawler.Landscape re-assembled from its public
// parts — one campaign.Run per vantage point, Crawler.Visit as the
// visit, the landscape tallies as the sink — so that the engine, every
// visit and every sink delivery can be timed from outside. It produces
// the identical landscape (the callers check the digest). Each Run is a
// layer span: its visits and sinks are timed inside it, and the rest is
// the engine's self time (campaign.self_share).
func (r *rep) tracedLandscape(ctx context.Context, c *measure.Crawler, vps []vantage.VP, targets []string) *measure.Landscape {
	hit, miss := r.tr.kind("measure.Crawler.Visit hit"), r.tr.kind("measure.Crawler.Visit miss")
	failed, sinkK := r.tr.kind("measure.Crawler.Visit error"), r.tr.kind("campaign sink")
	l := &measure.Landscape{Targets: len(targets)}
	for _, vp := range vps {
		vp := vp
		res := measure.VPResult{VP: vp.Name}
		var cov cover
		run := r.tr.beginLayer("campaign.Run", 0, 0)
		cfg := campaign.Config{Label: "landscape " + vp.Name, Workers: c.Workers, Shards: c.Shards}
		stats, err := campaign.Run(ctx, cfg, targets,
			func(ctx context.Context, domain string) (measure.Observation, error) {
				start := time.Now()
				cov.enter(start)
				o := c.Visit(ctx, vp, domain, measure.VisitOpts{})
				end := time.Now()
				cov.leave(end)
				k := failed
				if o.Err == "" {
					k = hit
					if r.firstSeen(o.Fingerprint) {
						k = miss
					}
				}
				k.record(run.id, r.lane(ctx), start, end)
				if o.Err != "" {
					return o, errors.New(o.Err)
				}
				return o, nil
			},
			func(d campaign.Result[measure.Observation]) {
				start := time.Now()
				cov.enter(start)
				tally(&res, d.Value)
				end := time.Now()
				cov.leave(end)
				sinkK.record(run.id, 0, start, end)
			})
		d := run.end()
		r.engine.run += d
		r.engine.self += d - cov.total
		r.engine.results += stats.Done
		r.check(err == nil, "traced landscape %s: %v", vp.Name, err)
		res.Stats = stats
		sort.Slice(res.Cookiewalls, func(i, j int) bool { return res.Cookiewalls[i].Domain < res.Cookiewalls[j].Domain })
		sort.Strings(res.RegularAcceptDomains)
		l.PerVP = append(l.PerVP, res)
	}
	return l
}

// tally is Crawler.Landscape's sink.
func tally(res *measure.VPResult, o measure.Observation) {
	res.Visited++
	switch {
	case o.Err != "":
		res.Errors++
	case o.Kind == core.KindNone:
		res.NoBanner++
	case o.Kind == core.KindRegular:
		res.Regular++
		if o.HasAccept {
			res.RegularAcceptDomains = append(res.RegularAcceptDomains, o.Domain)
		}
	default:
		res.Cookiewalls = append(res.Cookiewalls, o)
	}
}

// engineTotals accumulates the campaign runs of the traced landscapes.
type engineTotals struct {
	run, self time.Duration
	results   int64

	mu  sync.Mutex
	fps map[uint64]bool
}

// firstSeen reports whether fp is new to the traced crawls: the visit
// that first meets a page fingerprint is the one the memo misses on.
func (r *rep) firstSeen(fp uint64) bool {
	e := &r.engine
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fps == nil {
		e.fps = map[uint64]bool{}
	}
	if e.fps[fp] {
		return false
	}
	e.fps[fp] = true
	return true
}

func (r *rep) fpMisses() int64 {
	r.engine.mu.Lock()
	defer r.engine.mu.Unlock()
	return int64(len(r.engine.fps))
}

// checkMemoMisses checks that the analysis memo missed once per
// fingerprint the traced landscapes saw first, since it read miss0.
func (r *rep) checkMemoMisses(miss0 uint64) {
	_, miss1 := measure.AnalysisMemoCounters()
	r.check(int64(miss1-miss0) == r.fpMisses(), "memo misses %d, first-seen fingerprints %d", miss1-miss0, r.fpMisses())
}

// engineLayers records the engine and visit layers of the traced
// landscapes.
func (r *rep) engineLayers() {
	e := &r.engine
	r.layer("campaign.results", float64(e.results))
	if e.run > 0 {
		r.layer("campaign.self_share", float64(e.self)/float64(e.run))
	}
	if h := r.tr.hist("campaign sink"); h != nil {
		r.layer("campaign.sink_ns_per_result", h.mean())
	}
	r.layerOp("measure.visit_hit_ns", r.tr.hist("measure.Crawler.Visit hit"), 1)
	r.layerOp("measure.visit_miss_ns", r.tr.hist("measure.Crawler.Visit miss"), 1)
}

// studyCold is the researcher's one-shot reproduction: a fresh study,
// the landscape crawl (timed as its own phase), then every experiment.
// Every distinct page is rendered and analysed once, and every
// follow-up experiment runs.
//
// Traced, the landscape is crawled by tracedLandscape, so that its
// visits and engine are timed; the study then computes its own
// landscape artefact, a crawl whose renders and analyses all hit the
// caches, untimed, before the experiments run on it.
func (r *rep) studyCold(ctx context.Context) {
	r.timeUniverse()
	cfg := r.config()
	cfg.ExperimentParallelism = 1
	st := r.setup(cfg)
	if r.setupOnly {
		return
	}

	_, miss0 := measure.AnalysisMemoCounters()
	p := r.beginPhase()
	sp := r.tr.begin("study.landscape", 0, 0)
	start := time.Now()
	var l *measure.Landscape
	if r.tr != nil {
		l = r.tracedLandscape(ctx, st.Crawler(), vantage.All(), st.Targets())
	} else {
		l = st.Landscape()
	}
	land := time.Since(start)
	r.layer("study.landscape_s", sp.end().Seconds())
	if r.tr != nil {
		r.checkMemoMisses(miss0)
		p.untimed(func() {
			r.check(landscapeDigest(st.Landscape()) == landscapeDigest(l), "the study's landscape differs from the traced crawl's")
		})
	}
	visits := r.checkLandscape(l, st.Crawler(), "landscape")
	all := r.report(ctx, st)
	wall := p.end(visits)

	r.metric("wall_s", wall.Seconds())
	r.metric("visits_per_s", float64(visits)/land.Seconds())
	r.res.Digests["landscape"] = landscapeDigest(l)
	r.res.Digests["expall"] = digestBytes([]byte(all))
	if r.tr == nil {
		return
	}
	r.engineLayers()
	r.visitErrorShare(l)
	r.probes(ctx, st)
}

// report renders Report(ExpAll). Traced, it calls ReportContext once
// per experiment in report order instead, so each call's layer span is
// that experiment plus whichever dependencies it is the first to need,
// and assembles the identical bytes.
func (r *rep) report(ctx context.Context, st *cookiewalk.Study) string {
	if r.tr == nil {
		out, err := st.Report(cookiewalk.ExpAll)
		r.check(err == nil, "report: %v", err)
		return out
	}
	var b strings.Builder
	for _, e := range cookiewalk.Experiments() {
		sp := r.tr.beginLayer("study."+string(e), 0, 0)
		text, err := st.ReportContext(ctx, e)
		r.layer("study."+string(e)+"_s", sp.end().Seconds())
		r.check(err == nil, "report %s: %v", e, err)
		b.WriteString(text)
		b.WriteByte('\n')
	}
	return b.String()
}

func (r *rep) visitErrorShare(l *measure.Landscape) {
	var visited, errs int
	for _, v := range l.PerVP {
		visited += v.Visited
		errs += v.Errors
	}
	if visited > 0 {
		r.layer("measure.visit_error_share", float64(errs)/float64(visited))
	}
}

// fleetLoopback runs the landscape as a fleet: a coordinator behind a
// loopback HTTP server, one in-process worker per CPU (each on its own
// single-worker study), then the coordinator's post-merge report by
// journal replay. It is the only workload that writes, ships,
// validates, merges and replays journals.
func (r *rep) fleetLoopback(ctx context.Context) {
	r.timeUniverse()
	ccfg := r.config()
	ccfg.CheckpointDir = filepath.Join(r.tmp, "fleet")
	ccfg.Resume = true
	coord := r.setup(ccfg)
	workers := make([]*cookiewalk.Study, runtime.NumCPU())
	for i := range workers {
		wcfg := r.config()
		wcfg.Workers = 1
		workers[i] = r.setup(wcfg)
	}
	if r.setupOnly {
		return
	}

	p := r.beginPhase()
	start := time.Now()
	up := r.tr.beginLayer("dist coordinator up", 0, 0)
	fc, err := coord.NewFleetCoordinator(nil)
	if err != nil {
		r.fail("coordinator: %v", err)
		return
	}
	hm := newHandlerMeter(r.tr, "dist.handler ")
	srv := httptest.NewServer(hm.wrap(fc.Handler()))
	up.end()

	// Workers run until the coordinator reports every range merged; a
	// worker told to wait sleeps a quarter of the lease TTL, so once the
	// report is rendered the stragglers are stopped instead of waited
	// out. The coordinator's report never depends on worker exit.
	rm := newRPCMeter(r.tr)
	workCtx, stopWorkers := context.WithCancelCause(ctx)
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *cookiewalk.Study) {
			defer wg.Done()
			transport := &http.Transport{}
			defer transport.CloseIdleConnections()
			client := &dist.Client{
				BaseURL:    srv.URL,
				Seed:       uint64(i + 1),
				HTTPClient: &http.Client{Transport: rm.transport(transport, i+1)},
			}
			errs[i] = w.RunFleetWorkerWithClient(workCtx, client, fmt.Sprintf("w%d", i), nil)
		}(i, w)
	}
	waitCtx, cancel := context.WithTimeout(ctx, time.Minute)
	sp := r.tr.begin("dist FleetCoordinator.Wait", 0, 0)
	err = fc.Wait(waitCtx)
	sp.end()
	cancel()
	merged := time.Now()
	r.check(err == nil, "fleet never completed: %v", err)
	status := fc.Status()
	r.check(status.Done == status.Units && status.Pending == 0, "fleet status %+v", status)
	r.res.Attempted += int64(status.Units)
	if status.Expired > 0 {
		r.failN(int64(status.Expired), "%d leases expired", status.Expired)
	}

	// The post-merge landscape replays the merged journals.
	sp = r.tr.beginLayer("study.landscape", 0, 0)
	l := coord.Landscape()
	r.layer("study.landscape_s", sp.end().Seconds())
	all := r.report(ctx, coord)
	reported := time.Now()
	wall := reported.Sub(start)
	visits := r.checkLandscape(l, coord.Crawler(), "post-merge landscape")
	p.end(visits)
	stopWorkers(errFleetDone)
	wg.Wait()
	for i, err := range errs {
		r.check(err == nil || errors.Is(err, errFleetDone), "worker w%d: %v", i, err)
	}
	srv.Close()
	if err := fc.Close(); err != nil {
		r.fail("coordinator close: %v", err)
	}
	for _, v := range l.PerVP {
		r.check(v.Stats.Fresh() == 0, "post-merge landscape re-crawled %d %s visits instead of replaying", v.Stats.Fresh(), v.VP)
	}
	rm.account(r)
	hm.account(r, "dist.handler_ms.", 1e6)

	r.metric("wall_s", wall.Seconds())
	first, last := hm.fleetSpan()
	r.check(last.After(first), "no lease or merge seen by the coordinator")
	if last.After(first) {
		r.metric("visits_per_s", float64(visits)/last.Sub(first).Seconds())
	}
	r.res.Digests["landscape"] = landscapeDigest(l)
	r.res.Digests["expall"] = digestBytes([]byte(all))
	if r.tr == nil {
		return
	}
	r.layer("dist.merge_to_report_s", reported.Sub(merged).Seconds())
	rm.layers(r, len(workers), first, last)
	r.visitErrorShare(l)
	r.probes(ctx, coord)
}

// errFleetDone stops the fleet's workers once the coordinator has
// merged every range and rendered its report.
var errFleetDone = errors.New("fleet complete")

// trendClock is the trend runner's schedule clock, advanced by sleeps
// only, so round k is stamped epoch + k hours in every run and the
// store's bytes are reproducible.
type trendClock struct{ t time.Time }

func (c *trendClock) now() time.Time { return c.t }
func (c *trendClock) sleep(ctx context.Context, d time.Duration) error {
	c.t = c.t.Add(d)
	return ctx.Err()
}

const trendEpoch = 1700000000

// trendServe runs cmd/trendd's round function trendRounds times into a
// trend store (a fresh study per round with a per-round checkpoint
// directory and Resume, then RoundSummary), then serves the store's
// query API to an open-loop load while a writer keeps appending rounds.
// The traced run's untraced reference stops after the rounds: it only
// needs their wall time.
func (r *rep) trendServe(ctx context.Context) {
	r.timeUniverse()
	base := r.config()
	probe := r.setup(base)
	if r.setupOnly {
		return
	}
	targets := probe.Targets()
	dir := filepath.Join(r.tmp, "trend")
	store, err := trend.Open(dir, trend.Manifest{
		Seed: r.seed, Scale: r.scale, Reps: r.reps,
		Targets: len(targets), TargetsHash: campaign.HashTargets(targets),
	})
	if err != nil {
		r.fail("trend store: %v", err)
		return
	}
	defer store.Close()
	roundDir := func(round int) string { return filepath.Join(dir, "rounds", fmt.Sprintf("round-%04d", round)) }

	var (
		visits               int64
		roundStart           time.Time
		roundSpan            span
		rounds, setups, sums []float64
		first                []byte
		last                 *cookiewalk.Study
	)
	nRounds := trendRounds
	if r.traceSize {
		nRounds = tracedTrendRounds
	}
	clock := &trendClock{t: time.Unix(trendEpoch, 0)}
	runner := &trend.Runner{
		Store: store, Interval: time.Hour, Rounds: nRounds,
		Now: clock.now, Sleep: clock.sleep,
		Run: func(ctx context.Context, round int) (measure.RoundSummary, error) {
			roundStart = time.Now()
			roundSpan = r.tr.begin(fmt.Sprintf("trend round %d", round), 0, 0)
			cfg := base
			cfg.CheckpointDir = roundDir(round)
			cfg.Resume = true
			sp := r.tr.beginLayer("trend round: cookiewalk.New", 0, roundSpan.id)
			st := cookiewalk.New(cfg)
			sp.end()
			t1 := time.Now()
			sp = r.tr.beginLayer("trend round: Study.RoundSummary", 0, roundSpan.id)
			sum, err := st.RoundSummary(ctx)
			sp.end()
			setups = append(setups, t1.Sub(roundStart).Seconds())
			sums = append(sums, time.Since(t1).Seconds())
			if err != nil {
				return sum, err
			}
			l := st.CachedLandscape()
			visits += r.checkLandscape(l, st.Crawler(), fmt.Sprintf("round %d", round))
			r.res.Digests["landscape"] = landscapeDigest(l)
			enc, err := json.Marshal(sum)
			if err != nil {
				return sum, fmt.Errorf("encode round %d summary: %w", round, err)
			}
			if first == nil {
				first = enc
			}
			r.check(string(enc) == string(first), "round %d summary differs from round 0's", round)
			if r.tr != nil {
				last = st // kept for the layer probes
			}
			return sum, nil
		},
		OnRound: func(st trend.RoundStats) {
			rounds = append(rounds, time.Since(roundStart).Seconds())
			roundSpan.end()
			// cmd/trendd prunes a round's checkpoints once it is stored.
			if err := os.RemoveAll(roundDir(st.Round)); err != nil {
				r.fail("prune round %d: %v", st.Round, err)
			}
		},
	}
	p := r.beginPhase()
	err = runner.Loop(ctx)
	wall := p.end(max(visits, 1))
	r.check(err == nil, "trend rounds: %v", err)
	if err != nil || len(rounds) != nRounds {
		return
	}
	r.metric("wall_s", wall.Seconds())
	r.metric("visits_per_s", float64(visits)/wall.Seconds())
	r.metric("round_s", medianOf(rounds[1:]))
	r.layer("trend.round_setup_s", medianOf(setups))
	r.layer("trend.round_summary_s", medianOf(sums))

	if !r.traceSize {
		r.res.Digests["trend"] = r.queryPhase(ctx, store, runner, dir, querySeconds)
		return
	}
	if r.tr == nil {
		return
	}
	// The traced digest covers fewer rounds and appends than the untraced
	// one, hence its own name.
	r.res.Digests["trend.traced"] = r.queryPhase(ctx, store, runner, dir, tracedQuerySeconds)
	r.visitErrorShare(last.CachedLandscape())
	r.probes(ctx, last)
}
