package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"cookiewalk"
	"cookiewalk/internal/browser"
	"cookiewalk/internal/campaign"
	"cookiewalk/internal/categorize"
	"cookiewalk/internal/core"
	"cookiewalk/internal/dom"
	"cookiewalk/internal/langdetect"
	"cookiewalk/internal/measure"
	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/vantage"
	"cookiewalk/internal/webfarm"
)

// The layer probes of a traced repetition: measurements of single
// layers, each taken by calling the layer's public functions directly
// with inputs the workload itself produced. They run after the timed
// phase and never touch the end-to-end metrics.

// timeUniverse times the two halves of cookiewalk.New's universe
// set-up, synthweb.Generate and webfarm.New, in the fresh process
// before the workload's own set-up runs.
func (r *rep) timeUniverse() {
	if r.tr == nil {
		return
	}
	sp := r.tr.begin("synthweb.Generate", 0, 0)
	reg := synthweb.Generate(synthweb.Config{Seed: r.seed, FillerScale: r.scale})
	r.layer("synthweb.generate_s", sp.end().Seconds())
	sp = r.tr.begin("webfarm.New", 0, 0)
	webfarm.New(reg)
	r.layer("webfarm.new_s", sp.end().Seconds())
}

// replayTargets bounds the analysis-stack replay: enough distinct pages
// that each per-op p99 has more than ten samples beyond it.
const replayTargets = 1500

// mainSel mirrors the crawler's content-area selector.
var mainSel = dom.MustCompileSelector("main")

// replayAnalysis replays the crawler's page analysis, call by public
// call, on a fresh browser per page, once per distinct page of a
// sample of the study's targets, and checks that the replay's banner
// kind, language and category equal the crawl's observation. It
// returns every observation it compared (the codec probes' input).
func (r *rep) replayAnalysis(ctx context.Context, st *cookiewalk.Study) []measure.Observation {
	c := st.Crawler()
	targets := st.Targets()
	stride := max(1, len(targets)/replayTargets)

	var inTrips time.Duration
	meter := &farmMeter{}
	meter.active.Store(true)
	transport := meter.wrapWith(st.Transport(), func(d time.Duration) { inTrips += d })

	fetch, compose := r.tr.kind("browser.FetchTopDomain"), r.tr.kind("browser.Compose self")
	parse, detect := r.tr.kind("dom.Parse"), r.tr.kind("core.Detect")
	lang, classify := r.tr.kind("langdetect.Detect"), r.tr.kind("categorize.Classify")
	var parseBytes int64
	var parseTime time.Duration
	seen := map[uint64]bool{}
	var obs []measure.Observation
	parent := r.tr.begin("replay analysis", 0, 0)
	for i := 0; i < len(targets); i += stride {
		domain := targets[i]
		for _, vp := range vantage.All() {
			// The crawl's own observation: a memo hit after the workload.
			want := c.Visit(ctx, vp, domain, measure.VisitOpts{})
			obs = append(obs, want)

			b := browser.New(transport, vp)
			t0 := time.Now()
			fr, err := b.FetchTopDomain(domain)
			t1 := time.Now()
			fetch.record(parent.id, 0, t0, t1)
			if err != nil {
				r.check(want.Err != "", "replay %s from %s: fetch failed (%v) where the crawl succeeded", domain, vp.Name, err)
				continue
			}
			if seen[fr.Fingerprint] {
				continue
			}
			seen[fr.Fingerprint] = true

			inTrips = 0
			t0 = time.Now()
			page := b.Compose(fr)
			t1 = time.Now()
			compose.record(parent.id, 0, t0, t1.Add(-inTrips))
			if cerr := b.ComposeErr(); cerr != nil {
				r.fail("replay %s from %s: compose: %v", domain, vp.Name, cerr)
				continue
			}

			t0 = time.Now()
			dom.Parse(fr.Body)
			t1 = time.Now()
			parse.record(parent.id, 0, t0, t1)
			parseBytes += int64(len(fr.Body))
			parseTime += t1.Sub(t0)

			t0 = time.Now()
			det := core.Detect(page.Doc)
			detect.record(parent.id, 0, t0, time.Now())
			var language, category string
			if body := page.Doc.Body(); body != nil {
				text := body.Text()
				t0 = time.Now()
				language = langdetect.Detect(text).Lang
				lang.record(parent.id, 0, t0, time.Now())
				content := body
				if m := page.Doc.Query(mainSel); m != nil {
					content = m
				}
				text = content.Text()
				t0 = time.Now()
				category = categorize.Classify(text)
				classify.record(parent.id, 0, t0, time.Now())
			}
			r.check(det.Kind == want.Kind && language == want.Language && category == want.Category,
				"replay %s from %s: got %v/%s/%s, the crawl observed %v/%s/%s",
				domain, vp.Name, det.Kind, language, category, want.Kind, want.Language, want.Category)
		}
	}
	parent.end()
	r.layerOp("browser.fetch_ns", fetch.histogram(), 1)
	r.layerOp("browser.compose_self_ns", compose.histogram(), 1)
	r.layerOp("dom.parse_ns", parse.histogram(), 1)
	if parseTime > 0 {
		r.layer("dom.parse_mb_per_s", float64(parseBytes)/(1<<20)/parseTime.Seconds())
	}
	r.layerOp("core.detect_ns", detect.histogram(), 1)
	r.layerOp("langdetect.detect_ns", lang.histogram(), 1)
	r.layerOp("categorize.classify_ns", classify.histogram(), 1)
	return obs
}

// campaignProbes measures the campaign engine and its journal alone:
// campaign.Run over n targets whose visit returns a precomputed
// observation (the engine, resequencer and batched delivery), the same
// Run journaling through measure.ObservationCodec, Resume over the
// complete journals, CheckJournal over every shard file, and the codec
// itself.
func (r *rep) campaignProbes(ctx context.Context, obs []measure.Observation, n int) {
	if len(obs) == 0 || n == 0 {
		r.fail("campaign probes: no observations to replay")
		return
	}
	targets := make([]int, n)
	for i := range targets {
		targets[i] = i
	}
	visit := func(_ context.Context, i int) (measure.Observation, error) { return obs[i%len(obs)], nil }
	var delivered int
	sink := func(campaign.Result[measure.Observation]) { delivered++ }

	cfg := campaign.Config{Label: "probe"}
	sp := r.tr.begin("campaign.Run no-op", 0, 0)
	_, err := campaign.Run(ctx, cfg, targets, visit, sink)
	noop := sp.end()
	r.check(err == nil && delivered == n, "no-op campaign: %d of %d delivered, err %v", delivered, n, err)
	r.layer("campaign.noop_ns_per_result", float64(noop)/float64(n))

	dir := filepath.Join(r.tmp, "probe-journal")
	jcfg := cfg
	jcfg.Checkpoint = &campaign.Checkpoint{Dir: dir, Codec: measure.ObservationCodec{}}
	delivered = 0
	sp = r.tr.begin("campaign.Run journaled", 0, 0)
	_, err = campaign.Run(ctx, jcfg, targets, visit, sink)
	journaled := sp.end()
	r.check(err == nil && delivered == n, "journaled campaign: %d of %d delivered, err %v", delivered, n, err)
	r.layer("campaign.journal_write_ns_per_record", float64(journaled-noop)/float64(n))

	shards := cfg.EffectiveShards(n)
	var journalBytes int64
	var checkTime time.Duration
	for s := 0; s < shards; s++ {
		data, err := os.ReadFile(filepath.Join(dir, campaign.ShardFilename(s)))
		if err != nil {
			r.fail("journal shard %d: %v", s, err)
			continue
		}
		journalBytes += int64(len(data))
		lo, hi := campaign.ShardRange(n, shards, s)
		t0 := time.Now()
		err = campaign.CheckJournal(data, lo, hi)
		checkTime += time.Since(t0)
		r.check(err == nil, "CheckJournal shard %d: %v", s, err)
	}
	r.layer("campaign.journal_bytes_per_record", float64(journalBytes)/float64(n))
	r.layer("campaign.checkjournal_ns_per_record", float64(checkTime)/float64(n))

	var visited atomic.Int64
	never := func(context.Context, int) (measure.Observation, error) {
		visited.Add(1)
		return measure.Observation{}, nil
	}
	delivered = 0
	sp = r.tr.begin("campaign.Resume", 0, 0)
	stats, err := campaign.Resume(ctx, jcfg, targets, never, sink)
	replay := sp.end()
	r.check(err == nil && delivered == n && visited.Load() == 0 && stats.Replayed == int64(n),
		"resume over complete journals: %d delivered, %d replayed, %d visited, err %v", delivered, stats.Replayed, visited.Load(), err)
	r.layer("campaign.replay_ns_per_record", float64(replay)/float64(n))
	if err := os.RemoveAll(dir); err != nil {
		r.fail("remove probe journal: %v", err)
	}

	// The codec runs per observation in a tight loop: one span per pass,
	// since a clock read per call would cost as much as the call.
	codec := measure.ObservationCodec{}
	encoded := make([][]byte, len(obs))
	const passes = 10
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for i, o := range obs {
			b, err := codec.Encode(o)
			if err != nil {
				r.fail("encode: %v", err)
				return
			}
			encoded[i] = b
		}
	}
	r.layer("measure.codec_encode_ns", float64(time.Since(t0))/float64(passes*len(obs)))
	t0 = time.Now()
	for p := 0; p < passes; p++ {
		for i, b := range encoded {
			v, err := codec.Decode(b)
			if err != nil {
				r.fail("decode: %v", err)
				return
			}
			if p == 0 {
				o := v.(measure.Observation)
				r.check(o.Domain == obs[i].Domain && o.Fingerprint == obs[i].Fingerprint &&
					o.Kind == obs[i].Kind && strings.Join(o.MatchedWords, ",") == strings.Join(obs[i].MatchedWords, ","),
					"codec round trip changed %s", obs[i].Domain)
			}
		}
	}
	r.layer("measure.codec_decode_ns", float64(time.Since(t0))/float64(passes*len(encoded)))
}

// probes runs every layer probe on a study the workload already
// crawled with: the analysis-stack replay, then the campaign engine,
// journal and codec probes over the replayed observations, sized to
// one landscape crawl.
func (r *rep) probes(ctx context.Context, st *cookiewalk.Study) {
	if r.tr == nil {
		return
	}
	obs := r.replayAnalysis(ctx, st)
	r.campaignProbes(ctx, obs, len(st.Targets())*len(vantage.All()))
}
