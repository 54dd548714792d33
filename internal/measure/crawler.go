// Package measure orchestrates the paper's experiments on top of the
// emulated browser and the banner detector: the eight-VP landscape
// crawl (Table 1, Figures 1-3), detection-accuracy evaluation (§3),
// the cookie comparisons (Figures 4 and 5), the ad-blocker bypass
// experiment (§4.5), and prevalence rates (§4.1).
//
// Every crawl visits sites with a FRESH browser profile per visit
// (cookie jar and all), matching OpenWPM's stateless mode. Crawls run
// through the internal/campaign engine: targets are sharded, visits run
// on one worker pool per campaign run, and results stream into
// order-stable incremental aggregators — so outputs are byte-identical for a fixed
// seed regardless of worker or shard count, and campaigns can be
// canceled mid-flight with per-shard accounting of what ran.
//
// Determinism invariant. Every measurement is a pure function of the
// universe seed and the target: never of wall-clock time, scheduling,
// vantage-point visit ORDER, or which sibling campaigns are in
// flight. The analysis memo sharpens this to VP-independence —
// everything analyzePage computes must depend only on page CONTENT
// (equal fingerprints of one universe imply equal analyses), so any
// VP-dependent value has to be captured at fetch time and stamped on
// after memo lookup, and the memo is only ever seeded from a complete,
// successful fetch. Results are therefore byte-identical with the
// memo on or off, across kill/resume, distributed fleets, and
// injected transport faults; errors use stable text so journaled
// failures replay byte-identically too.
package measure

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"cookiewalk/internal/adblock"
	"cookiewalk/internal/browser"
	"cookiewalk/internal/campaign"
	"cookiewalk/internal/categorize"
	"cookiewalk/internal/cookies"
	"cookiewalk/internal/core"
	"cookiewalk/internal/dom"
	"cookiewalk/internal/langdetect"
	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/trackdb"
	"cookiewalk/internal/vantage"
)

// Crawler runs measurements against a registry through a transport.
type Crawler struct {
	// Reg provides targets, toplists and ground truth for accuracy
	// audits. The detector itself never consults it.
	Reg *synthweb.Registry
	// Transport is normally webfarm.(*Farm).Transport().
	Transport http.RoundTripper
	// Workers bounds per-shard crawl parallelism (default: GOMAXPROCS).
	Workers int
	// Shards is the campaign shard count (default: derived from the
	// target-list size, see campaign.DefaultShards). Sharding never
	// changes results.
	Shards int
	// Progress, when set, receives streaming campaign progress
	// (visit/error counters per shard) from every crawl this crawler
	// runs. Purely observational. A campaign calls it from its one
	// delivery goroutine, so calls are serial unless the caller runs
	// campaigns from several goroutines at once.
	Progress func(campaign.Progress)
	// ProgressEvery overrides the delivery interval between Progress
	// callbacks (default: the engine's, 1000). Purely observational.
	ProgressEvery int
	// NoAnalysisCache disables the content-fingerprint analysis memo:
	// every visit re-runs parse/detect/classify even for page bodies
	// already analyzed. Results are byte-identical either way — flip
	// this on when debugging a detection change so every visit
	// exercises the full pipeline.
	NoAnalysisCache bool
	// CheckpointDir, when set, makes the landscape crawl crash-safe:
	// each vantage point's campaign journals its delivered observations
	// into CheckpointDir/landscape-<vp>/ (see campaign.Checkpoint). A
	// fresh Landscape call starts fresh journals; with Resume set it
	// replays them instead, re-crawling only what is missing. Results
	// are byte-identical either way.
	CheckpointDir string
	// Resume makes every checkpointed campaign replay the journals
	// under CheckpointDir (no-op when CheckpointDir is empty; an
	// empty/missing journal degrades to a fresh crawl).
	Resume bool
	// VisitTimeout, when positive, bounds each visit's wall clock: the
	// deadline context is attached to every request the visit makes, so
	// stalls and slow hosts cut off instead of wedging a worker.
	VisitTimeout time.Duration
	// VisitRetries, when positive, retries transient transport failures
	// per request (timeouts, resets, 5xx, torn bodies) with seeded
	// decorrelated-jitter backoff before giving up. Faults that a retry
	// erases leave results byte-identical to a clean transport's;
	// exhausted budgets surface as visit errors, never partial pages.
	VisitRetries int
	// RetryBackoff is the initial retry delay (default 100ms, doubled
	// per attempt, capped at 2s).
	RetryBackoff time.Duration
	// RetrySeed seeds the retry jitter (timing only, never results).
	RetrySeed uint64
	// Gate, when set, is the shared per-host admission controller
	// (rate limiter + circuit breakers, see internal/hostgate) consulted
	// around every request of every visit.
	Gate browser.HostGate
}

// New returns a Crawler.
func New(reg *synthweb.Registry, transport http.RoundTripper) *Crawler {
	return &Crawler{Reg: reg, Transport: transport}
}

// engine assembles the campaign configuration for one crawl.
func (c *Crawler) engine(label string) campaign.Config {
	return campaign.Config{
		Label:         label,
		Workers:       c.Workers,
		Shards:        c.Shards,
		OnProgress:    c.Progress,
		ProgressEvery: c.ProgressEvery,
	}
}

// runExperimentCampaign executes one labeled experiment campaign
// through the engine. With Crawler.CheckpointDir set (and a non-nil
// codec), the campaign journals its deliveries into
// CheckpointDir/<path(label)>/ — every experiment gets its own journal
// subdirectory, keyed by its campaign label — and with Crawler.Resume
// additionally set, a previous (killed) run's journal replays instead,
// re-visiting only what is missing. Labels must therefore be unique
// per campaign across the whole study. A nil codec opts the campaign
// out of journaling (single-visit campaigns like AnalyzeOne).
func runExperimentCampaign[R any](ctx context.Context, c *Crawler, label string, codec campaign.Codec, targets []string,
	visit func(context.Context, string) (R, error), sink func(campaign.Result[R])) (campaign.Stats, error) {

	cfg := c.engine(label)
	run := campaign.Run[string, R]
	if c.CheckpointDir != "" && codec != nil {
		cfg.Checkpoint = &campaign.Checkpoint{
			Dir:         filepath.Join(c.CheckpointDir, campaign.PathLabel(label)),
			Codec:       codec,
			TargetsHash: campaign.HashTargets(targets),
		}
		if c.Resume {
			run = campaign.Resume[string, R]
		}
	}
	return run(ctx, cfg, targets, visit, sink)
}

// worker is what a campaign worker's Affinity slot holds between
// visits: the browser and the banner detector, whose text buffer and
// candidate slice every detection on the worker reuses, and the buffer
// analyzePage extracts page text into for language and category
// scoring.
type worker struct {
	browser.Browser
	det  core.Detector
	text []byte
}

// session is one visit's fresh-profile browser, armed with the
// crawler's resilience policy (visit deadline, retries, host gate, and
// the campaign worker's meter carried by ctx). The worker comes from
// the campaign worker's Affinity slot, so each campaign worker keeps
// one browser — cookie-jar map, request scratch, parser arenas — and
// one detector pinned for its whole run; outside a slot every visit
// gets new ones. Reset makes reuse invisible to the measurement either
// way; it also recycles the pages the worker's previous visit composed,
// so nothing a visit returns may point into a page (an analysis holds
// strings and flags only). Call release when no page state is needed
// anymore.
type session struct {
	*worker
	aff    *campaign.Affinity
	cancel context.CancelFunc
}

func (c *Crawler) session(ctx context.Context, vp vantage.VP) session {
	s := session{aff: campaign.AffinityFrom(ctx)}
	// Take empties the slot, so a (hypothetical) nested session on the
	// same worker gets a fresh worker instead of aliasing this one.
	s.worker, _ = s.aff.Take().(*worker)
	if s.worker == nil {
		s.worker = new(worker)
	}
	s.Reset(c.Transport, vp)
	if c.VisitTimeout > 0 {
		var tctx context.Context
		tctx, s.cancel = context.WithTimeout(ctx, c.VisitTimeout)
		s.Resilience.Ctx = tctx
	}
	// The zero retry and gate policy is inert: one attempt per request,
	// no gate calls, no meter events.
	s.Resilience.Retries = c.VisitRetries
	s.Resilience.Backoff = c.RetryBackoff
	s.Resilience.Seed = c.RetrySeed
	s.Resilience.Gate = c.Gate
	if m := campaign.MeterFrom(ctx); m != nil {
		s.Resilience.Meter = m
	}
	return s
}

// release disarms the visit deadline and hands the worker back to the
// slot it came from, if ctx carried one.
func (s session) release() {
	if s.cancel != nil {
		s.cancel()
	}
	s.aff.Put(s.worker)
}

// locate finds the banner on doc with the worker's detector: its kind
// and buttons, all that a report visit reads. The description the
// landscape reads (corpus words, prices) is left out.
func (s session) locate(doc *dom.Node) core.Banner {
	return s.det.Locate(doc, core.Options{})
}

// Observation is the per-site outcome of one measurement visit.
type Observation struct {
	Domain string
	VP     string
	// Err is the transport error for unreachable/unknown hosts.
	Err string

	// Fingerprint is the visited page's content token
	// (browser.Page.Fingerprint; zero for failed fetches). With the
	// universe it keys the process-wide analysis memo (memoKey), and
	// the checkpoint codec persists it
	// so a resumed campaign re-seeds the memo from replayed
	// observations — fresh visits after a resume hit the memo exactly
	// as they would have in the uninterrupted run.
	Fingerprint uint64

	Kind       core.Kind
	Source     core.Source
	ShadowMode string
	HasAccept  bool
	HasReject  bool
	HasSub     bool

	// MatchedWords/PriceCount/MonthlyEUR describe the §3 classification
	// evidence. MatchedWords is FROZEN: it aliases the process-wide
	// analysis memo (shared by every visit resolving to the same page
	// content), so consumers must never mutate it in place — copy
	// before sorting or appending (cookiewalk.SiteReport and the
	// dataset export do exactly that).
	MatchedWords []string
	PriceCount   int
	MonthlyEUR   float64

	// Language and Category are MEASURED from page text (CLD3 and
	// FortiGuard substitutes), not read from the registry.
	Language string
	Category string

	// Quirks from the bypass experiment.
	AdblockPlea  bool
	ScrollLocked bool
}

// TLD returns the domain's final label ("de", "com", ...), the unit of
// Figure 2's rows.
func (o Observation) TLD() string {
	idx := strings.LastIndexByte(o.Domain, '.')
	if idx < 0 {
		return o.Domain
	}
	return o.Domain[idx+1:]
}

// VisitOpts configures a single visit.
type VisitOpts struct {
	// Visit labels the repetition for server-side jitter.
	Visit string
	// Blocker enables the uBlock stand-in.
	Blocker *adblock.Engine
}

// Visit loads one site from one vantage point with a fresh profile and
// analyzes its banner. ctx must be non-nil. It carries the campaign's
// cancellation, deadline base, resilience meter and the worker's
// session slot; direct callers pass context.Background(), or wrap it
// with campaign.WithAffinity to reuse one browser across visits the
// way a campaign worker does.
//
// The visit is split in two: a per-visit FETCH (transport dispatch,
// cookies, vantage headers) and a VP-independent ANALYSIS (parse,
// core.Detect, language detection, categorization) memoized by the
// page's content fingerprint. On a memo hit — e.g. the second through
// eighth vantage points of a landscape crawl loading an identical
// render — the visit never parses the page at all; only the per-visit
// Domain/VP fields are stamped onto the shared analysis.
//
// Memo-poisoning invariant: the analysis memo is only ever filled
// from a composition whose every fetch either succeeded (post-retry)
// or failed deterministically. A composition degraded by exhausted
// transient retries is an error — the observation carries Err and a
// zero Fingerprint, nothing is memoized, and concurrent visits
// waiting on the same fingerprint re-claim and recompute.
func (c *Crawler) Visit(ctx context.Context, vp vantage.VP, domain string, opts VisitOpts) Observation {
	obs := Observation{Domain: domain, VP: vp.Name}
	b := c.session(ctx, vp)
	defer b.release()
	b.Visit = opts.Visit
	b.Blocker = opts.Blocker
	fr, err := b.FetchTopDomain(domain)
	if err != nil {
		obs.Err = err.Error()
		return obs
	}
	var a core.Analysis
	if c.NoAnalysisCache {
		a = b.analyzePage(b.Compose(fr))
		if cerr := b.ComposeErr(); cerr != nil {
			obs.Err = cerr.Error()
			return obs
		}
	} else {
		var aerr error
		a, aerr = analyses.getChecked(memoKey(c.Reg, fr.Fingerprint), func() (core.Analysis, error) {
			page := b.Compose(fr)
			if cerr := b.ComposeErr(); cerr != nil {
				return core.Analysis{}, cerr
			}
			return b.analyzePage(page), nil
		})
		if aerr != nil {
			obs.Err = aerr.Error()
			return obs
		}
	}
	obs.Fingerprint = fr.Fingerprint
	obs.setAnalysis(a)
	return obs
}

// setAnalysis stamps the VP-independent analysis onto a per-visit
// observation. The MatchedWords slice is shared with the cache entry
// (frozen at detection, see analyzePage), never copied per visit.
func (o *Observation) setAnalysis(a core.Analysis) {
	o.Kind = a.Kind
	o.Source = a.Source
	o.ShadowMode = a.ShadowMode
	o.HasAccept = a.HasAccept
	o.HasReject = a.HasReject
	o.HasSub = a.HasSub
	o.MatchedWords = a.MatchedWords
	o.PriceCount = a.PriceCount
	o.MonthlyEUR = a.MonthlyEUR
	o.Language = a.Language
	o.Category = a.Category
	o.AdblockPlea = a.AdblockPlea
	o.ScrollLocked = a.ScrollLocked
}

// analyzePage runs the pure post-fetch pipeline — detection,
// classification, language and category measurement — on a composed
// page, detecting with w's detector and scoring text in w's buffer. It
// depends on page content only (never on the vantage point, visit
// label or worker), the invariant that makes its result safe to
// memoize by content fingerprint.
func (w *worker) analyzePage(page *browser.Page) core.Analysis {
	det := w.det.Locate(page.Doc, core.Options{})
	w.det.Describe(&det)
	a := core.Analysis{
		Kind:       det.Kind,
		Source:     det.Source,
		ShadowMode: string(det.ShadowMode),
		HasAccept:  det.AcceptButton != nil,
		HasReject:  det.RejectButton != nil,
		HasSub:     det.SubscribeButton != nil,
		// Exact length and referenced by nothing else (core.Banner's
		// contract), so the memo entry owns it, frozen, as it is.
		MatchedWords: det.MatchedWords,
		PriceCount:   det.PriceCount,
		MonthlyEUR:   det.MonthlyEUR,
		AdblockPlea:  page.AdblockPlea,
		ScrollLocked: page.ScrollLocked,
	}
	if body := page.Doc.Body(); body != nil {
		w.text = body.AppendText(w.text[:0])
		a.Language = langdetect.Detect(w.text).Lang
		// Categorize from the content area only: headers repeat the
		// site name (which FortiGuard would not score) and banners
		// carry consent vocabulary, both of which pollute keyword
		// counting.
		content := body
		if m := page.Doc.Query(mainSel); m != nil {
			content = m
		}
		w.text = content.AppendText(w.text[:0])
		a.Category = categorize.Classify(w.text)
	}
	return a
}

// mainSel is compiled once: Visit runs it on every page of every crawl.
var mainSel = dom.MustCompileSelector("main")

// observe is the campaign visit function of every observation crawl:
// one Visit from vp with opts, whose error string becomes the visit's
// campaign error.
func (c *Crawler) observe(vp vantage.VP, opts VisitOpts) func(context.Context, string) (Observation, error) {
	return func(ctx context.Context, domain string) (Observation, error) {
		o := c.Visit(ctx, vp, domain, opts)
		if o.Err != "" {
			return o, errors.New(o.Err)
		}
		return o, nil
	}
}

// AnalyzeOne runs a single-target campaign: one visit through the same
// engine path (progress callbacks, shard accounting) as full crawls.
// The returned error is the visit's transport error, or the
// cancellation cause when ctx was canceled first.
func (c *Crawler) AnalyzeOne(ctx context.Context, vp vantage.VP, domain string, opts VisitOpts) (Observation, error) {
	var obs Observation
	var visitErr error
	_, err := campaign.Run(ctx, c.engine("analyze "+domain), []string{domain}, c.observe(vp, opts),
		func(r campaign.Result[Observation]) {
			obs = r.Value
			visitErr = r.Err
		})
	if err != nil {
		return obs, err
	}
	return obs, visitErr
}

// CookieTally is the averaged per-site cookie triple of Figures 4/5.
type CookieTally struct {
	FirstParty float64
	ThirdParty float64
	Tracking   float64
}

// SiteCookies pairs a domain with its averaged tally.
type SiteCookies struct {
	Domain string
	Tally  CookieTally
	// Err is set when every repetition failed.
	Err string
}

// InteractionMode selects what to click on the banner.
type InteractionMode int

const (
	// ModeAccept clicks the accept button (consent to tracking).
	ModeAccept InteractionMode = iota
	// ModeSubscribe logs in with an SMP subscription (§4.4).
	ModeSubscribe
)

// MeasureCookies visits each domain reps times from vp, performs the
// interaction, and returns per-site average cookie tallies — the §4.3
// methodology ("we repeat each measurement five times per website and
// calculate the average number of cookies per website"). The returned
// error is non-nil only when ctx is canceled mid-campaign (or on a
// checkpoint journal failure); the tallies streamed before
// cancellation are returned with it. label names the campaign in
// progress snapshots and checkpoint journals ("fig4 cookiewall",
// "fig5 accept", ...) and must be unique per campaign.
//
// Like every other experiment path, this streams through the engine:
// each site's tally is delivered in input order the moment it is
// ready, and the only materialization left is the caller-facing
// result slice itself (Figures 4-6 genuinely need the full per-site
// set for medians and correlations).
func (c *Crawler) MeasureCookies(ctx context.Context, vp vantage.VP, label string, domains []string, reps int, mode InteractionMode, smpToken string) ([]SiteCookies, error) {
	out := make([]SiteCookies, 0, len(domains))
	// The browser's per-visit label depends only on (vp, rep, mode), so
	// the campaign builds its reps labels once instead of once a visit.
	visits := make([]string, reps)
	for rep := range visits {
		visits[rep] = fmt.Sprintf("%s|%d|%s", vp.Name, rep, modeLabel(mode))
	}
	_, err := runExperimentCampaign(ctx, c, label, SiteCookiesCodec{}, domains,
		func(ctx context.Context, domain string) (SiteCookies, error) {
			var sum CookieTally
			ok := 0
			var lastErr string
			for rep := 0; rep < reps; rep++ {
				tally, err := c.cookieVisit(ctx, vp, domain, visits[rep], mode, smpToken)
				if err != nil {
					lastErr = err.Error()
					continue
				}
				sum.FirstParty += float64(tally.FirstParty)
				sum.ThirdParty += float64(tally.ThirdParty)
				sum.Tracking += float64(tally.Tracking)
				ok++
			}
			if ok == 0 {
				return SiteCookies{Domain: domain, Err: lastErr}, errors.New(lastErr)
			}
			n := float64(ok)
			return SiteCookies{Domain: domain, Tally: CookieTally{
				FirstParty: sum.FirstParty / n,
				ThirdParty: sum.ThirdParty / n,
				Tracking:   sum.Tracking / n,
			}}, nil
		},
		func(r campaign.Result[SiteCookies]) {
			// In-order streaming delivery: appending yields the
			// positional layout (out[i] belongs to domains[i]).
			out = append(out, r.Value)
		})
	return out, err
}

// cookieVisit runs one repetition; visit is its browser label,
// "vp|rep|mode".
func (c *Crawler) cookieVisit(ctx context.Context, vp vantage.VP, domain, visit string, mode InteractionMode, smpToken string) (cookies.Tally, error) {
	b := c.session(ctx, vp)
	defer b.release()
	b.Visit = visit
	b.SMPToken = smpToken
	page, err := b.OpenDomain(domain)
	if err != nil {
		return cookies.Tally{}, err
	}
	det := b.locate(page.Doc)
	switch mode {
	case ModeAccept:
		if det.AcceptButton != nil {
			if page, err = b.Click(page, det.AcceptButton); err != nil {
				return cookies.Tally{}, err
			}
		}
	case ModeSubscribe:
		if det.SubscribeButton != nil {
			if page, err = b.Click(page, det.SubscribeButton); err != nil {
				return cookies.Tally{}, err
			}
		}
	}
	_ = page
	return cookies.Count(b.Jar, domain, trackdb.IsTracking), nil
}

func modeLabel(m InteractionMode) string {
	if m == ModeSubscribe {
		return "sub"
	}
	return "accept"
}
