// Package cookiewalk is an end-to-end reproduction of "Thou Shalt Not
// Reject: Analyzing Accept-Or-Pay Cookie Banners on the Web" (Rasaii,
// Gosain, Gasser — ACM IMC 2023).
//
// The package bundles three things:
//
//   - a deterministic synthetic web (45 222 target sites with cookie
//     banners, cookiewalls, CMPs, SMPs and trackers) served over
//     net/http — the offline substitute for the live Internet;
//   - an emulated browser and the BannerClick-style detection pipeline
//     (banner discovery across main DOM, iframes and shadow DOMs;
//     accept/reject interaction; cookiewall classification by
//     subscription words and currency-price combinations);
//   - the paper's experiments: the eight-vantage-point landscape crawl
//     (Table 1), category and pricing analyses (Figures 1-3), cookie
//     comparisons (Figures 4-5), correlation analysis (Figure 6),
//     detection accuracy (§3) and the ad-blocker bypass study (§4.5).
//
// Every crawl runs on the streaming campaign engine
// (internal/campaign): the target list is partitioned into shards, one
// worker pool per campaign run visits the sites of every shard, and
// observations stream — in input order — into incrementally updated
// tallies. Nothing ever materializes the full per-visit result set,
// outputs are byte-for-byte identical for a fixed seed regardless of
// Workers or Shards, and long campaigns report progress and per-shard
// error counts as they go.
//
// Above the engine, the study layer resolves experiments as a
// dependency DAG (see schedule.go): artefacts are memoized study-wide
// and computed one at a time in dependency order, campaigns are
// cancellable via ReportContext, and with Config.CheckpointDir every
// constituent campaign — not just the landscape — journals its
// progress for crash-safe resumption. None of it changes results.
//
// Quickstart:
//
//	study := cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.02, Reps: 2})
//	rep, err := study.Analyze("Germany", study.CookiewallDomains()[0])
//	fmt.Println(rep.BannerKind, rep.PriceEUR, err)
//
//	// One artefact, or everything (what the golden test pins):
//	text, _ := study.Report(cookiewalk.ExpTable1)
//	all, _ := study.Report(cookiewalk.ExpAll)
//	fmt.Println(text, len(all))
//
// Watch a campaign stream (the cmd/cookiewalk -progress flag does
// exactly this):
//
//	study = cookiewalk.New(cookiewalk.Config{
//		Seed: 42, Scale: 0.02, Reps: 2, Workers: 4,
//		Progress: func(p cookiewalk.Progress) {
//			fmt.Printf("%s: shard %d/%d, %d/%d visits, %d errors\n",
//				p.Label, p.Shard, p.Shards, p.Done, p.Total, p.Errors)
//		},
//	})
//	_, _ = study.Report(cookiewalk.ExpPrevalence)
//
// Scale 1 reproduces the paper's absolute numbers; smaller scales
// shrink the filler web for fast experimentation while keeping the 280
// cookiewall sites and every structural marginal intact. The worker and
// shard counts tune throughput only — never results.
package cookiewalk

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"cookiewalk/internal/adblock"
	"cookiewalk/internal/browser"
	"cookiewalk/internal/campaign"
	"cookiewalk/internal/core"
	"cookiewalk/internal/dom"
	"cookiewalk/internal/hostgate"
	"cookiewalk/internal/measure"
	"cookiewalk/internal/report"
	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/vantage"
	"cookiewalk/internal/webfarm"
)

// Config parameterizes a Study.
type Config struct {
	// Seed drives every pseudo-random choice; identical seeds yield
	// byte-identical universes and results.
	Seed uint64
	// Scale scales the filler web (default 1 = the paper's 45 222
	// targets). The cookiewall population never scales.
	Scale float64
	// Reps is the repetition count for cookie measurements (default 5,
	// as in the paper).
	Reps int
	// Workers bounds each crawl's parallelism: the size of the one worker
	// pool a campaign run starts for all its shards (default GOMAXPROCS).
	Workers int
	// Shards overrides the campaign shard count (default: derived from
	// the target-list size). Purely a throughput/accounting knob —
	// results are identical for any value.
	Shards int
	// Progress, when set, receives streaming campaign progress
	// snapshots (shard, visit and error counters) from every crawl the
	// study runs. The study runs one campaign at a time, so calls are
	// serial unless the caller reports from several goroutines at once
	// (then the handler must be safe for concurrent use).
	Progress func(Progress)
	// NoAnalysisCache disables the content-fingerprint memoization of
	// page analysis (parse → detect → language → category), forcing
	// every visit through the full pipeline. Results are byte-identical
	// either way; turn this on when debugging a detection change so a
	// stale memo can never mask its effect. Purely a debug/verification
	// knob — leave it off for throughput.
	NoAnalysisCache bool
	// CheckpointDir, when set, makes every experiment campaign
	// crash-safe: each campaign — the landscape's eight vantage-point
	// crawls AND every follow-up experiment (figure4/figure5 cookie
	// measurements, bypass, ablation, autoreject, revocation,
	// botcheck) — journals its completed visits to durable per-shard
	// files under its own subdirectory of this directory, so a study
	// killed by an OOM, a preemption or a power cut can continue
	// instead of starting over. Journaling never changes results.
	CheckpointDir string
	// Resume, together with CheckpointDir, replays the journals a
	// previous (killed) run left behind: journaled visits stream from
	// disk, only the missing ones are crawled — across EVERY
	// constituent experiment campaign — and every report is
	// byte-identical to an uninterrupted run's. An empty or absent
	// checkpoint directory (or subdirectory) degrades to a fresh crawl.
	Resume bool
	// LeaseTTL is the fleet coordinator's lease lifetime (default 30s;
	// see NewFleetCoordinator): a worker that goes silent for LeaseTTL
	// is presumed dead and its shard range is re-leased. Only read in
	// coordinator mode; it never affects results, only how quickly a
	// lost worker's range is handed to someone else.
	LeaseTTL time.Duration
	// FleetToken, when set, locks the fleet protocol behind a shared
	// secret: the coordinator refuses requests without a matching
	// "Authorization: Bearer" header (constant-time compare, HTTP 401),
	// and workers send it on every request. Both sides of a fleet must
	// configure the same token — a 401 is definitive, so a
	// wrong-tokened worker exits instead of retrying forever. Empty
	// disables auth (trusted networks only).
	FleetToken string
	// ExperimentParallelism is read nowhere: experiments run one at a
	// time, in dependency order, each campaign on its own pool of
	// Workers.
	//
	// Deprecated: setting it has no effect.
	ExperimentParallelism int
	// VisitTimeout, when positive, bounds each visit's wall clock
	// (navigation plus all subresource fetches and retries). A visit
	// that overruns surfaces as an ordinary visit error; it never
	// wedges the campaign. Zero disables the deadline.
	VisitTimeout time.Duration
	// VisitRetries, when positive, retries transient transport
	// failures — timeouts, connection resets, truncated bodies, 5xx —
	// up to that many extra attempts per request with seeded
	// exponential backoff. Definitive failures (DNS, 4xx) are never
	// retried. With flaky transport whose faults eventually clear,
	// results are byte-identical to a clean run; only timing changes.
	VisitRetries int
	// VisitRetryBackoff is the initial retry delay (default 100ms,
	// doubled per attempt, capped at 2s, decorrelated jitter). Timing
	// only — never results.
	VisitRetryBackoff time.Duration
	// BreakerThreshold, when positive, arms a per-host circuit
	// breaker: after that many consecutive transient failures the host
	// is skipped (visits fail fast with a circuit-open error) until a
	// half-open probe succeeds. A breaker can only trip on hosts that
	// already exhaust their retries, so it never changes results for
	// targets that eventually succeed.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before probing
	// the host again (default 30s).
	BreakerCooldown time.Duration
	// FleetCA, when set, is a PEM file of CA certificates fleet
	// workers trust when dialing an https:// coordinator (see
	// RunFleetWorker). Empty uses the system pool.
	FleetCA string
	// WrapTransport, when set, wraps the synthetic web's transport
	// before the crawler sees it — the seam the flaky-transport chaos
	// tests use to inject deterministic faults between browser and
	// farm. Production studies leave it nil.
	WrapTransport func(http.RoundTripper) http.RoundTripper
}

// Progress is a point-in-time snapshot of a running crawl campaign,
// labelled like "landscape Germany" or "cookies accept". Retries and
// the breaker counters stay zero unless Config.VisitRetries or
// Config.BreakerThreshold is set.
type Progress = campaign.Progress

// Study owns a generated universe and its measurement machinery.
// Artefacts — the landscape campaign, derived domain lists, follow-up
// campaign results and rendered report sections — are memoized in the
// study-wide DAG store (see schedule.go); each is computed at most
// once per Study.
type Study struct {
	cfg     Config
	reg     *synthweb.Registry
	farm    *webfarm.Farm
	crawler *measure.Crawler

	mu    sync.Mutex
	nodes map[string]*nodeState
}

// New generates the synthetic web and wires up the crawler.
func New(cfg Config) *Study {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 5
	}
	reg := synthweb.Generate(synthweb.Config{Seed: cfg.Seed, FillerScale: cfg.Scale})
	farm := webfarm.New(reg)
	transport := http.RoundTripper(farm.Transport())
	if cfg.WrapTransport != nil {
		transport = cfg.WrapTransport(transport)
	}
	crawler := measure.New(reg, transport)
	crawler.Workers = cfg.Workers
	crawler.Shards = cfg.Shards
	crawler.NoAnalysisCache = cfg.NoAnalysisCache
	crawler.CheckpointDir = cfg.CheckpointDir
	crawler.Resume = cfg.Resume
	crawler.VisitTimeout = cfg.VisitTimeout
	crawler.VisitRetries = cfg.VisitRetries
	crawler.RetryBackoff = cfg.VisitRetryBackoff
	crawler.RetrySeed = cfg.Seed
	if g := hostgate.New(hostgate.Config{
		BreakerThreshold: cfg.BreakerThreshold,
		BreakerCooldown:  cfg.BreakerCooldown,
	}); g != nil {
		// Assigned only when non-nil so the interface stays nil (not a
		// typed nil): the browser consults a non-nil gate on every
		// request, and a typed nil would panic there.
		crawler.Gate = g
	}
	crawler.Progress = cfg.Progress
	return &Study{
		cfg: cfg, reg: reg, farm: farm, crawler: crawler,
		nodes: map[string]*nodeState{},
	}
}

// Targets returns the measurement target list (sorted domains).
func (s *Study) Targets() []string { return s.reg.TargetList() }

// VantagePoints returns the eight vantage point names in Table 1 order.
func (s *Study) VantagePoints() []string {
	var out []string
	for _, vp := range vantage.All() {
		out = append(out, vp.Name)
	}
	return out
}

// CookiewallDomains returns the ground-truth cookiewall sites on the
// target list (for demos and spot checks; the detector never uses it).
func (s *Study) CookiewallDomains() []string {
	var out []string
	for _, site := range s.reg.CookiewallSites() {
		if site.Lists.Len() > 0 {
			out = append(out, site.Domain)
		}
	}
	sort.Strings(out)
	return out
}

// Handler returns the farm as an http.Handler, e.g. to serve the
// synthetic web on a real port (see cmd/webfarm).
func (s *Study) Handler() http.Handler { return s.farm }

// Transport returns the in-process RoundTripper for custom crawls.
func (s *Study) Transport() http.RoundTripper { return s.farm.Transport() }

// Crawler exposes the measurement engine for advanced use (custom
// experiments beyond the paper's).
func (s *Study) Crawler() *measure.Crawler { return s.crawler }

// SiteReport is the public per-site analysis result.
type SiteReport struct {
	Domain string
	VP     string
	// BannerKind is "none", "regular" or "cookiewall".
	BannerKind string
	// Embedding is "none", "main-dom", "iframe" or "shadow-dom".
	Embedding string
	// ShadowMode is "open"/"closed" for shadow embeddings.
	ShadowMode string
	HasAccept  bool
	HasReject  bool
	HasSub     bool
	// MatchedWords are the §3 subscription-corpus hits.
	MatchedWords []string
	// PriceEUR is the normalized monthly subscription price (0 = none
	// detected).
	PriceEUR float64
	// Language and Category are measured from page content.
	Language string
	Category string
	// Blocked quirks (only meaningful with WithBlocker).
	AdblockPlea  bool
	ScrollLocked bool
}

// Analyze visits one site from a vantage point and classifies its
// banner.
func (s *Study) Analyze(vpName, domain string) (SiteReport, error) {
	return s.analyze(vpName, domain, nil)
}

// AnalyzeWithBlocker is Analyze with the uBlock-style blocker enabled
// (base + annoyances lists).
func (s *Study) AnalyzeWithBlocker(vpName, domain string) (SiteReport, error) {
	return s.analyze(vpName, domain, DefaultBlocker())
}

// DefaultBlocker returns the §4.5 filter engine: the default-on
// tracker list plus the Annoyances cookiewall list.
func DefaultBlocker() *adblock.Engine {
	return adblock.NewEngine(adblock.BaseList(), adblock.AnnoyancesList())
}

func (s *Study) analyze(vpName, domain string, blocker *adblock.Engine) (SiteReport, error) {
	vp, ok := vantage.ByName(vpName)
	if !ok {
		return SiteReport{}, fmt.Errorf("cookiewalk: unknown vantage point %q", vpName)
	}
	// Single visits ride the campaign engine too, so progress and error
	// accounting cover them like any crawl.
	o, err := s.crawler.AnalyzeOne(context.Background(), vp, domain, measure.VisitOpts{Blocker: blocker})
	if err != nil {
		return SiteReport{}, fmt.Errorf("cookiewalk: visit %s: %w", domain, err)
	}
	return SiteReport{
		Domain:     o.Domain,
		VP:         o.VP,
		BannerKind: o.Kind.String(),
		Embedding:  o.Source.String(),
		ShadowMode: o.ShadowMode,
		HasAccept:  o.HasAccept,
		HasReject:  o.HasReject,
		HasSub:     o.HasSub,
		// Copied: observations share their word slice with the process-
		// wide analysis memo, and public API consumers own their result.
		MatchedWords: append([]string(nil), o.MatchedWords...),
		PriceEUR:     o.MonthlyEUR,
		Language:     o.Language,
		Category:     o.Category,
		AdblockPlea:  o.AdblockPlea,
		ScrollLocked: o.ScrollLocked,
	}, nil
}

// NewBrowser returns a fresh emulated browser session pointed at the
// synthetic web, for custom interaction flows. The pages it composes,
// and their trees, stay valid until its next Reset, which recycles
// their memory for the next visit (see package browser).
func (s *Study) NewBrowser(vpName string) (*browser.Browser, error) {
	vp, ok := vantage.ByName(vpName)
	if !ok {
		return nil, fmt.Errorf("cookiewalk: unknown vantage point %q", vpName)
	}
	return browser.New(s.farm.Transport(), vp), nil
}

// Screenshot renders the site's detected banner as an ASCII box — the
// textual analogue of the paper's Appendix B screenshots.
func (s *Study) Screenshot(vpName, domain string) (string, error) {
	vp, ok := vantage.ByName(vpName)
	if !ok {
		return "", fmt.Errorf("cookiewalk: unknown vantage point %q", vpName)
	}
	b := browser.New(s.farm.Transport(), vp)
	page, err := b.OpenDomain(domain)
	if err != nil {
		return "", fmt.Errorf("cookiewalk: screenshot %s: %w", domain, err)
	}
	det := core.Detect(page.Doc)
	if det.Kind == core.KindNone {
		return report.BannerBox(domain, "no banner", "(no consent UI shown to this visitor)", nil), nil
	}
	var buttons []string
	for _, btn := range []*dom.Node{det.AcceptButton, det.RejectButton, det.SubscribeButton} {
		if btn != nil {
			buttons = append(buttons, btn.Text())
		}
	}
	title := fmt.Sprintf("%s (via %s)", domain, det.Source)
	return report.BannerBox(title, det.Kind.String(), det.Element.DeepText(), buttons), nil
}

// DetectInHTML runs the banner detector over raw HTML — the
// library-as-a-tool entry point for analyzing arbitrary pages.
func DetectInHTML(html string) SiteReport {
	det := core.Detect(dom.Parse(html))
	return SiteReport{
		BannerKind:   det.Kind.String(),
		Embedding:    det.Source.String(),
		ShadowMode:   string(det.ShadowMode),
		HasAccept:    det.AcceptButton != nil,
		HasReject:    det.RejectButton != nil,
		HasSub:       det.SubscribeButton != nil,
		MatchedWords: det.MatchedWords,
		PriceEUR:     det.MonthlyEUR,
	}
}
