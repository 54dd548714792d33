package measure

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"

	"cookiewalk/internal/adblock"
	"cookiewalk/internal/campaign"
	"cookiewalk/internal/core"
	"cookiewalk/internal/currency"
	"cookiewalk/internal/stats"
	"cookiewalk/internal/vantage"
	"cookiewalk/internal/xrand"
)

// Figure4 is the §4.3 experiment: cookie behaviour of cookiewall sites
// vs. regular cookie-banner sites after accepting.
type Figure4 struct {
	Regular    []SiteCookies
	Cookiewall []SiteCookies

	RegularMedian    CookieTally
	CookiewallMedian CookieTally

	// Ratios are cookiewall/regular on the medians, the paper's "6.4
	// times more third-party and 42 times more tracking cookies".
	ThirdPartyRatio float64
	TrackingRatio   float64
}

// RunFigure4 measures the verified cookiewall sites against an
// equal-size random sample of regular-banner sites (with accept
// buttons), reps repetitions each, from the given vantage point.
func (c *Crawler) RunFigure4(ctx context.Context, l *Landscape, vp vantage.VP, reps int, seed uint64) (Figure4, error) {
	res, _ := l.Result(vp.Name)
	var wallDomains []string
	for _, o := range c.Verified(res.Cookiewalls) {
		wallDomains = append(wallDomains, o.Domain)
	}
	regular := sampleStrings(res.RegularAcceptDomains, len(wallDomains), seed)

	var f Figure4
	var err error
	if f.Regular, err = c.MeasureCookies(ctx, vp, LabelFig4Regular, regular, reps, ModeAccept, ""); err != nil {
		return f, err
	}
	if f.Cookiewall, err = c.MeasureCookies(ctx, vp, LabelFig4Cookiewall, wallDomains, reps, ModeAccept, ""); err != nil {
		return f, err
	}
	f.RegularMedian = medianTally(f.Regular)
	f.CookiewallMedian = medianTally(f.Cookiewall)
	f.ThirdPartyRatio = stats.Ratio(f.CookiewallMedian.ThirdParty, f.RegularMedian.ThirdParty)
	f.TrackingRatio = stats.Ratio(f.CookiewallMedian.Tracking, f.RegularMedian.Tracking)
	return f, nil
}

// sampleStrings draws n distinct elements deterministically.
func sampleStrings(pool []string, n int, seed uint64) []string {
	if n >= len(pool) {
		out := make([]string, len(pool))
		copy(out, pool)
		return out
	}
	rng := xrand.New(xrand.SubSeed(seed, "sample"))
	perm := rng.Perm(len(pool))
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = pool[perm[i]]
	}
	sort.Strings(out)
	return out
}

func medianTally(sc []SiteCookies) CookieTally {
	var fp, tp, tr []float64
	for _, s := range sc {
		if s.Err != "" {
			continue
		}
		fp = append(fp, s.Tally.FirstParty)
		tp = append(tp, s.Tally.ThirdParty)
		tr = append(tr, s.Tally.Tracking)
	}
	return CookieTally{
		FirstParty: stats.Median(fp),
		ThirdParty: stats.Median(tp),
		Tracking:   stats.Median(tr),
	}
}

// Figure5 is the §4.4 experiment: accepting vs. subscribing on every
// partner site of an SMP.
type Figure5 struct {
	Platform     string
	Partners     int
	Accept       []SiteCookies
	Subscription []SiteCookies

	AcceptMedian       CookieTally
	SubscriptionMedian CookieTally
	// MaxTrackingAccept is the worst per-site average — the paper notes
	// "some websites send more than 100 tracking cookies".
	MaxTrackingAccept float64
}

// RunFigure5 buys a subscription at the platform's portal (over HTTP,
// like the paper's §4.4 account purchase), then measures every partner
// site in both modes.
func (c *Crawler) RunFigure5(ctx context.Context, vp vantage.VP, platform string, reps int) (Figure5, error) {
	token, err := c.BuySubscription(platform, "crawler@measurement.example")
	if err != nil {
		return Figure5{}, err
	}
	partners := c.Reg.SMP.Partners(platform)
	f := Figure5{
		Platform: platform,
		Partners: len(partners),
	}
	// Labels carry the platform: a study measuring several SMPs runs
	// one campaign (and one checkpoint journal) per platform and mode.
	acceptLabel, subscribeLabel := Fig5Labels(platform)
	if f.Accept, err = c.MeasureCookies(ctx, vp, acceptLabel, partners, reps, ModeAccept, ""); err != nil {
		return f, err
	}
	if f.Subscription, err = c.MeasureCookies(ctx, vp, subscribeLabel, partners, reps, ModeSubscribe, token); err != nil {
		return f, err
	}
	f.AcceptMedian = medianTally(f.Accept)
	f.SubscriptionMedian = medianTally(f.Subscription)
	for _, s := range f.Accept {
		if s.Err == "" && s.Tally.Tracking > f.MaxTrackingAccept {
			f.MaxTrackingAccept = s.Tally.Tracking
		}
	}
	return f, nil
}

// SMPPlatform summarizes one subscription-management platform (§4.4):
// its partner count and how many partners are on the measurement
// target list.
type SMPPlatform struct {
	Platform  string
	Partners  int
	InTargets int
}

// SMPSummary computes the §4.4 partner-coverage artefact for each
// platform from the registry — pure bookkeeping, no crawling.
func (c *Crawler) SMPSummary(platforms []string) []SMPPlatform {
	targets := map[string]bool{}
	for _, d := range c.Reg.TargetList() {
		targets[d] = true
	}
	out := make([]SMPPlatform, 0, len(platforms))
	for _, platform := range platforms {
		partners := c.Reg.SMP.Partners(platform)
		p := SMPPlatform{Platform: platform, Partners: len(partners)}
		for _, d := range partners {
			if targets[d] {
				p.InTargets++
			}
		}
		out = append(out, p)
	}
	return out
}

// BuySubscription POSTs to the SMP portal's subscribe endpoint and
// returns the account token.
func (c *Crawler) BuySubscription(platform, email string) (string, error) {
	portal := "https://" + platform + ".example/subscribe"
	form := url.Values{"email": {email}}
	req, err := http.NewRequest(http.MethodPost, portal, strings.NewReader(form.Encode()))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	resp, err := c.Transport.RoundTrip(req)
	if err != nil {
		return "", fmt.Errorf("measure: subscribe at %s: %w", portal, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("measure: subscribe returned %d: %s", resp.StatusCode, body)
	}
	return string(body), nil
}

// Bypass is the §4.5 ad-blocker experiment result.
type Bypass struct {
	Total int
	// FullyBlocked sites showed no cookiewall in ANY repetition.
	FullyBlocked int
	BlockRate    float64
	// StillShowing lists domains whose cookiewall survived.
	StillShowing []string
	// AntiAdblockSites ask the user to disable the blocker; ScrollLock
	// sites lock scrolling — the two §4.5 quirk sites.
	AntiAdblockSites []string
	ScrollLockSites  []string
}

// bypassOutcome is one domain's across-repetitions §4.5 verdict — the
// exact value the bypass sink aggregates, and therefore the exact
// value its checkpoint journal records (journaling a synthesized
// Observation instead would re-seed the analysis memo with a falsified
// Kind on replay).
type bypassOutcome struct {
	Domain string
	// Wall reports that the cookiewall survived the blocker in at least
	// one repetition.
	Wall         bool
	AdblockPlea  bool
	ScrollLocked bool
}

// RunBypass visits each cookiewall domain reps times with the blocker
// enabled and counts walls that disappear across all repetitions,
// streaming each domain's verdict into the tally. The error is non-nil
// only when ctx is canceled mid-campaign (or on a checkpoint journal
// failure).
func (c *Crawler) RunBypass(ctx context.Context, vp vantage.VP, wallDomains []string, reps int, engine *adblock.Engine) (Bypass, error) {
	b := Bypass{Total: len(wallDomains)}
	_, err := runExperimentCampaign(ctx, c, LabelBypass, bypassCodec(), wallDomains,
		func(ctx context.Context, domain string) (bypassOutcome, error) {
			out := bypassOutcome{Domain: domain}
			for rep := 0; rep < reps; rep++ {
				o := c.Visit(ctx, vp, domain, VisitOpts{
					Visit:   fmt.Sprintf("%s|ub%d", vp.Name, rep),
					Blocker: engine,
				})
				if o.Err == "" && o.Kind == core.KindCookiewall {
					out.Wall = true
				}
				out.AdblockPlea = o.AdblockPlea
				out.ScrollLocked = o.ScrollLocked
			}
			return out, nil
		},
		func(r campaign.Result[bypassOutcome]) {
			o := r.Value
			if !o.Wall {
				b.FullyBlocked++
			} else {
				b.StillShowing = append(b.StillShowing, o.Domain)
			}
			if o.AdblockPlea {
				b.AntiAdblockSites = append(b.AntiAdblockSites, o.Domain)
			}
			if o.ScrollLocked {
				b.ScrollLockSites = append(b.ScrollLockSites, o.Domain)
			}
		})
	if err != nil {
		return b, err
	}
	if b.Total > 0 {
		b.BlockRate = float64(b.FullyBlocked) / float64(b.Total)
	}
	sort.Strings(b.StillShowing)
	return b, nil
}

// PriceStats bundles the §4.2 pricing analysis (Figure 2) computed
// from MEASURED banner prices.
type PriceStats struct {
	// Prices are the normalized monthly EUR prices of sites where a
	// price was detected.
	Prices []float64
	// PerTLDBuckets maps TLD -> bucket -> count (the Figure 2 heatmap).
	PerTLDBuckets map[string]map[int]int
	// ECDF of prices (the Figure 2 red line).
	ECDF *stats.ECDF
	// ShareAtMost3 and ShareAtMost4 anchor the paper's "~80% <= 3 EUR"
	// and "~90% <= 4 EUR".
	ShareAtMost3 float64
	ShareAtMost4 float64
}

// Prices computes Figure 2 from verified cookiewall observations.
func Prices(obs []Observation) PriceStats {
	ps := PriceStats{PerTLDBuckets: map[string]map[int]int{}}
	for _, o := range obs {
		if o.MonthlyEUR <= 0 {
			continue
		}
		ps.Prices = append(ps.Prices, o.MonthlyEUR)
		tld := o.TLD()
		if ps.PerTLDBuckets[tld] == nil {
			ps.PerTLDBuckets[tld] = map[int]int{}
		}
		ps.PerTLDBuckets[tld][currency.Bucket(o.MonthlyEUR)]++
	}
	ps.ECDF = stats.NewECDF(ps.Prices)
	ps.ShareAtMost3 = ps.ECDF.At(3.005)
	ps.ShareAtMost4 = ps.ECDF.At(4.005)
	return ps
}

// CategoryShares computes Figure 1: the share of verified cookiewall
// sites per measured category, in display order.
func CategoryShares(obs []Observation, categories []string) map[string]float64 {
	counts := map[string]int{}
	for _, o := range obs {
		counts[o.Category]++
	}
	out := map[string]float64{}
	if len(obs) == 0 {
		return out
	}
	for _, cat := range categories {
		out[cat] = float64(counts[cat]) / float64(len(obs))
	}
	return out
}

// CategoryPrices groups measured monthly prices by category (Figure 3).
func CategoryPrices(obs []Observation) map[string][]float64 {
	out := map[string][]float64{}
	for _, o := range obs {
		if o.MonthlyEUR > 0 {
			out[o.Category] = append(out[o.Category], o.MonthlyEUR)
		}
	}
	return out
}

// Correlation bundles the Figure 6 result with its rank-correlation
// robustness check.
type Correlation struct {
	N        int
	Pearson  float64
	Spearman float64
}

// TrackingPriceCorrelation computes Figure 6: correlation of per-site
// average tracking cookies (accept mode) against subscription price.
// It joins the Figure-4 cookiewall tallies with price observations by
// domain.
func TrackingPriceCorrelation(walls []Observation, tallies []SiteCookies) (Correlation, []float64, []float64) {
	price := map[string]float64{}
	for _, o := range walls {
		if o.MonthlyEUR > 0 {
			price[o.Domain] = o.MonthlyEUR
		}
	}
	var xs, ys []float64
	for _, t := range tallies {
		if t.Err != "" {
			continue
		}
		p, ok := price[t.Domain]
		if !ok {
			continue
		}
		xs = append(xs, t.Tally.Tracking)
		ys = append(ys, p)
	}
	return Correlation{
		N:        len(xs),
		Pearson:  stats.Pearson(xs, ys),
		Spearman: stats.Spearman(xs, ys),
	}, xs, ys
}

// BannerRates is the per-VP consent-UI rate, the §4.1 cross-reference
// to the BannerClick paper's finding that banners are more prevalent
// when visiting from the EU.
type BannerRates struct {
	VP         string
	EU         bool
	BannerRate float64 // (regular + cookiewall) / visited OK
}

// RatesPerVP derives banner rates from a landscape crawl.
func RatesPerVP(l *Landscape) []BannerRates {
	var out []BannerRates
	for _, vp := range vantage.All() {
		res, ok := l.Result(vp.Name)
		if !ok {
			continue
		}
		okVisits := res.Visited - res.Errors
		var rate float64
		if okVisits > 0 {
			rate = float64(res.Regular+len(res.Cookiewalls)) / float64(okVisits)
		}
		out = append(out, BannerRates{VP: vp.Name, EU: vp.IsEU(), BannerRate: rate})
	}
	return out
}
