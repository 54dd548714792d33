package measure

import (
	"cookiewalk/internal/stats"
	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/vantage"
)

// Round summaries: the per-round aggregate bundle the continuous-
// measurement service (internal/trend, cmd/trendd) appends to its
// time-indexed store after every round's crawl. Every round crawls the
// same static world, so its summary equals the previous round's unless
// the world changed. One RoundSummary distills
// a full landscape crawl plus the verified Germany observations into
// the trends the paper tracks — prevalence, paywall share, price
// statistics, per-VP splits — small enough to persist per round and
// serve precomputed.
//
// Determinism: a RoundSummary is a pure function of the landscape and
// observation inputs. It deliberately contains no maps (JSON encoding
// of maps is order-stable in Go, but slices keep the intent obvious),
// no timestamps and no memo/cache counters — anything that could vary
// between a resumed and an uninterrupted round stays out, so the
// summary bytes are identical however the round's crawl was scheduled,
// sharded, interrupted or replayed.

// VPTrendSplit is one vantage point's slice of a round summary.
type VPTrendSplit struct {
	VP      string `json:"vp"`
	EU      bool   `json:"eu"`
	Visited int    `json:"visited"`
	Errors  int    `json:"errors"`
	// NoBanner/Regular/Cookiewalls partition the successful visits.
	// Cookiewalls counts VERIFIED detections from this VP (the audit
	// the paper applies before reporting).
	NoBanner    int `json:"no_banner"`
	Regular     int `json:"regular"`
	Cookiewalls int `json:"cookiewalls"`
	// BannerRate is (regular + raw cookiewall detections) / successful
	// visits — the §4.2 per-VP banner rate.
	BannerRate float64 `json:"banner_rate"`
}

// RoundSummary is one round's aggregate bundle.
type RoundSummary struct {
	// Targets is the universe size; Cookiewalls the verified cookiewall
	// domains detected from ANY vantage point (the prevalence
	// numerator).
	Targets     int `json:"targets"`
	Cookiewalls int `json:"cookiewalls"`
	// Prevalence and Top1kPrevalence are the §4.1 rates.
	Prevalence      float64 `json:"prevalence"`
	Top1kPrevalence float64 `json:"top1k_prevalence"`
	// PaywallShare is verified cookiewalls / banner-showing sites as
	// seen from Germany — the share of consent UIs that are
	// accept-or-pay.
	PaywallShare float64 `json:"paywall_share"`
	// Price statistics over the verified Germany observations that
	// carry a subscription price (Figure 2's population).
	PriceCount        int     `json:"price_count"`
	PriceMin          float64 `json:"price_min"`
	PriceMedian       float64 `json:"price_median"`
	PriceMean         float64 `json:"price_mean"`
	PriceMax          float64 `json:"price_max"`
	PriceShareAtMost3 float64 `json:"price_share_at_most_3"`
	// PerVP lists every vantage point's split in vantage.All order.
	PerVP []VPTrendSplit `json:"per_vp"`
}

// SummarizeRound condenses a landscape crawl and the verified Germany
// observations into the round aggregates trendd stores and serves.
func (c *Crawler) SummarizeRound(l *Landscape, german []Observation) RoundSummary {
	overall, top1k, _ := c.Prevalence(l)
	sum := RoundSummary{
		Targets:         l.Targets,
		Prevalence:      overall,
		Top1kPrevalence: top1k,
	}
	for _, d := range l.UnionDetections() {
		if s, ok := c.Reg.Site(d); ok && s.Banner == synthweb.BannerCookiewall {
			sum.Cookiewalls++
		}
	}
	if de, ok := l.Result("Germany"); ok {
		walls := len(c.Verified(de.Cookiewalls))
		if banners := de.Regular + walls; banners > 0 {
			sum.PaywallShare = float64(walls) / float64(banners)
		}
	}
	ps := Prices(german)
	sum.PriceCount = len(ps.Prices)
	if sum.PriceCount > 0 {
		sum.PriceMin = stats.Quantile(ps.Prices, 0)
		sum.PriceMedian = stats.Median(ps.Prices)
		sum.PriceMean = stats.Mean(ps.Prices)
		sum.PriceMax = stats.Quantile(ps.Prices, 1)
		sum.PriceShareAtMost3 = ps.ShareAtMost3
	}
	rates := RatesPerVP(l)
	rateByVP := make(map[string]float64, len(rates))
	for _, r := range rates {
		rateByVP[r.VP] = r.BannerRate
	}
	for _, vp := range vantage.All() {
		res, ok := l.Result(vp.Name)
		if !ok {
			continue
		}
		sum.PerVP = append(sum.PerVP, VPTrendSplit{
			VP:          vp.Name,
			EU:          vp.IsEU(),
			Visited:     res.Visited,
			Errors:      res.Errors,
			NoBanner:    res.NoBanner,
			Regular:     res.Regular,
			Cookiewalls: len(c.Verified(res.Cookiewalls)),
			BannerRate:  rateByVP[vp.Name],
		})
	}
	return sum
}

// AnalysisMemoCounters snapshots the process-wide analysis memo: hits
// counts visits whose page analysis was served from the memo, misses
// counts fresh analyses. Both are monotonic; the trend runner subtracts
// snapshots taken around a round to report how much of the round's
// crawl the memo absorbed (a page seen before costs a hit, not a
// re-analysis; the world is static, so after the first round every
// page has been seen).
func AnalysisMemoCounters() (hits, misses uint64) {
	return analyses.hits.Load(), analyses.misses.Load()
}
