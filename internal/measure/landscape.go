package measure

import (
	"context"
	"sort"
	"sync"

	"cookiewalk/internal/campaign"
	"cookiewalk/internal/core"
	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/vantage"
	"cookiewalk/internal/xrand"
)

// VPResult aggregates one vantage point's crawl over the target list.
type VPResult struct {
	VP       string
	Visited  int
	Errors   int
	NoBanner int
	Regular  int
	// Cookiewalls are the RAW cookiewall-classified detections
	// (including eventual false positives; the accuracy audit separates
	// them).
	Cookiewalls []Observation
	// RegularAcceptDomains is the sampling pool for Figure 4: sites
	// showing a regular banner with an accept button.
	RegularAcceptDomains []string
	// Stats is the campaign engine's per-shard account of this VP's
	// crawl (visit, error and cancellation counters).
	Stats campaign.Stats
}

// Landscape is the full §4.1 crawl: every vantage point over every
// target domain.
type Landscape struct {
	Targets int
	PerVP   []VPResult

	// indexOnce guards the derived lookup structures below, built
	// lazily on first use (and eagerly by Landscape crawls). Table1,
	// Accuracy and Prevalence all resolve VPs and the detection union
	// repeatedly; precomputing turns those per-call scans over every
	// VP's Cookiewalls into map lookups. Populate PerVP fully before
	// the first Result/UnionDetections call.
	indexOnce sync.Once
	byVP      map[string]int
	union     []string
}

// buildIndex derives the VP index and the sorted distinct cookiewall
// union exactly as the former per-call scans did.
func (l *Landscape) buildIndex() {
	l.byVP = make(map[string]int, len(l.PerVP))
	seen := make(map[string]bool)
	for i, r := range l.PerVP {
		if _, dup := l.byVP[r.VP]; !dup {
			l.byVP[r.VP] = i
		}
		for _, o := range r.Cookiewalls {
			if !seen[o.Domain] {
				seen[o.Domain] = true
				l.union = append(l.union, o.Domain)
			}
		}
	}
	sort.Strings(l.union)
}

// Landscape crawls all targets from each vantage point, streaming every
// observation into the per-VP tallies as it arrives — no full
// observation list is ever materialized. The error is non-nil only when
// ctx is canceled mid-campaign (or, for checkpointed crawls, on a
// journal failure); the partial landscape crawled so far (completed VPs
// plus the canceled VP's ledger) is returned with it.
//
// With Crawler.CheckpointDir set, each vantage point's campaign
// journals its observations durably; with Crawler.Resume additionally
// set, journals from a previous (killed) Landscape call replay instead
// of re-crawling, and only the missing visits run — the resulting
// Landscape is byte-identical to an uninterrupted crawl's.
func (c *Crawler) Landscape(ctx context.Context, vps []vantage.VP, targets []string) (*Landscape, error) {
	l := &Landscape{Targets: len(targets)}
	for _, vp := range vps {
		res := VPResult{VP: vp.Name}
		stats, err := runExperimentCampaign(ctx, c, landscapeLabel(vp), ObservationCodec{Reg: c.Reg}, targets,
			c.observe(vp, VisitOpts{}),
			func(r campaign.Result[Observation]) {
				o := r.Value
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
			})
		res.Stats = stats
		// Streaming delivery is input-ordered, so these are already
		// sorted for sorted target lists; sort anyway for arbitrary ones.
		sort.Slice(res.Cookiewalls, func(i, j int) bool {
			return res.Cookiewalls[i].Domain < res.Cookiewalls[j].Domain
		})
		sort.Strings(res.RegularAcceptDomains)
		l.PerVP = append(l.PerVP, res)
		if err != nil {
			// Hand back the partial landscape alongside the error: the
			// completed VPs and the canceled campaign's shard ledger are
			// exactly what a caller wants to inspect after an abort.
			l.indexOnce.Do(l.buildIndex)
			return l, err
		}
	}
	// Build the lookup index eagerly now that PerVP is complete; every
	// downstream table and rate computation starts with Result or
	// UnionDetections.
	l.indexOnce.Do(l.buildIndex)
	return l, nil
}

// Result returns the VPResult for a vantage point name.
func (l *Landscape) Result(vpName string) (VPResult, bool) {
	l.indexOnce.Do(l.buildIndex)
	i, ok := l.byVP[vpName]
	if !ok {
		return VPResult{}, false
	}
	return l.PerVP[i], true
}

// Verified filters a VP's raw detections with the ground-truth audit
// (the paper's manual verification step) and returns true positives.
func (c *Crawler) Verified(obs []Observation) []Observation {
	var out []Observation
	for _, o := range obs {
		if s, ok := c.Reg.Site(o.Domain); ok && s.Banner == synthweb.BannerCookiewall {
			out = append(out, o)
		}
	}
	return out
}

// UnionDetections returns the distinct domains classified as
// cookiewalls from ANY vantage point (the paper's 285 candidates),
// sorted. The union is precomputed once per landscape; each call hands
// back a fresh copy (a few hundred entries), preserving the
// caller-owns-result contract.
func (l *Landscape) UnionDetections() []string {
	l.indexOnce.Do(l.buildIndex)
	return append([]string(nil), l.union...)
}

// Table1Row is one row of the paper's Table 1.
type Table1Row struct {
	VP string
	// Cookiewalls is the number of verified cookiewall sites detected
	// from this VP.
	Cookiewalls int
	// Toplist: of those, how many are on the VP country's toplist.
	Toplist int
	// CcTLD: how many are hosted on the VP country's ccTLD.
	CcTLD int
	// Language: how many are in the VP country's main language
	// (measured by language detection, not ground truth).
	Language int
}

// Table1 computes the paper's Table 1 from a landscape crawl: per VP,
// verified cookiewall detections broken down by country toplist
// membership, country ccTLD and country language.
func (c *Crawler) Table1(l *Landscape) []Table1Row {
	var rows []Table1Row
	for _, vp := range vantage.All() {
		res, ok := l.Result(vp.Name)
		if !ok {
			continue
		}
		verified := c.Verified(res.Cookiewalls)
		row := Table1Row{VP: vp.Name, Cookiewalls: len(verified)}
		for _, o := range verified {
			if s, ok := c.Reg.Site(o.Domain); ok {
				if _, on := s.OnList(vp.Country); on {
					row.Toplist++
				}
			}
			if o.TLD() == vp.TLD {
				row.CcTLD++
			}
			if o.Language == vp.MainLanguage {
				row.Language++
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// Accuracy holds the §3 detection-accuracy evaluation.
type Accuracy struct {
	// Full audit over every detection from any VP.
	Detected       int
	TruePositives  int
	FalsePositives int
	Precision      float64

	// Random-sample audit (the paper uses 1000 domains).
	SampleSize        int
	SampleCookiewalls int // ground-truth cookiewalls in the sample
	SampleDetected    int // detected (from any VP) among those
	SampleFalse       int // detections in the sample that are FPs
	SampleRecall      float64
	SamplePrecision   float64
}

// Accuracy audits detections against ground truth — the stand-in for
// the paper's manual screenshot verification.
func (c *Crawler) Accuracy(l *Landscape, sampleSize int, seed uint64) Accuracy {
	a := Accuracy{}
	union := l.UnionDetections()
	a.Detected = len(union)
	detectedSet := map[string]bool{}
	for _, d := range union {
		detectedSet[d] = true
		if s, ok := c.Reg.Site(d); ok && s.Banner == synthweb.BannerCookiewall {
			a.TruePositives++
		} else {
			a.FalsePositives++
		}
	}
	if a.Detected > 0 {
		a.Precision = float64(a.TruePositives) / float64(a.Detected)
	}

	// Random sample of the target list.
	targets := c.Reg.TargetList()
	if sampleSize > len(targets) {
		sampleSize = len(targets)
	}
	rng := xrand.New(xrand.SubSeed(seed, "accuracy-sample"))
	perm := rng.Perm(len(targets))
	a.SampleSize = sampleSize
	for _, idx := range perm[:sampleSize] {
		domain := targets[idx]
		s, _ := c.Reg.Site(domain)
		isWall := s != nil && s.Banner == synthweb.BannerCookiewall
		det := detectedSet[domain]
		if isWall {
			a.SampleCookiewalls++
			if det {
				a.SampleDetected++
			}
		} else if det {
			a.SampleFalse++
		}
	}
	if a.SampleCookiewalls > 0 {
		a.SampleRecall = float64(a.SampleDetected) / float64(a.SampleCookiewalls)
	} else {
		a.SampleRecall = 1
	}
	if a.SampleDetected+a.SampleFalse > 0 {
		a.SamplePrecision = float64(a.SampleDetected) / float64(a.SampleDetected+a.SampleFalse)
	} else {
		a.SamplePrecision = 1
	}
	return a
}

// CountryPrevalence is the §4.1 rate bundle for one country toplist.
type CountryPrevalence struct {
	Country          string
	ListSize         int
	Reachable        int
	Cookiewalls      int
	Rate             float64
	Top1kReachable   int
	Top1kCookiewalls int
	Top1kRate        float64
}

// Prevalence computes §4.1 rates: overall, per-country, and the
// top-1k vs top-10k comparison. Reachability comes from the crawl
// (errors = unreachable); cookiewall detection comes from the VP of
// the respective country (US East for the US list).
func (c *Crawler) Prevalence(l *Landscape) (overall float64, top1k float64, perCountry []CountryPrevalence) {
	var totalWalls int
	unionWalls := map[string]bool{}
	for _, d := range l.UnionDetections() {
		if s, ok := c.Reg.Site(d); ok && s.Banner == synthweb.BannerCookiewall {
			unionWalls[d] = true
		}
	}
	totalWalls = len(unionWalls)
	if l.Targets > 0 {
		overall = float64(totalWalls) / float64(l.Targets)
	}

	var agg1kWalls, agg1kReach int
	seen1k := map[string]bool{}
	for _, cc := range vantage.Countries() {
		vp, _ := vantage.ByCountry(cc)
		res, _ := l.Result(vp.Name)
		verified := map[string]bool{}
		for _, o := range c.Verified(res.Cookiewalls) {
			verified[o.Domain] = true
		}
		p := CountryPrevalence{Country: cc}
		for _, s := range c.Reg.Sites() {
			bucket, on := s.OnList(cc)
			if !on {
				continue
			}
			p.ListSize++
			if !s.Reachable {
				continue
			}
			p.Reachable++
			wall := verified[s.Domain]
			if wall {
				p.Cookiewalls++
			}
			if bucket == 1000 {
				p.Top1kReachable++
				if !seen1k[s.Domain] {
					seen1k[s.Domain] = true
					agg1kReach++
					if unionWalls[s.Domain] {
						agg1kWalls++
					}
				}
				if wall {
					p.Top1kCookiewalls++
				}
			}
		}
		if p.Reachable > 0 {
			p.Rate = float64(p.Cookiewalls) / float64(p.Reachable)
		}
		if p.Top1kReachable > 0 {
			p.Top1kRate = float64(p.Top1kCookiewalls) / float64(p.Top1kReachable)
		}
		perCountry = append(perCountry, p)
	}
	if agg1kReach > 0 {
		top1k = float64(agg1kWalls) / float64(agg1kReach)
	}
	return overall, top1k, perCountry
}
