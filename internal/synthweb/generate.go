package synthweb

import (
	"fmt"
	"math"
	"sort"

	"cookiewalk/internal/currency"
	"cookiewalk/internal/smp"
	"cookiewalk/internal/vantage"
	"cookiewalk/internal/xrand"
)

// Config parameterizes registry generation.
type Config struct {
	// Seed drives all pseudo-randomness. The same seed always produces
	// the identical registry.
	Seed uint64
	// FillerScale scales the filler populations (non-cookiewall sites,
	// unreachable sites, toplist padding). 1.0 reproduces the paper's
	// absolute numbers (45 222 target domains); small values produce
	// fast test registries with intact cookiewall structure.
	FillerScale float64
}

// Registry is the generated synthetic web.
type Registry struct {
	cfg      Config
	sites    []*Site
	byDomain map[string]*Site
	// SMP is the subscription platform registry with all partners
	// registered (219 contentpass, 167 freechoice at scale 1).
	SMP *smp.Registry
	// targets is the sorted measurement target list: reachable sites
	// appearing on at least one country toplist (45 222 at scale 1).
	targets []string
}

// paper-constant population numbers (FillerScale == 1).
const (
	listSize          = 10000 // CrUX list length per country
	unreachablePerCC  = 1070  // unreachable entries per list
	globalTop1k       = 300   // sites on every list, top-1k bucket
	globalTop10k      = 2550  // sites on every list, 10k bucket
	pairSites         = 188   // sites shared by exactly two lists
	unreachableIn1k   = 59    // of the unreachable, how many in top 1k
	extraContentpass  = 143   // contentpass partners outside the lists
	extraFreechoice   = 105   // freechoice partners outside the lists
	targetListLen     = 45222 // paper's unique reachable target count
	cookiewallCount   = 280
	decoyCount        = 5
	germanCount       = 252 // German-language cookiewalls
	germanDEOnly      = 4   // German cookiewalls visible only from DE
	contentpassInList = 76
	freechoiceInList  = 62
)

// Generate builds the synthetic web for a configuration. It panics if
// an internal marginal self-check fails at FillerScale 1 — a broken
// generator must never silently produce a wrong universe.
func Generate(cfg Config) *Registry {
	if cfg.FillerScale <= 0 {
		cfg.FillerScale = 1
	}
	n := siteCountHint(cfg.FillerScale)
	r := &Registry{
		cfg:      cfg,
		sites:    make([]*Site, 0, n),
		byDomain: make(map[string]*Site, n),
		SMP:      smp.NewRegistry(),
	}
	rng := xrand.New(xrand.SubSeed(cfg.Seed, "synthweb"))
	nf := newNameFactory(rng, n)

	cws := buildCookiewalls(rng, nf)
	for _, s := range cws {
		r.add(s)
	}
	for _, s := range buildDecoys(rng, nf) {
		r.add(s)
	}
	r.buildExtraPartners(rng, nf)
	r.buildFiller(rng, nf)
	r.registerPartners()
	r.buildTargetList()
	if cfg.FillerScale == 1 {
		r.selfCheck()
	}
	return r
}

// siteCountHint estimates how many sites Generate builds, to size its
// tables. Every toplist holds one entry per country for each global
// site, two for each paired site, and one for everything else on a
// list; the out-of-list SMP partners come on top. The estimate is
// exact when every list fills to its nominal size.
func siteCountHint(scale float64) int {
	nc := vantage.NumCountries
	global := scaleCount(globalTop1k, scale) + scaleCount(globalTop10k, scale)
	n := nc*scaleCount(listSize, scale) - (nc-1)*global - scaleCount(pairSites, scale) +
		extraContentpass + extraFreechoice
	return max(n, 0)
}

func (r *Registry) add(s *Site) {
	if _, dup := r.byDomain[s.Domain]; dup {
		panic("synthweb: duplicate domain " + s.Domain)
	}
	r.sites = append(r.sites, s)
	r.byDomain[s.Domain] = s
}

// Site returns the registered site for a domain.
func (r *Registry) Site(domain string) (*Site, bool) {
	s, ok := r.byDomain[domain]
	return s, ok
}

// Sites returns all sites (shared slice; do not mutate).
func (r *Registry) Sites() []*Site { return r.sites }

// TargetList returns the sorted measurement target domains.
func (r *Registry) TargetList() []string { return r.targets }

// CookiewallSites returns the ground-truth cookiewall sites in
// deterministic order.
func (r *Registry) CookiewallSites() []*Site {
	var out []*Site
	for _, s := range r.sites {
		if s.Banner == BannerCookiewall {
			out = append(out, s)
		}
	}
	return out
}

// Config returns the generation configuration.
func (r *Registry) Config() Config { return r.cfg }

// --- cookiewall construction ---------------------------------------------

// cwShell is a cookiewall site under construction.
type cwShell struct {
	lang     string
	tld      string
	listCC   string // toplist country code
	list1k   bool
	provider string
	bucket   int // price bucket target (1..10); SMP implied 3
	visIdx   int // index within its language group for visibility rules
}

// nonGermanShells enumerates the 28 non-German cookiewall sites with
// exact attributes. Order matters: en sites are indexed 0..10 for the
// per-VP visibility sets that produce Table 1's language column.
func nonGermanShells() []cwShell {
	return []cwShell{
		// Italian (6): all .it, DE toplist, cheap (Fig. 2: .it cheaper).
		{lang: "it", tld: "it", listCC: "DE", provider: "local", bucket: 1},
		{lang: "it", tld: "it", listCC: "DE", provider: "local", bucket: 1},
		{lang: "it", tld: "it", listCC: "DE", provider: "local", bucket: 1},
		{lang: "it", tld: "it", listCC: "DE", provider: "tinycmp", bucket: 2},
		{lang: "it", tld: "it", listCC: "DE", provider: "tinycmp", bucket: 2},
		{lang: "it", tld: "it", listCC: "DE", provider: "opencmp", bucket: 3},
		// French (3).
		{lang: "fr", tld: "fr", listCC: "DE", provider: "local", bucket: 3},
		{lang: "fr", tld: "fr", listCC: "DE", provider: "local", bucket: 4},
		{lang: "fr", tld: "com", listCC: "DE", provider: "nichewall", bucket: 3},
		// Spanish (2).
		{lang: "es", tld: "es", listCC: "DE", provider: "local", bucket: 2},
		{lang: "es", tld: "com", listCC: "DE", provider: "consentmango", bucket: 3},
		// Portuguese (2): first is the pt.climate-data.org analogue —
		// on the Brazilian toplist but shown only from DE/SE.
		{lang: "pt", tld: "org", listCC: "BR", provider: "local", bucket: 3},
		{lang: "pt", tld: "com", listCC: "DE", provider: "tinycmp", bucket: 3},
		// Dutch (2).
		{lang: "nl", tld: "net", listCC: "DE", provider: "opencmp", bucket: 2},
		{lang: "nl", tld: "com", listCC: "DE", provider: "local", bucket: 3},
		// Danish (2): on the Swedish toplist, priced in SEK.
		{lang: "da", tld: "net", listCC: "SE", provider: "local", bucket: 2},
		{lang: "da", tld: "com", listCC: "SE", provider: "cwkit", bucket: 3},
		// English (11): visIdx 0..4 on the Australian toplist, 5..7 on
		// the Swedish, 8..10 on the German.
		{lang: "en", tld: "com", listCC: "AU", provider: "opencmp", bucket: 3, visIdx: 0, list1k: true},
		{lang: "en", tld: "com", listCC: "AU", provider: "usercentrade", bucket: 3, visIdx: 1},
		{lang: "en", tld: "com", listCC: "AU", provider: "local", bucket: 2, visIdx: 2},
		{lang: "en", tld: "net", listCC: "AU", provider: "nichewall", bucket: 4, visIdx: 3},
		{lang: "en", tld: "net", listCC: "AU", provider: "cwkit", bucket: 2, visIdx: 4},
		{lang: "en", tld: "com", listCC: "SE", provider: "opencmp", bucket: 3, visIdx: 5},
		{lang: "en", tld: "com", listCC: "SE", provider: "local", bucket: 9, visIdx: 6},
		{lang: "en", tld: "net", listCC: "SE", provider: "usercentrade", bucket: 2, visIdx: 7},
		{lang: "en", tld: "com", listCC: "DE", provider: "nichewall", bucket: 9, visIdx: 8},
		{lang: "en", tld: "net", listCC: "DE", provider: "adfreepass", bucket: 2, visIdx: 9},
		{lang: "en", tld: "news", listCC: "DE", provider: "local", bucket: 1, visIdx: 10},
	}
}

// germanTLDDeck returns the 114 TLDs of non-SMP German cookiewalls.
func germanTLDDeck() []string {
	var deck []string
	addN := func(n int, tld string) {
		for i := 0; i < n; i++ {
			deck = append(deck, tld)
		}
	}
	addN(105, "de")
	addN(2, "at")
	addN(4, "net")
	addN(1, "com")
	addN(1, "org")
	addN(1, "info")
	return deck
}

// germanProviderDeck returns the 114 providers of non-SMP German sites.
func germanProviderDeck() []string {
	var deck []string
	addN := func(n int, p string) {
		for i := 0; i < n; i++ {
			deck = append(deck, p)
		}
	}
	addN(16, "opencmp")
	addN(19, "consentmango")
	addN(8, "usercentrade")
	addN(2, "cwkit")
	addN(2, "purabo")
	addN(1, "adfreepass")
	addN(9, "nichewall")
	addN(5, "tinycmp")
	addN(52, "local")
	return deck
}

// nonSMPBucketTable is the Figure-2 heatmap minus the SMP contribution
// (all SMP partners sit at 2.99 € = bucket 3): TLD -> bucket -> count.
var nonSMPBucketTable = map[string]map[int]int{
	"de":   {1: 4, 2: 24, 3: 27, 4: 23, 5: 22, 6: 1, 7: 1, 9: 3},
	"com":  {2: 1, 3: 8, 4: 1, 9: 2},
	"net":  {2: 8, 3: 1, 4: 1},
	"org":  {3: 2},
	"it":   {1: 3, 2: 2, 3: 1},
	"at":   {2: 1, 4: 1},
	"fr":   {3: 1, 4: 1},
	"es":   {2: 1},
	"info": {2: 1},
	"news": {1: 1},
}

// embeddingDeck returns the §3 embedding split: 132 iframes, 76 shadow
// DOMs (52 open + 24 closed), 72 main-DOM.
func embeddingDeck(rng *xrand.Rand) []Embedding {
	var deck []Embedding
	addN := func(n int, e Embedding) {
		for i := 0; i < n; i++ {
			deck = append(deck, e)
		}
	}
	addN(132, EmbedIFrame)
	addN(52, EmbedShadowOpen)
	addN(24, EmbedShadowClosed)
	addN(72, EmbedMainDOM)
	shuffleEmbeddings(rng.Fork("embed"), deck)
	return deck
}

func shuffleEmbeddings(rng *xrand.Rand, deck []Embedding) {
	for i := len(deck) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		deck[i], deck[j] = deck[j], deck[i]
	}
}

// categoryDeck returns 280 categories matching Figure 1.
func categoryDeck(rng *xrand.Rand) []string {
	counts := map[string]int{
		"News and Media": 76, "Business": 25, "Information Technology": 20,
		"Entertainment": 17, "Sports": 15, "Reference": 14,
		"Society and Lifestyles": 13, "Search Engines and Portals": 11,
		"Health and Wellness": 10, "Games": 8, "Web-based Email": 7,
		"Travel": 7, "Personal Vehicles": 6, "Restaurant and Dining": 5,
		"Finance and Banking": 5, "Others": 41,
	}
	var deck []string
	for _, cat := range Categories {
		for i := 0; i < counts[cat]; i++ {
			deck = append(deck, cat)
		}
	}
	rng.Fork("cats").ShuffleStrings(deck)
	return deck
}

// nonEUVisTargets is how many of the 248 non-DE-only German cookiewalls
// each non-EU vantage point sees, derived from Table 1 row totals.
var nonEUVisTargets = map[string]struct{ count, offset int }{
	"US East":      {173, 0},
	"US West":      {175, 31},
	"Brazil":       {172, 67},
	"South Africa": {175, 101},
	"India":        {167, 139},
	"Australia":    {165, 177},
}

// enVisibility gives per-VP visibility of the 11 English sites by
// visIdx, producing Table 1's language column (9/9/10/10 for the
// English-speaking VPs).
var enVisibility = map[string]func(i int) bool{
	"US East":      func(i int) bool { return i <= 8 },
	"US West":      func(i int) bool { return i <= 7 || i == 9 },
	"India":        func(i int) bool { return i <= 9 },
	"Australia":    func(i int) bool { return i <= 9 },
	"Brazil":       func(i int) bool { return i <= 8 },
	"South Africa": func(i int) bool { return i <= 8 },
}

func allVPNames() []string {
	var out []string
	for _, v := range vantage.All() {
		out = append(out, v.Name)
	}
	return out
}

func nonEUVPNames() []string {
	var out []string
	for _, v := range vantage.All() {
		if !v.IsEU() {
			out = append(out, v.Name)
		}
	}
	return out
}

// buildCookiewalls constructs the 280 cookiewall sites with exact
// marginals along every reported dimension.
func buildCookiewalls(rng *xrand.Rand, nf *nameFactory) []*Site {
	embeds := embeddingDeck(rng)
	cats := categoryDeck(rng)

	var shells []cwShell

	// SMP partners (all German, price 2.99): 76 contentpass, 62
	// freechoice. TLD split keeps the Fig. 2 heatmap consistent.
	smpTLDs := func(de, at, net, com, org int) []string {
		var out []string
		add := func(n int, t string) {
			for i := 0; i < n; i++ {
				out = append(out, t)
			}
		}
		add(de, "de")
		add(at, "at")
		add(net, "net")
		add(com, "com")
		add(org, "org")
		return out
	}
	for _, t := range smpTLDs(70, 2, 2, 1, 1) {
		shells = append(shells, cwShell{lang: "de", tld: t, listCC: "DE", provider: "contentpass", bucket: 3})
	}
	for _, t := range smpTLDs(58, 0, 2, 1, 1) {
		shells = append(shells, cwShell{lang: "de", tld: t, listCC: "DE", provider: "freechoice", bucket: 3})
	}

	// Non-SMP German sites: 104 on the German toplist, 10 on the
	// Swedish toplist (German-language sites popular in Sweden).
	tlds := germanTLDDeck()
	provs := germanProviderDeck()
	bucketRemaining := map[string]map[int]int{}
	for tld, buckets := range nonSMPBucketTable {
		bucketRemaining[tld] = map[int]int{}
		for b, n := range buckets {
			bucketRemaining[tld][b] = n
		}
	}
	takeBucket := func(tld string) int {
		rem := bucketRemaining[tld]
		for b := 1; b <= 10; b++ {
			if rem[b] > 0 {
				rem[b]--
				return b
			}
		}
		return 3 // exhausted (cannot happen when tables are consistent)
	}
	// Non-German shells consume their buckets from the same residual
	// table first so German sites take exactly the remainder.
	nonGerman := nonGermanShells()
	for _, sh := range nonGerman {
		rem := bucketRemaining[sh.tld]
		if rem == nil || rem[sh.bucket] <= 0 {
			panic(fmt.Sprintf("synthweb: bucket table inconsistent at %s/%d", sh.tld, sh.bucket))
		}
		rem[sh.bucket]--
	}
	for i := 0; i < 114; i++ {
		listCC := "DE"
		if i >= 104 {
			listCC = "SE"
		}
		shells = append(shells, cwShell{
			lang: "de", tld: tlds[i], listCC: listCC,
			provider: provs[i], bucket: takeBucket(tlds[i]),
		})
	}
	shells = append(shells, nonGerman...)

	if len(shells) != cookiewallCount {
		panic(fmt.Sprintf("synthweb: %d cookiewall shells", len(shells)))
	}

	// Top-1k membership: 80 on the German list (8.5% of reachable top
	// 1k), 2 on the Swedish, 1 on the Australian (set in shell spec).
	de1k, se1k := 80, 2
	for i := range shells {
		switch shells[i].listCC {
		case "DE":
			if de1k > 0 {
				shells[i].list1k = true
				de1k--
			}
		case "SE":
			if se1k > 0 && shells[i].lang == "de" {
				shells[i].list1k = true
				se1k--
			}
		}
	}

	// Materialize sites.
	var sites []*Site
	germanIdx := 0
	yearlyQuota := 10 // German sites displaying an annual price
	quirks := 2       // AntiAdblock / ScrollLock quirk sites (listed providers)
	for i, sh := range shells {
		prov, ok := ProviderByName(sh.provider)
		if !ok {
			panic("synthweb: unknown provider " + sh.provider)
		}
		s := &Site{
			Domain:    nf.next(sh.lang, sh.tld),
			TLD:       sh.tld,
			Language:  sh.lang,
			Category:  cats[i],
			Banner:    BannerCookiewall,
			Embedding: embeds[i],
			Provider:  prov,
			Reachable: true,
		}
		bucket := 1000
		if !sh.list1k {
			bucket = 10000
		}
		s.Lists.Set(sh.listCC, bucket)

		// Visibility policy.
		switch sh.lang {
		case "de":
			s.ShowToVPs = germanVisibility(germanIdx)
			germanIdx++
		case "en":
			s.ShowToVPs = englishVisibility(sh.visIdx)
		case "pt":
			s.ShowToVPs = euOnly
		default:
			s.ShowToVPs = nil // global
		}

		// Price.
		period := currency.PeriodMonth
		if sh.lang == "de" && !prov.SMP && yearlyQuota > 0 && sh.bucket >= 2 {
			period = currency.PeriodYear
			yearlyQuota--
		}
		assignPrice(s, sh, period)

		// Cookie profile.
		profRng := rng.Fork("profile|" + s.Domain)
		if prov.SMP {
			s.Cookies = smpCookieProfile(profRng)
		} else {
			s.Cookies = heavyCookieProfile(profRng)
		}

		// Quirk sites (§4.5): among blocked (listed) providers.
		if quirks > 0 && prov.Listed && !prov.SMP {
			if quirks == 2 {
				s.AntiAdblock = true
			} else {
				s.ScrollLock = true
			}
			quirks--
		}
		sites = append(sites, s)
	}
	return sites
}

// germanVisibility computes the VP set for the i-th German cookiewall:
// the first germanDEOnly sites are Germany-only; the rest are always
// visible from Germany and Sweden plus a rotated window of non-EU VPs
// sized to hit Table 1's row totals.
func germanVisibility(i int) []string {
	if i < germanDEOnly {
		return []string{"Germany"}
	}
	vps := []string{"Germany", "Sweden"}
	j := i - germanDEOnly
	n := germanCount - germanDEOnly
	for _, name := range nonEUVPNames() {
		t := nonEUVisTargets[name]
		if ((j-t.offset)%n+n)%n < t.count {
			vps = append(vps, name)
		}
	}
	return vps
}

// euOnly is the visibility set of EU-only banners. Sites share it, so
// it must never be modified.
var euOnly = []string{"Germany", "Sweden"}

func englishVisibility(i int) []string {
	vps := []string{"Germany", "Sweden"}
	for _, name := range nonEUVPNames() {
		if enVisibility[name](i) {
			vps = append(vps, name)
		}
	}
	return vps
}

// bucketPrices maps a price bucket to an interior representative price
// in EUR/month (never on an integer boundary, so currency round-trips
// stay inside the bucket).
var bucketPrices = map[int]float64{
	1: 0.99, 2: 1.99, 3: 2.99, 4: 3.99, 5: 4.99,
	6: 5.49, 7: 6.99, 8: 7.99, 9: 8.99, 10: 9.99,
}

// assignPrice sets the display price fields so that normalization
// reproduces the target bucket exactly.
func assignPrice(s *Site, sh cwShell, period currency.Period) {
	target := bucketPrices[sh.bucket]
	code := "EUR"
	switch {
	case sh.listCC == "SE" && sh.lang != "de":
		code = "SEK" // Swedish-market sites price in kronor
	case sh.listCC == "AU":
		code = "AUD"
	}
	rate := currency.EURRate(code)
	display := math.Round(target/rate*100) / 100
	if code != "EUR" {
		// Integer display amounts are idiomatic for SEK; adjust to stay
		// inside the bucket after conversion.
		display = math.Floor(target / rate)
		if display < 1 {
			display = 1
		}
		for display*rate > float64(sh.bucket) && display > 1 {
			display--
		}
		for display*rate <= float64(sh.bucket-1) {
			display++
		}
	}
	if period == currency.PeriodYear {
		display = math.Round(display*12*100) / 100
	}
	s.PriceAmount = display
	s.PriceCurrency = code
	s.PricePeriod = period
	monthly := display * rate
	if period == currency.PeriodYear {
		monthly /= 12
	}
	s.MonthlyEUR = monthly
	if got := currency.Bucket(monthly); got != sh.bucket {
		panic(fmt.Sprintf("synthweb: price %g %s lands in bucket %d, want %d",
			display, code, got, sh.bucket))
	}
}

// --- cookie profiles ------------------------------------------------------

func clampInt(v, lo int) int {
	if v < lo {
		return lo
	}
	return v
}

// regularCookieProfile draws a Figure-4 "regular banner" profile:
// median 15 first-party, ~5.8 benign third-party, ~1 tracking.
func regularCookieProfile(rng *xrand.Rand) CookieProfile {
	return CookieProfile{
		PreConsentFP: rng.IntRange(1, 3),
		PostFP:       clampInt(int(math.Round(rng.LogNormal(math.Log(15), 0.45))), 1),
		PostBenignTP: clampInt(int(math.Round(rng.LogNormal(math.Log(5.8), 0.6))), 0),
		PostTracking: clampInt(int(math.Round(rng.LogNormal(math.Log(1.1), 0.9))), 0),
	}
}

// heavyCookieProfile draws a non-SMP cookiewall profile. Together with
// smpCookieProfile it yields the Figure-4 cookiewall medians
// (~19 FP / ~50 TP / ~43 tracking across the 280 sites).
func heavyCookieProfile(rng *xrand.Rand) CookieProfile {
	return CookieProfile{
		PreConsentFP: rng.IntRange(1, 4),
		PostFP:       clampInt(int(math.Round(rng.LogNormal(math.Log(19), 0.4))), 1),
		PostBenignTP: clampInt(int(math.Round(rng.LogNormal(math.Log(9), 0.5))), 0),
		PostTracking: clampInt(int(math.Round(rng.LogNormal(math.Log(110), 0.5))), 2),
	}
}

// smpCookieProfile draws an SMP partner profile matching Figure 5:
// accept → median 13 FP / 23.2 TP / 16 tracking; subscription →
// 6 FP / 4.4 TP / 0 tracking. A small fraction of partners are extreme
// trackers ("some websites send more than 100 tracking cookies when
// accessing these websites without a subscription", §4.4).
func smpCookieProfile(rng *xrand.Rand) CookieProfile {
	tracking := clampInt(int(math.Round(rng.LogNormal(math.Log(16), 0.45))), 1)
	if rng.Bool(0.03) {
		tracking = rng.IntRange(105, 170)
	}
	return CookieProfile{
		PreConsentFP: rng.IntRange(1, 3),
		PostFP:       clampInt(int(math.Round(rng.LogNormal(math.Log(13), 0.35))), 1),
		PostBenignTP: clampInt(int(math.Round(rng.LogNormal(math.Log(7.2), 0.45))), 0),
		PostTracking: tracking,
		SubFP:        clampInt(int(math.Round(rng.LogNormal(math.Log(6), 0.35))), 1),
		SubBenignTP:  clampInt(int(math.Round(rng.LogNormal(math.Log(4.4), 0.4))), 0),
	}
}

// --- decoys, partners, filler --------------------------------------------

// buildDecoys creates the five §3 false positives: regular banners (with
// a reject button) whose text advertises a priced newsletter.
func buildDecoys(rng *xrand.Rand, nf *nameFactory) []*Site {
	var out []*Site
	for i := 0; i < decoyCount; i++ {
		bucket := 10000
		if i < 2 {
			bucket = 1000
		}
		s := &Site{
			Domain:    nf.next("de", "de"),
			TLD:       "de",
			Language:  "de",
			Category:  "News and Media",
			Banner:    BannerRegular,
			Embedding: EmbedMainDOM,
			Provider:  mustProvider("local"),
			Reachable: true,
			Decoy:     true,
			Cookies:   regularCookieProfile(rng.Fork(fmt.Sprintf("decoy%d", i))),
		}
		s.Lists.Set("DE", bucket)
		out = append(out, s)
	}
	return out
}

func mustProvider(name string) Provider {
	p, ok := ProviderByName(name)
	if !ok {
		panic("synthweb: unknown provider " + name)
	}
	return p
}

// buildExtraPartners creates the SMP partner sites that are NOT on any
// toplist (contentpass: 219-76=143, freechoice: 167-62=105). They are
// crawled in the Figure-5 experiment only.
func (r *Registry) buildExtraPartners(rng *xrand.Rand, nf *nameFactory) {
	embedRng := rng.Fork("extra-embed")
	build := func(n int, provider string) {
		for i := 0; i < n; i++ {
			emb := EmbedIFrame
			switch embedRng.Intn(4) {
			case 0:
				emb = EmbedMainDOM
			case 1:
				emb = EmbedShadowOpen
			}
			s := &Site{
				Domain:    nf.next("de", "de"),
				TLD:       "de",
				Language:  "de",
				Category:  Categories[embedRng.Intn(len(Categories))],
				Banner:    BannerCookiewall,
				Embedding: emb,
				Provider:  mustProvider(provider),
				Reachable: true,
			}
			sh := cwShell{lang: "de", tld: "de", bucket: 3}
			assignPrice(s, sh, currency.PeriodMonth)
			s.Cookies = smpCookieProfile(rng.Fork("profile|" + s.Domain))
			r.add(s)
		}
	}
	// Out-of-list partners are cookiewall structure, not filler: they
	// never scale, so Figure 5 measures 219/167 partners at any scale.
	build(extraContentpass, "contentpass")
	build(extraFreechoice, "freechoice")
}

func scaleCount(n int, scale float64) int {
	if scale == 1 {
		return n
	}
	v := int(math.Round(float64(n) * scale))
	if v < 1 {
		v = 1
	}
	return v
}

// fillerLanguage picks a language for a filler site in a country.
var countryLanguage = map[string]string{
	"US": "en", "BR": "pt", "DE": "de", "SE": "sv",
	"ZA": "af", "IN": "en", "AU": "en",
}

var countryTLD = map[string]string{
	"US": "us", "BR": "br", "DE": "de", "SE": "se",
	"ZA": "za", "IN": "in", "AU": "au",
}

var genericTLDs = []string{"com", "net", "org", "info", "online", "site"}

// fillerChunk is how many filler Sites share one allocation.
const fillerChunk = 128

// buildFiller populates the country toplists with regular/no-banner
// sites, shared "global" sites, paired sites, and unreachable entries.
func (r *Registry) buildFiller(rng *xrand.Rand, nf *nameFactory) {
	scale := r.cfg.FillerScale
	countries := vantage.Countries()
	frng := rng.Fork("filler")

	var slab []Site
	newFiller := func(lang, tld string) *Site {
		// Filler sites are the bulk of the universe and live as long
		// as it does: carve them from chunks, one allocation per chunk.
		if len(slab) == 0 {
			slab = make([]Site, fillerChunk)
		}
		s := &slab[0]
		slab = slab[1:]
		*s = Site{
			Domain:    nf.next(lang, tld),
			TLD:       tld,
			Language:  lang,
			Category:  pickCategory(frng),
			Reachable: true,
		}
		if frng.Bool(0.62) {
			s.Banner = BannerRegular
			s.Embedding = EmbedMainDOM
			if frng.Bool(0.25) {
				s.Embedding = EmbedIFrame
			}
			if frng.Bool(0.30) {
				s.ShowToVPs = euOnly
			}
			// A small share of sites detect crawlers and hide their
			// banner (the §3 bot-detection limitation).
			s.BotSensitive = frng.Bool(0.02)
			s.Cookies = regularCookieProfile(frng.Fork("p|" + s.Domain))
		} else {
			s.Banner = BannerNone
			s.Cookies = CookieProfile{
				PreConsentFP: frng.IntRange(1, 4),
				PostFP:       frng.IntRange(2, 8),
			}
		}
		return s
	}

	// Global sites: on every country list.
	n1k := scaleCount(globalTop1k, scale)
	n10k := scaleCount(globalTop10k, scale)
	for i := 0; i < n1k+n10k; i++ {
		s := newFiller("en", genericTLDs[frng.Intn(3)])
		bucket := 10000
		if i < n1k {
			bucket = 1000
		}
		for _, cc := range countries {
			s.Lists.Set(cc, bucket)
		}
		r.add(s)
	}

	// Paired sites: shared by exactly two country lists, round-robin
	// over the 21 country pairs.
	var pairs [][2]string
	for i := 0; i < len(countries); i++ {
		for j := i + 1; j < len(countries); j++ {
			pairs = append(pairs, [2]string{countries[i], countries[j]})
		}
	}
	nPairs := scaleCount(pairSites, scale)
	for i := 0; i < nPairs; i++ {
		p := pairs[i%len(pairs)]
		lang := countryLanguage[p[0]]
		s := newFiller(lang, genericTLDs[frng.Intn(len(genericTLDs))])
		s.Lists.Set(p[0], 10000)
		s.Lists.Set(p[1], 10000)
		r.add(s)
	}

	// Per-country singles and unreachable entries: fill each list to
	// its nominal size.
	lSize := scaleCount(listSize, scale)
	nUnreach := scaleCount(unreachablePerCC, scale)
	nUnreach1k := scaleCount(unreachableIn1k, scale)
	for ci, cc := range countries {
		assigned1k, assignedTotal := 0, 0
		for _, s := range r.sites {
			if b := s.Lists.bucket[ci]; b != 0 {
				assignedTotal++
				if b == 1000 {
					assigned1k++
				}
			}
		}
		// Unreachable entries.
		for i := 0; i < nUnreach; i++ {
			s := newFiller(countryLanguage[cc], pickTLD(frng, cc))
			s.Reachable = false
			bucket := 10000
			if i < nUnreach1k {
				bucket = 1000
				assigned1k++
			}
			s.Lists.Set(cc, bucket)
			r.add(s)
			assignedTotal++
		}
		// Reachable singles, topping up the 1k bucket first.
		want1k := lSize / 10
		for assignedTotal < lSize {
			s := newFiller(fillerLang(frng, cc), pickTLD(frng, cc))
			bucket := 10000
			if assigned1k < want1k {
				bucket = 1000
				assigned1k++
			}
			s.Lists.Set(cc, bucket)
			r.add(s)
			assignedTotal++
		}
	}
}

func fillerLang(rng *xrand.Rand, cc string) string {
	if rng.Bool(0.8) {
		return countryLanguage[cc]
	}
	return "en"
}

func pickTLD(rng *xrand.Rand, cc string) string {
	if rng.Bool(0.55) {
		return countryTLD[cc]
	}
	return genericTLDs[rng.Intn(len(genericTLDs))]
}

// categoryWeights shape the filler category mix (News-heavy, long tail).
var categoryWeights = []float64{18, 10, 9, 8, 7, 6, 6, 5, 5, 4, 3, 4, 3, 3, 4, 5}

func pickCategory(rng *xrand.Rand) string {
	return Categories[rng.WeightedIndex(categoryWeights)]
}

// registerPartners records every SMP partner site in the smp.Registry.
func (r *Registry) registerPartners() {
	for _, s := range r.sites {
		if s.Provider.SMP {
			if err := r.SMP.RegisterPartner(s.Domain, s.Provider.Name); err != nil {
				panic(err)
			}
		}
	}
}

// buildTargetList computes the sorted measurement target list.
func (r *Registry) buildTargetList() {
	var t []string
	for _, s := range r.sites {
		if s.Reachable && s.Lists.Len() > 0 {
			t = append(t, s.Domain)
		}
	}
	sort.Strings(t)
	r.targets = t
}

// --- self checks ----------------------------------------------------------

// selfCheck validates the generated universe against the paper's
// marginals; it runs only at FillerScale 1.
func (r *Registry) selfCheck() {
	cws := r.CookiewallSites()
	inList := 0
	for _, s := range cws {
		if s.Lists.Len() > 0 {
			inList++
		}
	}
	check := func(name string, got, want int) {
		if got != want {
			panic(fmt.Sprintf("synthweb selfCheck: %s = %d, want %d", name, got, want))
		}
	}
	check("in-list cookiewalls", inList, cookiewallCount)
	check("target list length", len(r.targets), targetListLen)
	check("contentpass partners", r.SMP.PartnerCount("contentpass"), 219)
	check("freechoice partners", r.SMP.PartnerCount("freechoice"), 167)

	// Per-VP visibility totals (Table 1, column "Cookiewalls").
	wantVis := map[string]int{
		"US East": 197, "US West": 199, "Brazil": 196, "Germany": 280,
		"Sweden": 276, "South Africa": 199, "India": 192, "Australia": 190,
	}
	for _, vp := range vantage.All() {
		n := 0
		for _, s := range cws {
			if s.Lists.Len() > 0 && s.ShowsBannerTo(vp.Name) {
				n++
			}
		}
		check("visible from "+vp.Name, n, wantVis[vp.Name])
	}

	// TLD marginal (Figure 2 rows).
	wantTLD := map[string]int{"de": 233, "com": 14, "net": 14, "org": 4,
		"it": 6, "at": 4, "fr": 2, "es": 1, "info": 1, "news": 1}
	gotTLD := map[string]int{}
	for _, s := range cws {
		if s.Lists.Len() > 0 {
			gotTLD[s.TLD]++
		}
	}
	for tld, want := range wantTLD {
		check("tld "+tld, gotTLD[tld], want)
	}

	// Language marginal.
	wantLang := map[string]int{"de": 252, "en": 11, "it": 6, "fr": 3,
		"es": 2, "pt": 2, "nl": 2, "da": 2}
	gotLang := map[string]int{}
	for _, s := range cws {
		if s.Lists.Len() > 0 {
			gotLang[s.Language]++
		}
	}
	for lang, want := range wantLang {
		check("lang "+lang, gotLang[lang], want)
	}

	// Toplist marginal.
	wantList := map[string]int{"DE": 259, "SE": 15, "AU": 5, "BR": 1}
	gotList := map[string]int{}
	for _, s := range cws {
		for _, cc := range s.Lists.Countries() {
			gotList[cc]++
		}
	}
	for cc, want := range wantList {
		check("toplist "+cc, gotList[cc], want)
	}

	// Embedding marginal (§3).
	var shadow, iframe, main int
	for _, s := range cws {
		if s.Lists.Len() == 0 {
			continue
		}
		switch {
		case s.Embedding.InShadow():
			shadow++
		case s.Embedding == EmbedIFrame:
			iframe++
		default:
			main++
		}
	}
	check("shadow embeddings", shadow, 76)
	check("iframe embeddings", iframe, 132)
	check("main-DOM embeddings", main, 72)

	// Blockable share (§4.5): 196 of 280 use listed providers.
	listed := 0
	for _, s := range cws {
		if s.Lists.Len() > 0 && s.Provider.Listed {
			listed++
		}
	}
	check("listed providers", listed, 196)

	// Per-country list sizes.
	var listTotals [vantage.NumCountries]int
	for _, s := range r.sites {
		for ci, b := range s.Lists.bucket {
			if b != 0 {
				listTotals[ci]++
			}
		}
	}
	for ci, cc := range vantage.Countries() {
		check("list size "+cc, listTotals[ci], listSize)
	}
}
