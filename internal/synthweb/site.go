// Package synthweb generates the synthetic web that stands in for the
// live Internet: a deterministic registry of ~50k websites whose joint
// attribute distribution (toplist country, TLD, language, category,
// banner kind, cookiewall embedding, delivery provider, price, geo
// policy, cookie behaviour) reproduces the marginals the paper reports.
//
// Ground truth lives here and is used for two things only: page
// generation in package webfarm, and accuracy evaluation (§3's manual
// verification). The detector never reads it.
//
// Generator contract: the same Config gives the same universe, byte
// for byte — the same sites in the same order with the same
// attributes, the same target list and the same SMP partners. The
// order of the generator's RNG draws is part of that contract: an
// optimisation may change how a value is computed or stored, never
// which draws are made or in what order. TestUniversePin hashes the
// whole universe at two (seed, scale) points and fails on any change.
//
// A site's toplist membership is a Toplists value: one rank bucket per
// vantage-point country, indexed in vantage.Countries() order, so a
// site costs no map and a membership test is an array read.
package synthweb

import (
	"fmt"
	"math"
	"sort"

	"cookiewalk/internal/currency"
	"cookiewalk/internal/vantage"
)

// BannerKind is the ground-truth banner class of a site.
type BannerKind int

const (
	// BannerNone means the site shows no consent UI.
	BannerNone BannerKind = iota
	// BannerRegular is a standard accept/reject cookie banner.
	BannerRegular
	// BannerCookiewall is an accept-or-pay banner without reject.
	BannerCookiewall
)

// String implements fmt.Stringer.
func (k BannerKind) String() string {
	switch k {
	case BannerRegular:
		return "regular"
	case BannerCookiewall:
		return "cookiewall"
	}
	return "none"
}

// Embedding is how the banner is placed in the page (§3: of 280
// cookiewalls, 76 use a shadow DOM, 132 iframes, 72 the main DOM).
type Embedding int

const (
	// EmbedNone for sites without banners.
	EmbedNone Embedding = iota
	// EmbedMainDOM places banner markup directly in the document.
	EmbedMainDOM
	// EmbedIFrame loads the banner document from the provider origin.
	EmbedIFrame
	// EmbedShadowOpen uses an open declarative shadow root.
	EmbedShadowOpen
	// EmbedShadowClosed uses a closed declarative shadow root.
	EmbedShadowClosed
)

// String implements fmt.Stringer.
func (e Embedding) String() string {
	switch e {
	case EmbedMainDOM:
		return "main-dom"
	case EmbedIFrame:
		return "iframe"
	case EmbedShadowOpen:
		return "shadow-open"
	case EmbedShadowClosed:
		return "shadow-closed"
	}
	return "none"
}

// InShadow reports whether the embedding uses a shadow root.
func (e Embedding) InShadow() bool {
	return e == EmbedShadowOpen || e == EmbedShadowClosed
}

// Provider identifies who delivers the banner markup. Providers with a
// Host deliver from a third-party origin (blockable by filter lists);
// the "local" provider serves everything first-party.
type Provider struct {
	// Name: "contentpass", "freechoice", "opencmp", "consentmango",
	// "usercentrade", "cwkit", "purabo", "adfreepass", "nichewall",
	// "tinycmp", or "local".
	Name string
	// Host is the third-party delivery host ("" for local delivery).
	Host string
	// Listed marks providers covered by the Annoyances filter list.
	Listed bool
	// SMP marks Subscription Management Platforms.
	SMP bool
}

// ScriptURL returns the loader URL partner pages reference, or "" for
// local delivery.
func (p Provider) ScriptURL() string {
	if p.Host == "" {
		return ""
	}
	return "https://" + p.Host + "/cw.js"
}

// Providers in deterministic order. The Listed flags must stay in sync
// with adblock.AnnoyancesList.
var providerTable = []Provider{
	{Name: "contentpass", Host: "cdn.contentpass.example", Listed: true, SMP: true},
	{Name: "freechoice", Host: "cdn.freechoice.example", Listed: true, SMP: true},
	{Name: "opencmp", Host: "cdn.opencmp.example", Listed: true},
	{Name: "consentmango", Host: "cmp.consentmango.example", Listed: true},
	{Name: "usercentrade", Host: "app.usercentrade.example", Listed: true},
	{Name: "cwkit", Host: "cwkit.example", Listed: true},
	{Name: "purabo", Host: "purabo.example", Listed: true},
	{Name: "adfreepass", Host: "adfreepass.example", Listed: true},
	{Name: "nichewall", Host: "nichewall.example", Listed: false},
	{Name: "tinycmp", Host: "tinycmp.example", Listed: false},
	{Name: "local", Host: "", Listed: false},
}

// ProviderByName returns the named provider definition.
func ProviderByName(name string) (Provider, bool) {
	for _, p := range providerTable {
		if p.Name == name {
			return p, true
		}
	}
	return Provider{}, false
}

// CookieProfile is a site's per-visit cookie-count baseline. Actual
// counts per visit get deterministic per-repetition jitter.
type CookieProfile struct {
	// PreConsentFP first-party cookies before any interaction.
	PreConsentFP int
	// PostFP first-party cookies after accepting.
	PostFP int
	// PostBenignTP third-party cookies from non-blocklisted domains
	// after accepting.
	PostBenignTP int
	// PostTracking cookies from blocklisted tracker domains after
	// accepting.
	PostTracking int
	// SubFP / SubBenignTP apply when visiting with a valid SMP
	// subscription (tracking is zero by construction, §4.4).
	SubFP       int
	SubBenignTP int
}

// Site is one synthetic website.
type Site struct {
	// Domain is the registrable domain, e.g. "nachrichten-heute24.de".
	Domain string
	// TLD is the effective TLD label used in Figure 2 ("de", "com", ...).
	TLD string
	// Language is the ISO 639-1 code of the page text.
	Language string
	// Category is one of the 15 FortiGuard-style categories + "Others".
	Category string

	Banner    BannerKind
	Embedding Embedding
	Provider  Provider

	// Price fields are set for cookiewalls only. PriceAmount is in the
	// display currency; MonthlyEUR is the normalized ground truth.
	PriceAmount   float64
	PriceCurrency string
	PricePeriod   currency.Period
	MonthlyEUR    float64

	// ShowToVPs restricts cookiewall/banner display to these VP names;
	// nil means show everywhere. Regular banners use the same policy
	// mechanism (EU-only banners are common). Sites may share the
	// slice: treat it as read-only.
	ShowToVPs []string

	// Lists holds the rank bucket (1000 or 10000) of every CrUX-style
	// toplist the site appears on.
	Lists Toplists
	// Reachable marks the site as crawlable; unreachable sites fail
	// every request (the paper's ~11% per-list unreachable share).
	Reachable bool

	Cookies CookieProfile

	// Decoy marks the five regular-banner sites whose text advertises a
	// priced newsletter subscription — the detector's false positives.
	Decoy bool
	// BotSensitive sites detect crawler user agents and hide their
	// banner — the §3 limitation ("websites may behave differently"
	// when they detect a crawler). Never set on cookiewall sites.
	BotSensitive bool
	// AntiAdblock: detects content blockers and asks for deactivation
	// (the hausbau-forum.de case in §4.5).
	AntiAdblock bool
	// ScrollLock: page is clickable but not scrollable under a blocker
	// (the promipool.de case in §4.5).
	ScrollLock bool
}

// ShowsBannerTo reports whether the site presents its banner to a
// visitor from the named vantage point.
func (s *Site) ShowsBannerTo(vpName string) bool {
	if s.Banner == BannerNone {
		return false
	}
	if len(s.ShowToVPs) == 0 {
		return true
	}
	for _, v := range s.ShowToVPs {
		if v == vpName {
			return true
		}
	}
	return false
}

// OnList reports whether the site is on the country's toplist, and in
// which bucket (1000 or 10000).
func (s *Site) OnList(country string) (int, bool) {
	b := s.Lists.Bucket(country)
	return b, b != 0
}

// Toplists records a site's rank bucket on each country toplist. It is
// a value: one uint16 bucket per vantage-point country, indexed in
// vantage.Countries() order, with 0 meaning "not on that list". The
// zero Toplists is on no list.
type Toplists struct {
	bucket [vantage.NumCountries]uint16
}

// Bucket returns the site's rank bucket on the country's toplist, or 0
// when it is not on it (or the country has no toplist).
func (t *Toplists) Bucket(cc string) int {
	i, ok := vantage.CountryIndex(cc)
	if !ok {
		return 0
	}
	return int(t.bucket[i])
}

// Set puts the site on the country's toplist in bucket b; b == 0 takes
// it off. It panics for a country without a vantage point or a bucket
// outside [0, 65535], both generator bugs.
func (t *Toplists) Set(cc string, b int) {
	i, ok := vantage.CountryIndex(cc)
	if !ok {
		panic("synthweb: no toplist for country " + cc)
	}
	if b < 0 || b > math.MaxUint16 {
		panic(fmt.Sprintf("synthweb: toplist bucket %d out of range", b))
	}
	t.bucket[i] = uint16(b)
}

// Len returns how many toplists the site is on.
func (t *Toplists) Len() int {
	n := 0
	for _, b := range t.bucket {
		if b != 0 {
			n++
		}
	}
	return n
}

// Countries returns the codes of the toplists the site is on, sorted.
func (t *Toplists) Countries() []string {
	var out []string
	for i, cc := range vantage.Countries() {
		if t.bucket[i] != 0 {
			out = append(out, cc)
		}
	}
	sort.Strings(out)
	return out
}
