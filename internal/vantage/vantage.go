// Package vantage models the measurement vantage points of the study
// (§3): eight AWS regions across six continents, chosen to cover
// different privacy regimes — GDPR (Frankfurt, Stockholm), CCPA
// (San Francisco), LGPD (São Paulo), and no/less-strict regulation
// elsewhere.
//
// In the paper the vantage point is implied by the crawler's source IP;
// here the emulated browser stamps each request with the VP's country
// and the web farm resolves geo-dependent behaviour from it (the
// documented substitution for IP geolocation).
package vantage

import "slices"

// GeoHeader carries the vantage point name on every emulated-browser
// request. It substitutes for IP geolocation: a real crawler's region
// is implied by its source address, which an in-process transport does
// not have.
const GeoHeader = "X-Vantage"

// VisitHeader carries a "vp|repetition" label so the farm can derive
// deterministic per-visit jitter — the stand-in for organic ad-rotation
// variance that the paper averages away with five repetitions.
const VisitHeader = "X-Cw-Visit"

// Regulation is the privacy regime a vantage point falls under.
type Regulation int

const (
	// RegNone marks no or less strict privacy regulation.
	RegNone Regulation = iota
	// RegGDPR is the EU General Data Protection Regulation.
	RegGDPR
	// RegCCPA is the California Consumer Privacy Act.
	RegCCPA
	// RegLGPD is Brazil's Lei Geral de Proteção de Dados.
	RegLGPD
)

// String implements fmt.Stringer.
func (r Regulation) String() string {
	switch r {
	case RegGDPR:
		return "GDPR"
	case RegCCPA:
		return "CCPA"
	case RegLGPD:
		return "LGPD"
	}
	return "none"
}

// VP is one measurement vantage point.
type VP struct {
	// Name is the identifier used throughout results ("Germany",
	// "US East", ... exactly as in Table 1).
	Name string
	// City is the AWS location from §3.
	City string
	// Country is the ISO 3166-1 alpha-2 code; it keys the country
	// toplist and geo policies.
	Country string
	// Regulation is the privacy regime at this VP.
	Regulation Regulation
	// MainLanguage is the most commonly spoken language (ISO 639-1),
	// used for the Language column of Table 1.
	MainLanguage string
	// Currency is the local ISO 4217 currency code.
	Currency string
	// TLD is the country-code TLD associated with the VP's country,
	// used for the ccTLD column of Table 1.
	TLD string
}

// IsEU reports whether the VP is in the European Union.
func (v VP) IsEU() bool {
	return v.Country == "DE" || v.Country == "SE"
}

// all lists the paper's eight vantage points in Table 1 row order.
var all = []VP{
	{Name: "US East", City: "Ashburn", Country: "US", Regulation: RegNone, MainLanguage: "en", Currency: "USD", TLD: "us"},
	{Name: "US West", City: "San Francisco", Country: "US", Regulation: RegCCPA, MainLanguage: "en", Currency: "USD", TLD: "us"},
	{Name: "Brazil", City: "São Paulo", Country: "BR", Regulation: RegLGPD, MainLanguage: "pt", Currency: "BRL", TLD: "br"},
	{Name: "Germany", City: "Frankfurt", Country: "DE", Regulation: RegGDPR, MainLanguage: "de", Currency: "EUR", TLD: "de"},
	{Name: "Sweden", City: "Stockholm", Country: "SE", Regulation: RegGDPR, MainLanguage: "sv", Currency: "SEK", TLD: "se"},
	{Name: "South Africa", City: "Cape Town", Country: "ZA", Regulation: RegNone, MainLanguage: "af", Currency: "ZAR", TLD: "za"},
	{Name: "India", City: "Mumbai", Country: "IN", Regulation: RegNone, MainLanguage: "en", Currency: "INR", TLD: "in"},
	{Name: "Australia", City: "Sydney", Country: "AU", Regulation: RegNone, MainLanguage: "en", Currency: "AUD", TLD: "au"},
}

// All returns the eight vantage points in Table 1 row order. The
// returned slice is a copy.
func All() []VP {
	out := make([]VP, len(all))
	copy(out, all)
	return out
}

// ByName returns the VP with the given Name.
func ByName(name string) (VP, bool) {
	for _, v := range all {
		if v.Name == name {
			return v, true
		}
	}
	return VP{}, false
}

// KnownName returns the table's own copy of the VP name b spells,
// without allocating; ok is false when no VP has that name.
func KnownName(b []byte) (name string, ok bool) {
	for _, v := range all {
		if v.Name == string(b) {
			return v.Name, true
		}
	}
	return "", false
}

// ByCountry returns the first VP in the given country. Note that the
// two US VPs share a country; ByCountry returns US East.
func ByCountry(code string) (VP, bool) {
	for _, v := range all {
		if v.Country == code {
			return v, true
		}
	}
	return VP{}, false
}

// NumCountries is the number of distinct VP countries, the length of
// Countries().
const NumCountries = 7

// countries is derived from all once: the distinct VP countries in
// Table 1 row order.
var countries = distinctCountries()

func distinctCountries() []string {
	var out []string
	for _, v := range all {
		if !slices.Contains(out, v.Country) {
			out = append(out, v.Country)
		}
	}
	if len(out) != NumCountries {
		panic("vantage: NumCountries out of date")
	}
	return out
}

// Countries returns the distinct VP countries in stable order
// (US, BR, DE, SE, ZA, IN, AU) — the countries that have CrUX toplists.
// The slice is shared: callers must not modify it.
func Countries() []string { return countries }

// CountryIndex returns the position of a country code in Countries(),
// or false if no vantage point is in that country.
func CountryIndex(code string) (int, bool) {
	i := slices.Index(countries, code)
	return i, i >= 0
}
