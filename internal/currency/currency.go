// Package currency implements the price-detection half of the paper's
// cookiewall classifier (§3) and the subscription-price normalization
// of §4.2.
//
// The paper checks banner text for "currency words and symbols" of the
// top-10 global currencies plus each vantage point's currency (EUR,
// USD, CHF, AUD, GBP, Rs, BRL, CNY, ZAR) combined with an amount in
// any order and spacing: "$3.99", "3.99$", "3.99 $", "3.99 $". For
// §4.2 prices are normalized to EUR per month using fixed conversion
// rates (the paper converted manually; our rate table is pinned so
// results are reproducible).
package currency

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Period is the billing period attached to a detected price.
type Period int

const (
	// PeriodUnknown means no period wording was found near the price;
	// normalization treats it as monthly (the dominant case on
	// cookiewalls).
	PeriodUnknown Period = iota
	// PeriodMonth is an explicit per-month price.
	PeriodMonth
	// PeriodYear is an explicit per-year price.
	PeriodYear
	// PeriodWeek is an explicit per-week price.
	PeriodWeek
)

// String implements fmt.Stringer.
func (p Period) String() string {
	switch p {
	case PeriodMonth:
		return "month"
	case PeriodYear:
		return "year"
	case PeriodWeek:
		return "week"
	}
	return "unknown"
}

// Price is one price found in text.
type Price struct {
	Amount float64
	// Code is the ISO 4217 currency code.
	Code   string
	Period Period
}

// def describes one currency's detectable tokens. Tokens are tried in
// defs order, so "R$" wins over "R" and "A$" over "$".
type def struct {
	code   string
	tokens []string
}

// defs covers the paper's currency corpus plus SEK (Sweden is a
// vantage point) and Rs both with and without a dot.
var defs = []def{
	{"EUR", []string{"€", "euro", "eur"}},
	{"BRL", []string{"r$", "brl"}},
	{"AUD", []string{"a$", "aud"}},
	{"USD", []string{"$", "usd"}},
	{"GBP", []string{"£", "gbp"}},
	{"CHF", []string{"chf", "sfr"}},
	{"INR", []string{"₹", "rs.", "rs", "inr"}},
	{"CNY", []string{"¥", "cny", "rmb", "yuan"}},
	{"ZAR", []string{"zar", "r"}},
	{"SEK", []string{"sek", "kr"}},
}

// eurRates converts one unit of the currency to EUR. Pinned rates
// (mid-2023) keep every experiment reproducible; the paper's numbers
// (3 EUR ≈ 3.25 USD) anchor the EUR/USD rate.
var eurRates = map[string]float64{
	"EUR": 1.0,
	"USD": 0.923,
	"GBP": 1.16,
	"CHF": 1.02,
	"AUD": 0.61,
	"INR": 0.0112,
	"BRL": 0.19,
	"CNY": 0.13,
	"ZAR": 0.049,
	"SEK": 0.088,
}

// EURRate returns the pinned EUR conversion rate for an ISO code
// (0 for unknown codes).
func EURRate(code string) float64 { return eurRates[strings.ToUpper(code)] }

// HasPrice reports whether text holds a currency-amount combination:
// whether AppendPrices would find one. It stops at the first.
func HasPrice(text []byte) bool {
	if !containsDigit(text) {
		return false
	}
	s := scanner{text: text}
	_, ok := s.next()
	return ok
}

// AppendPrices appends every currency-amount combination in text to
// dst, in text order, and returns the extended slice. The text should
// be whitespace-normalized (as dom.Node.AppendText writes it) so that
// non-breaking spaces do not break adjacency. A caller that keeps dst
// across calls, as the banner detector does, finds prices without
// allocating.
func AppendPrices(dst []Price, text []byte) []Price {
	// Every price holds a digit, and most consent banners hold none.
	if !containsDigit(text) {
		return dst
	}
	s := scanner{text: text}
	for {
		m, ok := s.next()
		if !ok {
			return dst
		}
		dst = append(dst, Price{Amount: m.amount, Code: m.code, Period: detectPeriod(text, m.start, m.end)})
	}
}

// boundaryOK reports whether a symbol sits on word boundaries. Letter
// tokens must, to avoid matching "kr" inside "krank", "r" inside
// "für", or "eur" inside "europe". The check is Unicode-aware: 'ü'
// counts as a letter. token is the lower-cased symbol.
func boundaryOK(text []byte, start, end int, token []byte) bool {
	for _, c := range token {
		if !((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) && c != '.' {
			return true
		}
	}
	if start > 0 {
		if r, _ := utf8.DecodeLastRune(text[:start]); unicode.IsLetter(r) {
			return false
		}
	}
	if end < len(text) {
		if r, _ := utf8.DecodeRune(text[end:]); unicode.IsLetter(r) {
			return false
		}
	}
	return true
}

func containsDigit(s []byte) bool {
	for _, c := range s {
		if isDigit(c) {
			return true
		}
	}
	return false
}

// parseAmount handles both decimal conventions: "3.99", "3,99",
// "1.299,00" (German thousands), "1,299.00" (English thousands). The
// later separator is the decimal mark when both occur; a lone kind is
// one when 1-2 digits follow its last occurrence. The number is
// rewritten in a stack buffer, so short amounts parse without
// allocating.
func parseAmount(s []byte) (float64, bool) {
	lastDot := bytes.LastIndexByte(s, '.')
	lastComma := bytes.LastIndexByte(s, ',')
	var buf [32]byte
	num := buf[:0]
	switch {
	case lastDot >= 0 && lastComma >= 0:
		if lastDot > lastComma {
			num = appendWithout(num, s, ',')
		} else {
			num = decimalComma(appendWithout(num, s, '.'))
		}
	case lastComma >= 0 && len(s)-lastComma-1 <= 2:
		num = decimalComma(append(num, s...))
	case lastComma >= 0:
		num = appendWithout(num, s, ',')
	case lastDot >= 0 && len(s)-lastDot-1 > 2:
		num = appendWithout(num, s, '.')
	default:
		num = append(num, s...)
	}
	v, err := strconv.ParseFloat(string(num), 64)
	if err != nil || v < 0 {
		return 0, false
	}
	return v, true
}

// appendWithout appends s to dst without the bytes equal to c.
func appendWithout(dst, s []byte, c byte) []byte {
	for _, b := range s {
		if b != c {
			dst = append(dst, b)
		}
	}
	return dst
}

// decimalComma turns the first comma of num into a decimal point.
func decimalComma(num []byte) []byte {
	if i := bytes.IndexByte(num, ','); i >= 0 {
		num[i] = '.'
	}
	return num
}

// periodWords maps lower-case period markers to a Period. The corpus
// covers the languages of the detected cookiewall sites: German,
// English, Italian, French, Spanish, Portuguese, Swedish, Dutch.
var periodWords = []struct {
	word   string
	period Period
}{
	{"/month", PeriodMonth}, {"per month", PeriodMonth}, {"monthly", PeriodMonth},
	{"/mo", PeriodMonth}, {"a month", PeriodMonth},
	{"pro monat", PeriodMonth}, {"monatlich", PeriodMonth}, {"im monat", PeriodMonth},
	{"/monat", PeriodMonth}, {"mtl", PeriodMonth},
	{"al mese", PeriodMonth}, {"mensile", PeriodMonth},
	{"par mois", PeriodMonth}, {"/mois", PeriodMonth},
	{"al mes", PeriodMonth}, {"/mes", PeriodMonth},
	{"por mês", PeriodMonth}, {"ao mês", PeriodMonth},
	{"per månad", PeriodMonth}, {"/månad", PeriodMonth}, {"i månaden", PeriodMonth},
	{"per maand", PeriodMonth}, {"/maand", PeriodMonth},

	{"/year", PeriodYear}, {"per year", PeriodYear}, {"yearly", PeriodYear},
	{"annually", PeriodYear}, {"a year", PeriodYear},
	{"pro jahr", PeriodYear}, {"jährlich", PeriodYear}, {"im jahr", PeriodYear},
	{"/jahr", PeriodYear},
	{"all'anno", PeriodYear}, {"annuo", PeriodYear},
	{"par an", PeriodYear}, {"/an", PeriodYear},
	{"al año", PeriodYear}, {"/año", PeriodYear},
	{"por ano", PeriodYear}, {"ao ano", PeriodYear},
	{"per år", PeriodYear}, {"/år", PeriodYear},
	{"per jaar", PeriodYear}, {"/jaar", PeriodYear},

	{"/week", PeriodWeek}, {"per week", PeriodWeek}, {"weekly", PeriodWeek},
	{"pro woche", PeriodWeek}, {"/woche", PeriodWeek},
}

// detectPeriod inspects a window around the matched price for period
// wording and returns the marker NEAREST to the price. Proximity
// matters when two prices share a sentence ("2,99 € pro Monat bzw.
// 29,99 € pro Jahr"): each price must bind to its own period. The
// window is lower-cased in a stack buffer; distances compare offsets
// in the lower-cased window with the price's offsets in the original.
func detectPeriod(text []byte, start, end int) Period {
	lo := max(start-24, 0)
	hi := min(end+32, len(text))
	var buf [128]byte
	window := appendLower(buf[:0], text[lo:hi])
	priceLo, priceHi := start-lo, end-lo

	best := PeriodUnknown
	bestDist := 1 << 30
	for _, pw := range periodWords {
		word := []byte(pw.word)
		from := 0
		for {
			idx := bytes.Index(window[from:], word)
			if idx < 0 {
				break
			}
			idx += from
			var dist int
			switch {
			case idx >= priceHi:
				dist = idx - priceHi
			case idx+len(word) <= priceLo:
				dist = priceLo - (idx + len(word))
			default:
				dist = 0
			}
			if dist < bestDist {
				bestDist = dist
				best = pw.period
			}
			from = idx + 1
		}
	}
	return best
}

// appendLower appends the lower-case form of src to dst, byte for byte
// what strings.ToLower returns: every rune maps through
// unicode.ToLower, and invalid UTF-8 becomes U+FFFD.
func appendLower(dst, src []byte) []byte {
	for i := 0; i < len(src); {
		if c := src[i]; c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, size := utf8.DecodeRune(src[i:])
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
		i += size
	}
	return dst
}

// MonthlyEUR normalizes a price to EUR per month. Unknown periods are
// treated as monthly; unknown currencies yield 0.
func (p Price) MonthlyEUR() float64 {
	rate := EURRate(p.Code)
	if rate == 0 {
		return 0
	}
	eur := p.Amount * rate
	switch p.Period {
	case PeriodYear:
		return eur / 12
	case PeriodWeek:
		return eur * 52 / 12
	default:
		return eur
	}
}

// Bucket assigns a monthly EUR price to the Figure-2 integer buckets:
// bucket b holds prices in (b-1, b]. Prices above 10 land in bucket 10,
// negative or zero prices in bucket 0.
func Bucket(monthlyEUR float64) int {
	if monthlyEUR <= 0 || math.IsNaN(monthlyEUR) {
		return 0
	}
	if monthlyEUR > 10 {
		return 10 // clamp before Ceil: int conversion overflows on huge floats
	}
	return int(math.Ceil(monthlyEUR - 1e-9))
}

// CheapestMonthly returns the lowest positive normalized monthly price
// among the detected prices, or (0, false) when none is usable. This is
// the subscription price a user would actually compare.
func CheapestMonthly(prices []Price) (float64, bool) {
	best := math.Inf(1)
	found := false
	for _, p := range prices {
		if m := p.MonthlyEUR(); m > 0 && m < best {
			best = m
			found = true
		}
	}
	if !found {
		return 0, false
	}
	return best, true
}
