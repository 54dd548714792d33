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
	"math"
	"regexp"
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
	// Raw is the matched substring, for debugging and reports.
	Raw string
}

// def describes one currency's detectable tokens. Longer tokens are
// matched first so "R$" wins over "R" and "A$" over "$".
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

var (
	tokenToCode = map[string]string{}
	priceRe     *regexp.Regexp
)

func init() {
	var tokens []string
	for _, d := range defs {
		for _, t := range d.tokens {
			tokenToCode[t] = d.code
			tokens = append(tokens, regexp.QuoteMeta(t))
		}
	}
	// Sort-by-length is already implied by defs ordering for the
	// critical prefixes (r$ before $; rs before r), but alternation in
	// Go regexp is leftmost-first, so preserve defs order exactly.
	sym := "(?:" + strings.Join(tokens, "|") + ")"
	num := `\d{1,4}(?:[.,]\d{1,3})*`
	// Two orders: symbol-first and amount-first, with optional space.
	priceRe = regexp.MustCompile(`(?i)(?:(` + sym + `)\s?(` + num + `)|(` + num + `)\s?(` + sym + `))`)
}

// wordish tokens (letters only) must sit on word boundaries to avoid
// matching "kr" inside "krank", "r" inside "für", or "eur" inside
// "europe". The check is Unicode-aware: 'ü' counts as a letter.
func boundaryOK(text string, start, end int, token string) bool {
	alpha := true
	for i := 0; i < len(token); i++ {
		c := token[i]
		if !((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) && c != '.' {
			alpha = false
			break
		}
	}
	if !alpha {
		return true
	}
	if start > 0 {
		if r, _ := utf8.DecodeLastRuneInString(text[:start]); unicode.IsLetter(r) {
			return false
		}
	}
	if end < len(text) {
		if r, _ := utf8.DecodeRuneInString(text[end:]); unicode.IsLetter(r) {
			return false
		}
	}
	return true
}

// FindPrices extracts all currency-amount combinations from text.
// The text should be whitespace-normalized (as dom.Node.Text returns
// it) so that non-breaking spaces do not break adjacency.
//
// Matching scans manually rather than with FindAll: a candidate that
// fails validation (word boundary, malformed amount) must only advance
// the scan by one byte, otherwise "für 2,99 €" would consume "r 2,99"
// as a rejected ZAR candidate and never see the Euro price.
func FindPrices(text string) []Price {
	// Every alternative of the price pattern contains an amount (\d+),
	// so text without a single digit can never match. Most consent
	// banners carry no digits at all, which makes this check the
	// difference between "no regexp work" and a full backtracking scan
	// on the crawl's hot path.
	if !containsDigit(text) {
		return nil
	}
	var out []Price
	offset := 0
	for offset < len(text) {
		m := priceRe.FindStringSubmatchIndex(text[offset:])
		if m == nil {
			break
		}
		for i := range m {
			if m[i] >= 0 {
				m[i] += offset
			}
		}
		var symStart, symEnd, numStart, numEnd int
		if m[2] >= 0 { // symbol-first alternative
			symStart, symEnd, numStart, numEnd = m[2], m[3], m[4], m[5]
		} else {
			numStart, numEnd, symStart, symEnd = m[6], m[7], m[8], m[9]
		}
		token := strings.ToLower(text[symStart:symEnd])
		code, tokenOK := tokenToCode[token]
		amount, amountOK := parseAmount(text[numStart:numEnd])
		if !tokenOK || !amountOK || !boundaryOK(text, symStart, symEnd, token) {
			offset = m[0] + 1 // rejected: re-scan from the next byte
			continue
		}
		out = append(out, Price{
			Amount: amount,
			Code:   code,
			Period: detectPeriod(text, m[0], m[1]),
			Raw:    text[m[0]:m[1]],
		})
		offset = m[1]
	}
	return out
}

func containsDigit(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			return true
		}
	}
	return false
}

// parseAmount handles both decimal conventions: "3.99", "3,99",
// "1.299,00" (German thousands), "1,299.00" (English thousands).
func parseAmount(s string) (float64, bool) {
	lastDot := strings.LastIndexByte(s, '.')
	lastComma := strings.LastIndexByte(s, ',')
	switch {
	case lastDot < 0 && lastComma < 0:
		// integer
	case lastDot >= 0 && lastComma >= 0:
		// Later separator is the decimal mark; strip the other.
		if lastDot > lastComma {
			s = strings.ReplaceAll(s, ",", "")
		} else {
			s = strings.ReplaceAll(s, ".", "")
			s = strings.Replace(s, ",", ".", 1)
		}
	case lastComma >= 0:
		// Single comma: decimal if followed by 1-2 digits, else thousands.
		if len(s)-lastComma-1 <= 2 {
			s = strings.Replace(s, ",", ".", 1)
		} else {
			s = strings.ReplaceAll(s, ",", "")
		}
	default:
		// Single dot: decimal if followed by 1-2 digits, else thousands.
		if len(s)-lastDot-1 > 2 {
			s = strings.ReplaceAll(s, ".", "")
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 {
		return 0, false
	}
	return v, true
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
// 29,99 € pro Jahr"): each price must bind to its own period.
func detectPeriod(text string, start, end int) Period {
	lo := start - 24
	if lo < 0 {
		lo = 0
	}
	hi := end + 32
	if hi > len(text) {
		hi = len(text)
	}
	window := strings.ToLower(text[lo:hi])
	priceLo, priceHi := start-lo, end-lo

	best := PeriodUnknown
	bestDist := 1 << 30
	for _, pw := range periodWords {
		from := 0
		for {
			idx := strings.Index(window[from:], pw.word)
			if idx < 0 {
				break
			}
			idx += from
			var dist int
			switch {
			case idx >= priceHi:
				dist = idx - priceHi
			case idx+len(pw.word) <= priceLo:
				dist = priceLo - (idx + len(pw.word))
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
