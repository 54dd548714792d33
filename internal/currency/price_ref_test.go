package currency

import (
	"regexp"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// This file keeps the regexp price search that the scanner replaced,
// as the reference FuzzFindPrices checks it against: one
// leftmost-first regexp over the defs tokens, re-run from the next
// byte after every rejected candidate, with string forms of the
// amount, boundary and period checks. It is the old code with a ref
// prefix on its names, and it returns each price's matched text.

// refPrice is a price with the text it was read from.
type refPrice struct {
	Price
	Raw string
}

var refPriceRe = func() *regexp.Regexp {
	var tokens []string
	for _, d := range defs {
		for _, t := range d.tokens {
			tokens = append(tokens, regexp.QuoteMeta(t))
		}
	}
	// Alternation in Go regexp is leftmost-first, so the token order
	// is defs order exactly.
	sym := "(?:" + strings.Join(tokens, "|") + ")"
	num := `\d{1,4}(?:[.,]\d{1,3})*`
	// Two orders: symbol-first and amount-first, with optional space.
	return regexp.MustCompile(`(?i)(?:(` + sym + `)\s?(` + num + `)|(` + num + `)\s?(` + sym + `))`)
}()

func refFindPrices(text string) []refPrice {
	var out []refPrice
	offset := 0
	for offset < len(text) {
		m := refPriceRe.FindStringSubmatchIndex(text[offset:])
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
		amount, amountOK := refParseAmount(text[numStart:numEnd])
		if !tokenOK || !amountOK || !refBoundaryOK(text, symStart, symEnd, token) {
			offset = m[0] + 1 // rejected: re-scan from the next byte
			continue
		}
		out = append(out, refPrice{
			Price: Price{Amount: amount, Code: code, Period: refDetectPeriod(text, m[0], m[1])},
			Raw:   text[m[0]:m[1]],
		})
		offset = m[1]
	}
	return out
}

func refBoundaryOK(text string, start, end int, token string) bool {
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

func refParseAmount(s string) (float64, bool) {
	lastDot := strings.LastIndexByte(s, '.')
	lastComma := strings.LastIndexByte(s, ',')
	switch {
	case lastDot < 0 && lastComma < 0:
	case lastDot >= 0 && lastComma >= 0:
		if lastDot > lastComma {
			s = strings.ReplaceAll(s, ",", "")
		} else {
			s = strings.ReplaceAll(s, ".", "")
			s = strings.Replace(s, ",", ".", 1)
		}
	case lastComma >= 0:
		if len(s)-lastComma-1 <= 2 {
			s = strings.Replace(s, ",", ".", 1)
		} else {
			s = strings.ReplaceAll(s, ",", "")
		}
	default:
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

func refDetectPeriod(text string, start, end int) Period {
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
		word := string(pw.word)
		from := 0
		for {
			idx := strings.Index(window[from:], word)
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
