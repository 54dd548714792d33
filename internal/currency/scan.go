package currency

import (
	"strconv"
	"unicode"
)

// symbol is one currency token of defs, ready for case-insensitive
// matching: for each rune of the token, the UTF-8 encodings of every
// rune in its Unicode case-fold orbit ("k" also matches "K" and the
// Kelvin sign "K", "s" also matches "S" and the long s "ſ").
type symbol struct {
	runes [][]string
}

var (
	// tokenToCode maps every token of defs to its currency code.
	tokenToCode = map[string]string{}
	// symbolsAt lists, for each byte, the tokens of defs that can
	// start with it, in defs order: the order in which they are tried.
	symbolsAt [256][]*symbol
	// symbolReach bounds the bytes from a symbol's start to the digit
	// of its amount: the longest symbol and one space.
	symbolReach int
)

func init() {
	for _, d := range defs {
		for _, t := range d.tokens {
			tokenToCode[t] = d.code
			sym := new(symbol)
			longest := 0
			for _, r := range t {
				var orbit []string
				width := 0
				for f := r; ; {
					orbit = append(orbit, string(f))
					width = max(width, len(string(f)))
					if f = unicode.SimpleFold(f); f == r {
						break
					}
				}
				sym.runes = append(sym.runes, orbit)
				longest += width
			}
			symbolReach = max(symbolReach, longest+1)
			for _, enc := range sym.runes[0] {
				if at := symbolsAt[enc[0]]; len(at) == 0 || at[len(at)-1] != sym {
					symbolsAt[enc[0]] = append(at, sym)
				}
			}
		}
	}
}

// matchAt returns the end of the symbol when text holds it at p.
func (sym *symbol) matchAt(text []byte, p int) (int, bool) {
	for _, orbit := range sym.runes {
		matched := false
		for _, enc := range orbit {
			if len(text)-p >= len(enc) && string(text[p:p+len(enc)]) == enc {
				p += len(enc)
				matched = true
				break
			}
		}
		if !matched {
			return 0, false
		}
	}
	return p, true
}

// scanner finds the prices in a text from left to right. It finds
// exactly what the regexp
//
//	(?i)(SYM)\s?(NUM)|(NUM)\s?(SYM)   NUM = \d{1,4}(?:[.,]\d{1,3})*
//
// finds (SYM: the tokens of defs, in defs order) when the search is
// re-run from the next byte after every match that the token, amount
// or word-boundary check rejects. A rejected match must only advance
// the search by one byte, otherwise "für 2,99 €" would consume
// "r 2,99" as a rejected ZAR candidate and never see the Euro price.
// price_ref_test.go keeps that regexp search as the reference.
//
// The scanner's work is linear in the length of the text. A match
// starting at a symbol reads the longest NUM after it, and at most a
// handful of symbol starts share one number. A match starting at a
// digit can only end where a run of digits and separators ends, since
// no symbol starts with a digit, '.' or ',' (see numberFirst), so each
// run is read twice, whatever number of rejected starts it holds.
type scanner struct {
	text  []byte
	pos   int // where the search for the next price starts
	steps int // bytes and symbols examined, which a test pins as linear
}

// match is one accepted price: text[start:end], its amount and its
// currency code.
type match struct {
	start, end int
	amount     float64
	code       string
}

// next returns the next price and moves past it.
func (s *scanner) next() (match, bool) {
	t := s.text
	for p := s.pos; p < len(t); {
		s.steps++
		var m match
		var ok bool
		switch c := t[p]; {
		case isDigit(c):
			var next int
			if m, ok, next = s.numberFirst(p); !ok {
				p = next
				continue
			}
		case len(symbolsAt[c]) > 0:
			if m, ok = s.symbolFirst(p); !ok {
				p++
				continue
			}
		default:
			p++
			continue
		}
		s.pos = m.end
		return m, true
	}
	s.pos = len(t)
	return match{}, false
}

// symbolFirst is the symbol-first form at p: the first symbol in defs
// order that is followed by an optional space and a digit, with the
// longest NUM after it. That one match is accepted or rejected whole.
func (s *scanner) symbolFirst(p int) (match, bool) {
	t := s.text
	// The amount's first digit lies within symbolReach bytes.
	if !containsDigit(t[p+1 : min(p+1+symbolReach, len(t))]) {
		s.steps += symbolReach
		return match{}, false
	}
	for _, sym := range symbolsAt[t[p]] {
		s.steps++
		symEnd, ok := sym.matchAt(t, p)
		if !ok {
			continue
		}
		num := symEnd
		if num+1 < len(t) && isSpace(t[num]) && isDigit(t[num+1]) {
			num++
		} else if num >= len(t) || !isDigit(t[num]) {
			continue
		}
		end := s.longestNumber(num)
		code, ok := s.symbolCode(p, symEnd)
		if !ok {
			return match{}, false
		}
		s.steps += end - num
		amount, ok := parseAmount(t[num:end])
		if !ok {
			return match{}, false
		}
		return match{start: p, end: end, amount: amount, code: code}, true
	}
	return match{}, false
}

// longestNumber returns the end of the longest NUM that starts at the
// digit at i: up to four digits, then groups of a separator and up to
// three digits. A group with more digits ends the number inside it.
func (s *scanner) longestNumber(i int) int {
	t := s.text
	start := i
	for n := 0; n < 4 && i < len(t) && isDigit(t[i]); n++ {
		i++
	}
	if i >= len(t) || !isDigit(t[i]) {
		for i+1 < len(t) && isSep(t[i]) && isDigit(t[i+1]) {
			i++
			for n := 0; n < 3 && i < len(t) && isDigit(t[i]); n++ {
				i++
			}
			if i < len(t) && isDigit(t[i]) {
				break
			}
		}
	}
	s.steps += i - start
	return i
}

// numberFirst is the number-first form at every digit of the run of
// digits and separators that starts at p. A symbol never starts with a
// digit, '.' or ',', so a NUM followed by a symbol must end where the
// run ends, at q; the regexp's backtracking into shorter NUMs never
// finds another match. Which starts reach q, and which amounts
// parseAmount accepts, follows from the run's shape, read once: the
// candidates are tried in order and the first whose amount parses is
// the match. When none is, the search resumes at q, the first position
// the run's candidates did not cover.
func (s *scanner) numberFirst(p int) (m match, ok bool, next int) {
	t := s.text
	// Pass 1: the run's extent, separators and digits, and bound: no
	// start before it reaches q, because a double separator or a
	// group of more than three digits lies between.
	q, groupStart, bound := p, p, p
	dots, commas, digits, lastSep := 0, 0, 0, -1
	for ; q < len(t); q++ {
		c := t[q]
		if isDigit(c) {
			digits++
			continue
		}
		if !isSep(c) {
			break
		}
		if c == '.' {
			dots++
		} else {
			commas++
		}
		switch {
		case q == groupStart:
			bound = q
		case q-groupStart > 3:
			bound = max(bound, groupStart)
		}
		lastSep, groupStart = q, q+1
	}
	s.steps += q - p
	if groupStart == q {
		return match{}, false, q // the run ends in a separator
	}
	if q-groupStart > 3 {
		bound = max(bound, groupStart)
	}

	// The symbol after the run, the same for every start.
	symStart := q
	if q < len(t) && isSpace(t[q]) {
		symStart = q + 1
	}
	if symStart >= len(t) {
		return match{}, false, q
	}
	symEnd := -1
	for _, sym := range symbolsAt[t[symStart]] {
		s.steps++
		if e, ok := sym.matchAt(t, symStart); ok {
			symEnd = e
			break
		}
	}
	if symEnd < 0 {
		return match{}, false, q
	}
	code, ok := s.symbolCode(symStart, symEnd)
	if !ok {
		return match{}, false, q
	}

	// Pass 2: the starts in order, group by group. A start must lie in
	// the last four digits of its group and at or after bound.
	a := amountShape{text: t, q: q, lastSep: lastSep, dots: dots, commas: commas, digits: digits, nz: p}
	for gs := p; gs < q; gs++ {
		ge := gs
		for ge < q && isDigit(t[ge]) {
			ge++
		}
		s.steps += ge - gs
		for c := max(gs, ge-4, bound); c < ge; c++ {
			if !a.ok(s, c, gs) {
				continue
			}
			s.steps += q - c
			if amount, ok := parseAmount(t[c:q]); ok {
				return match{start: c, end: symEnd, amount: amount, code: code}, true, 0
			}
		}
		if ge == q {
			break
		}
		if t[ge] == '.' {
			a.dotsBefore++
		} else {
			a.commasBefore++
		}
		a.digitsBefore += ge - gs
		gs = ge
	}
	return match{}, false, q
}

// amountShape decides whether parseAmount accepts text[c:q] for the
// starts c of one run, in increasing order, from counts alone: which
// separators the amount holds, which one is its decimal mark, and how
// many significant digits its integer part has.
type amountShape struct {
	text               []byte
	q, lastSep         int // the run's end and last separator (-1: none)
	dots, commas       int // separators in the run
	digits             int // digits in the run
	dotsBefore         int // separators and digits before the current group
	commasBefore       int
	digitsBefore       int
	nz, digitsBeforeNZ int // the first non-zero digit at or after the last start, and the digits before it
}

// ok reports whether parseAmount accepts text[c:q], c being a digit of
// the group that starts at gs.
func (a *amountShape) ok(s *scanner, c, gs int) bool {
	t := a.text
	dots, commas := a.dots-a.dotsBefore, a.commas-a.commasBefore
	tail := a.q - a.lastSep - 1 // digits after the last separator
	intEnd, intDigits := a.q, a.digits
	switch {
	case dots == 0 && commas == 0:
		// An integer.
	case dots > 0 && commas > 0:
		// The later separator is the decimal mark; the other kind is
		// stripped, so the decimal mark's kind must occur once.
		if (t[a.lastSep] == '.' && dots != 1) || (t[a.lastSep] == ',' && commas != 1) {
			return false
		}
		intEnd, intDigits = a.lastSep, a.digits-tail
	case tail <= 2:
		// One kind, read as a decimal mark: it must occur once.
		if dots+commas != 1 {
			return false
		}
		intEnd, intDigits = a.lastSep, a.digits-tail
	}
	// ParseFloat overflows when the integer part has more than 308
	// significant digits: always from 310 on, at 309 depending on
	// them. Skip the leading zeros only when the count could matter.
	if intDigits-a.digitsBefore-(c-gs) <= 308 {
		return true
	}
	for a.nz < intEnd && (a.nz < c || !isDigit(t[a.nz]) || t[a.nz] == '0') {
		if isDigit(t[a.nz]) {
			a.digitsBeforeNZ++
		}
		a.nz++
		s.steps++
	}
	switch significant := intDigits - a.digitsBeforeNZ; {
	case a.nz >= intEnd || significant <= 308:
		return true
	case significant >= 310:
		return false
	}
	// Exactly 309 significant digits: let ParseFloat decide on the
	// significant digits and the fraction.
	var buf [320]byte
	num := buf[:0]
	for i := a.nz; i < intEnd; i++ {
		if isDigit(t[i]) {
			num = append(num, t[i])
		}
	}
	if intEnd < a.q {
		num = append(append(num, '.'), t[intEnd+1:a.q]...)
	}
	s.steps += len(num)
	_, err := strconv.ParseFloat(string(num), 64)
	return err == nil
}

// symbolCode returns the currency of the symbol text[start:end], and
// false when the lower-cased symbol is no token (a fold such as the
// long s "ſ" matches case-insensitively but lower-cases to itself) or
// a letter symbol touches a letter.
func (s *scanner) symbolCode(start, end int) (string, bool) {
	var buf [16]byte
	token := appendLower(buf[:0], s.text[start:end])
	code, ok := tokenToCode[string(token)]
	if !ok || !boundaryOK(s.text, start, end, token) {
		return "", false
	}
	return code, true
}

// isSpace is the regexp's \s: ASCII space, tab, newline, form feed and
// carriage return.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isSep(c byte) bool { return c == '.' || c == ',' }
