package currency

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// scanSteps runs the scanner over text to the end and returns the
// steps it counted.
func scanSteps(text string) int {
	s := scanner{text: []byte(text)}
	for _, ok := s.next(); ok; _, ok = s.next() {
	}
	return s.steps
}

// TestScannerStepsLinear pins the scanner's work as linear in the
// text's length on the inputs that made the regexp search quadratic:
// each family is scanned at n and 2n repetitions, and the step count
// may at most double, with a little slack for the fixed part.
func TestScannerStepsLinear(t *testing.T) {
	families := []struct {
		name string
		text func(n int) string
	}{
		// Rejected candidates: letter-bound symbols, runs that reach a
		// symbol the boundary check rejects, symbols without a number.
		{"rejected symbols", func(n int) string { return strings.Repeat("xr1.1.1.1 kr5x ", n) }},
		{"rejected runs", func(n int) string { return strings.Repeat("1.1.1.1.1.1 krx ", n) }},
		{"bare symbols", func(n int) string { return strings.Repeat("€ $ rs. ", n) }},
		// One long run of digits and separators, every start a
		// rejected candidate but the last few.
		{"dot run", func(n int) string { return strings.Repeat("1.", n) + "1 €" }},
		{"mixed run", func(n int) string { return strings.Repeat("1,1.", n) + "5 €" }},
		{"overflowing run", func(n int) string { return strings.Repeat("111.", n) + "111 €" }},
		{"leading zeros", func(n int) string {
			// 309 significant digits: ParseFloat decides each start.
			return strings.Repeat("000.", n) + strings.Repeat("999.", 102) + "999 €"
		}},
		{"symbol before run", func(n int) string { return "€ " + strings.Repeat("1.", n) + "1 €" }},
	}
	for _, f := range families {
		n := 400
		small, large := scanSteps(f.text(n)), scanSteps(f.text(2*n))
		t.Logf("%s: %d steps at n=%d, %d at 2n", f.name, small, n, large)
		if float64(large) > 2.1*float64(small) {
			t.Errorf("%s: %d steps at n=%d but %d at 2n: not linear", f.name, small, n, large)
		}
	}
}

// TestScannerMatchesReferenceRandom drives the scanner and the regexp
// reference over random texts built from the pieces prices are made
// of, which a byte-level fuzzer seldom puts together.
func TestScannerMatchesReferenceRandom(t *testing.T) {
	pieces := []string{
		"0", "1", "2", "9", "12", "123", "1234", "12345", ".", ",", " ", "\t", "\v", "\u00a0",
		"€", "$", "£", "₹", "¥", "eur", "EUR", "euro", "r", "R", "r$", "rs", "rs.", "Rs.", "kr", "KR",
		"\u212A", "\u017F", "sek", "chf", "a$", "yuan", "x", "ü", "für ", "/monat", " pro Jahr", "İ", "\xff", "\xe2\x82",
	}
	// Amounts at ParseFloat's overflow edge: 309 integer digits above
	// and below the largest float64, behind leading zeros.
	for _, text := range []string{
		strings.Repeat("999.", 102) + "999 €",
		"100" + strings.Repeat(".000", 102) + ",5 €",
		"179" + strings.Repeat(".769", 102) + " €",
		"0." + strings.Repeat("000.", 50) + "100" + strings.Repeat(".000", 102) + " €",
		"€ " + strings.Repeat("999.", 102) + "999",
	} {
		if got, want := scanPrices(text), refFindPrices(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\nscanner   %+v\nreference %+v", text, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(12); n >= 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		text := b.String()
		if got, want := scanPrices(text), refFindPrices(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\nscanner   %+v\nreference %+v", text, got, want)
		}
	}
}
