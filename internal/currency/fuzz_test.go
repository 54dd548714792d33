package currency

import (
	"reflect"
	"strings"
	"testing"
)

// FindPrices is AppendPrices on a string, for tests.
func FindPrices(text string) []Price { return AppendPrices(nil, []byte(text)) }

// scanPrices runs the scanner over text and returns every price with
// the text it was read from, the form the reference returns.
func scanPrices(text string) []refPrice {
	var out []refPrice
	b := []byte(text)
	s := scanner{text: b}
	for m, ok := s.next(); ok; m, ok = s.next() {
		out = append(out, refPrice{
			Price: Price{Amount: m.amount, Code: m.code, Period: detectPeriod(b, m.start, m.end)},
			Raw:   text[m.start:m.end],
		})
	}
	return out
}

// FuzzFindPrices checks the scanner against the regexp search it
// replaced (price_ref_test.go): the same prices with the same matched
// text, in the same order, on every input. HasPrice must agree with
// whether any price exists, and AppendPrices with the scanner.
func FuzzFindPrices(f *testing.F) {
	for _, s := range []string{
		"3,99 € pro Monat",
		"$3.99 3.99$ 3.99 $ $ 3.99",
		"für 2,99 € bzw. 29,99 € pro Jahr",
		"R$9,90 A$5 Rs. 99 ¥25 34 kr",
		"€€€€ 1,2,3,4 .... $$",
		"1.299,00 € und 1,299.00 $",
		"€" + "9999999999999",
		"kr kr kr 5 kr",
		"12345€",
		"1.2345€",
		"rs. 5 rs.5 r$ 5 R$5 Rs 5 RS. 5 rS 5",
		"5 rs.x 5 rs. 5 Rs",
		// Case folds: the Kelvin sign folds to k, the long s to s; the
		// lower-cased long s is no token.
		"39 Kr 39 \u212Ar 5 \u017Fek 5 r\u017F 5 u\u017Fd \u212Ar5",
		strings.Repeat("1.", 40) + "1 €",
		strings.Repeat("1,1.", 30) + "5 €",
		strings.Repeat("111.", 120) + "111 €",
		"€ " + strings.Repeat("1.", 50) + "1 €",
		"0." + strings.Repeat("000.", 110) + strings.Repeat("9", 3) + " €",
		"\xffr 5\xe2\x82 5 \xe2\x82\xac5 KR\u0301 5",
		"2,99 € / Monat, 29,99 € /JAHR, 0,99 € WEEKLY İİİİ 1 € pro Woche",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		got, want := scanPrices(text), refFindPrices(text)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\nscanner   %+v\nreference %+v", text, got, want)
		}
		if has := HasPrice([]byte(text)); has != (len(want) > 0) {
			t.Fatalf("%q: HasPrice = %v with %d prices", text, has, len(want))
		}
		all := FindPrices(text)
		if len(all) != len(got) {
			t.Fatalf("%q: AppendPrices found %d prices, the scanner %d", text, len(all), len(got))
		}
		for i, p := range all {
			if p != got[i].Price {
				t.Fatalf("%q: AppendPrices[%d] = %+v, scanner %+v", text, i, p, got[i].Price)
			}
		}
	})
}
