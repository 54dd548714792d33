package currency

import "testing"

// BenchmarkFindPrices scans a two-price cookiewall text the way banner
// description does: into a price slice reused across calls.
func BenchmarkFindPrices(b *testing.B) {
	text := []byte("Mit Werbung kostenlos weiterlesen oder werbefrei im Abo für nur 2,99 € pro Monat bzw. 29,99 € pro Jahr. Jetzt abonnieren und ohne Tracking lesen.")
	var ps []Price
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ps = AppendPrices(ps[:0], text); len(ps) != 2 {
			b.Fatal("wrong count")
		}
	}
}

func BenchmarkFindPricesNoMatch(b *testing.B) {
	text := []byte("We and our partners use cookies to personalise content and analyse our traffic on this website.")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if HasPrice(text) {
			b.Fatal("unexpected match")
		}
	}
}
