package synthweb

import (
	"testing"

	"cookiewalk/internal/currency"
	"cookiewalk/internal/vantage"
)

// fullRegistry is generated once; scale-1 generation runs the built-in
// selfCheck, so constructing it at all already validates every paper
// marginal (Table 1 visibility, TLD/language/toplist/embedding splits,
// 196 blockable, 45 222 targets, SMP partner counts).
var fullRegistry = Generate(Config{Seed: 42})

func TestFullScaleMarginals(t *testing.T) {
	r := fullRegistry
	if len(r.TargetList()) != 45222 {
		t.Fatalf("target list = %d", len(r.TargetList()))
	}
	cws := r.CookiewallSites()
	inList := 0
	for _, s := range cws {
		if s.Lists.Len() > 0 {
			inList++
		}
	}
	if inList != 280 {
		t.Fatalf("in-list cookiewalls = %d", inList)
	}
	if n := r.SMP.PartnerCount("contentpass"); n != 219 {
		t.Fatalf("contentpass partners = %d", n)
	}
	if n := r.SMP.PartnerCount("freechoice"); n != 167 {
		t.Fatalf("freechoice partners = %d", n)
	}
}

func TestSeedIndependentMarginals(t *testing.T) {
	// Generate passes its built-in selfCheck (every paper marginal) at
	// scale 1 for ANY seed — the universe construction is not tuned to
	// one lucky seed. The generator panics on violation.
	for _, seed := range []uint64{1, 7, 123, 20231024} {
		r := Generate(Config{Seed: seed})
		if len(r.TargetList()) != 45222 {
			t.Fatalf("seed %d: targets = %d", seed, len(r.TargetList()))
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(Config{Seed: 7, FillerScale: 0.02})
	b := Generate(Config{Seed: 7, FillerScale: 0.02})
	if len(a.Sites()) != len(b.Sites()) {
		t.Fatal("site counts differ")
	}
	for i := range a.Sites() {
		if a.Sites()[i].Domain != b.Sites()[i].Domain {
			t.Fatalf("site %d differs: %s vs %s", i,
				a.Sites()[i].Domain, b.Sites()[i].Domain)
		}
	}
	c := Generate(Config{Seed: 8, FillerScale: 0.02})
	if a.Sites()[len(a.Sites())-1].Domain == c.Sites()[len(c.Sites())-1].Domain {
		t.Fatal("different seeds produced identical tail site")
	}
}

func TestLanguageVPCells(t *testing.T) {
	// Table 1 Language column: en sites visible per VP.
	r := fullRegistry
	want := map[string]int{
		"US East": 9, "US West": 9, "India": 10, "Australia": 10,
	}
	for vpName, wantN := range want {
		n := 0
		for _, s := range r.CookiewallSites() {
			if s.Lists.Len() > 0 && s.Language == "en" && s.ShowsBannerTo(vpName) {
				n++
			}
		}
		if n != wantN {
			t.Errorf("en visible from %s = %d, want %d", vpName, n, wantN)
		}
	}
	// Brazilian-list pt site must not be visible from Brazil (the
	// pt.climate-data.org footnote).
	for _, s := range r.CookiewallSites() {
		if s.Lists.Bucket("BR") != 0 {
			if s.ShowsBannerTo("Brazil") {
				t.Error("BR-list cookiewall visible from Brazil")
			}
			if !s.ShowsBannerTo("Germany") || !s.ShowsBannerTo("Sweden") {
				t.Error("BR-list cookiewall must show from DE/SE")
			}
		}
	}
}

func TestPricesLandInBuckets(t *testing.T) {
	for _, s := range fullRegistry.CookiewallSites() {
		if s.MonthlyEUR <= 0 {
			t.Fatalf("%s: no price", s.Domain)
		}
		b := currency.Bucket(s.MonthlyEUR)
		if b < 1 || b > 10 {
			t.Fatalf("%s: bucket %d", s.Domain, b)
		}
		if s.Provider.SMP && b != 3 {
			t.Fatalf("SMP site %s in bucket %d", s.Domain, b)
		}
	}
}

func TestPriceECDFShape(t *testing.T) {
	// §4.2: ~80% charge <= 3 EUR, ~90% <= 4 EUR, a handful >= 8 EUR.
	var le3, le4, ge8, total int
	for _, s := range fullRegistry.CookiewallSites() {
		if s.Lists.Len() == 0 {
			continue
		}
		total++
		if s.MonthlyEUR <= 3.005 {
			le3++
		}
		if s.MonthlyEUR <= 4.005 {
			le4++
		}
		if s.MonthlyEUR > 8 {
			ge8++
		}
	}
	if f := float64(le3) / float64(total); f < 0.78 || f > 0.82 {
		t.Errorf("P(price<=3) = %.3f", f)
	}
	if f := float64(le4) / float64(total); f < 0.87 || f > 0.92 {
		t.Errorf("P(price<=4) = %.3f", f)
	}
	if ge8 < 3 || ge8 > 8 {
		t.Errorf("high-price sites = %d", ge8)
	}
}

func TestDecoys(t *testing.T) {
	n := 0
	for _, s := range fullRegistry.Sites() {
		if s.Decoy {
			n++
			if s.Banner != BannerRegular {
				t.Error("decoy must carry a regular banner")
			}
			if s.Lists.Len() == 0 || !s.Reachable {
				t.Error("decoy must be a reachable list member")
			}
		}
	}
	if n != 5 {
		t.Fatalf("decoys = %d", n)
	}
}

func TestQuirkSites(t *testing.T) {
	var anti, scroll int
	for _, s := range fullRegistry.CookiewallSites() {
		if s.AntiAdblock {
			anti++
			if !s.Provider.Listed {
				t.Error("anti-adblock quirk must be on a blocked site")
			}
		}
		if s.ScrollLock {
			scroll++
		}
	}
	if anti != 1 || scroll != 1 {
		t.Fatalf("quirks = %d anti, %d scroll", anti, scroll)
	}
}

func TestGermanOnlySites(t *testing.T) {
	n := 0
	for _, s := range fullRegistry.CookiewallSites() {
		if s.Lists.Len() == 0 {
			continue
		}
		if len(s.ShowToVPs) == 1 && s.ShowToVPs[0] == "Germany" {
			n++
		}
	}
	if n != 4 {
		t.Fatalf("Germany-only cookiewalls = %d, want 4 (Sweden sees 276)", n)
	}
}

func TestScaledRegistryStructure(t *testing.T) {
	r := Generate(Config{Seed: 3, FillerScale: 0.02})
	// Cookiewall structure is never scaled.
	inList := 0
	for _, s := range r.CookiewallSites() {
		if s.Lists.Len() > 0 {
			inList++
		}
	}
	if inList != 280 {
		t.Fatalf("scaled registry cookiewalls = %d", inList)
	}
	// Filler shrinks.
	if len(r.Sites()) >= len(fullRegistry.Sites())/10 {
		t.Fatalf("scaled registry too large: %d sites", len(r.Sites()))
	}
	// Target list still contains every in-list cookiewall.
	targets := map[string]bool{}
	for _, d := range r.TargetList() {
		targets[d] = true
	}
	for _, s := range r.CookiewallSites() {
		if s.Lists.Len() > 0 && !targets[s.Domain] {
			t.Fatalf("cookiewall %s missing from target list", s.Domain)
		}
	}
}

func TestSiteLookup(t *testing.T) {
	r := fullRegistry
	d := r.TargetList()[0]
	s, ok := r.Site(d)
	if !ok || s.Domain != d {
		t.Fatalf("Site(%q) = %v, %v", d, s, ok)
	}
	if _, ok := r.Site("no-such-site.example"); ok {
		t.Fatal("found unregistered site")
	}
}

func TestUniqueDomains(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range fullRegistry.Sites() {
		if seen[s.Domain] {
			t.Fatalf("duplicate domain %s", s.Domain)
		}
		seen[s.Domain] = true
	}
}

func TestTopListBuckets(t *testing.T) {
	// German top-1k: 80 cookiewalls, ~941 reachable entries -> 8.5%.
	r := fullRegistry
	var cw1k, reach1k int
	for _, s := range r.Sites() {
		b, ok := s.OnList("DE")
		if !ok || b != 1000 {
			continue
		}
		if s.Reachable {
			reach1k++
			if s.Banner == BannerCookiewall {
				cw1k++
			}
		}
	}
	if cw1k != 80 {
		t.Errorf("DE top-1k cookiewalls = %d, want 80", cw1k)
	}
	rate := float64(cw1k) / float64(reach1k)
	if rate < 0.080 || rate > 0.090 {
		t.Errorf("DE top-1k rate = %.4f, want ~0.085", rate)
	}
}

func TestVantageNamesResolve(t *testing.T) {
	// Every VP name used in visibility policies must exist.
	for _, s := range fullRegistry.Sites() {
		for _, name := range s.ShowToVPs {
			if _, ok := vantage.ByName(name); !ok {
				t.Fatalf("site %s references unknown VP %q", s.Domain, name)
			}
		}
	}
}

func TestCookieProfileShapes(t *testing.T) {
	// Medians across the ground-truth profiles should sit near the
	// Figure 4/5 values. Exact medians are asserted at the measurement
	// layer; here we sanity-check the generator's raw profiles.
	var cwTracking, smpTracking, regTracking []int
	for _, s := range fullRegistry.Sites() {
		switch {
		case s.Banner == BannerCookiewall && s.Lists.Len() > 0:
			cwTracking = append(cwTracking, s.Cookies.PostTracking)
			if s.Provider.SMP {
				smpTracking = append(smpTracking, s.Cookies.PostTracking)
			}
		case s.Banner == BannerRegular && !s.Decoy:
			regTracking = append(regTracking, s.Cookies.PostTracking)
		}
	}
	if m := medianInt(cwTracking); m < 30 || m > 60 {
		t.Errorf("cookiewall tracking median = %d, want ~43", m)
	}
	if m := medianInt(smpTracking); m < 12 || m > 20 {
		t.Errorf("SMP tracking median = %d, want ~16", m)
	}
	if m := medianInt(regTracking); m > 2 {
		t.Errorf("regular tracking median = %d, want ~1", m)
	}
	// SMP subscription mode: zero tracking by construction.
	for _, s := range fullRegistry.Sites() {
		if s.Provider.SMP && s.Cookies.SubFP == 0 {
			t.Fatalf("SMP site %s lacks subscription profile", s.Domain)
		}
	}
}

func medianInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	c := make([]int, len(xs))
	copy(c, xs)
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	return c[len(c)/2]
}

func BenchmarkGenerateFullScale(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(Config{Seed: uint64(i)})
	}
}
