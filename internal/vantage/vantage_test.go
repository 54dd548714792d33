package vantage

import "testing"

func TestAllEightVPs(t *testing.T) {
	vps := All()
	if len(vps) != 8 {
		t.Fatalf("got %d VPs", len(vps))
	}
	// Table 1 row order.
	wantOrder := []string{"US East", "US West", "Brazil", "Germany",
		"Sweden", "South Africa", "India", "Australia"}
	for i, w := range wantOrder {
		if vps[i].Name != w {
			t.Errorf("row %d = %s, want %s", i, vps[i].Name, w)
		}
	}
}

func TestRegulations(t *testing.T) {
	checks := map[string]Regulation{
		"Germany": RegGDPR, "Sweden": RegGDPR,
		"US West": RegCCPA, "Brazil": RegLGPD,
		"US East": RegNone, "India": RegNone,
	}
	for name, want := range checks {
		vp, ok := ByName(name)
		if !ok || vp.Regulation != want {
			t.Errorf("%s: regulation %v (found %v)", name, vp.Regulation, ok)
		}
	}
}

func TestIsEU(t *testing.T) {
	for _, v := range All() {
		wantEU := v.Country == "DE" || v.Country == "SE"
		if v.IsEU() != wantEU {
			t.Errorf("%s: IsEU = %v", v.Name, v.IsEU())
		}
	}
}

func TestByNameMissing(t *testing.T) {
	if _, ok := ByName("Atlantis"); ok {
		t.Fatal("found non-existent VP")
	}
}

func TestByCountry(t *testing.T) {
	vp, ok := ByCountry("US")
	if !ok || vp.Name != "US East" {
		t.Fatalf("ByCountry(US) = %v, %v", vp.Name, ok)
	}
	if _, ok := ByCountry("XX"); ok {
		t.Fatal("found non-existent country")
	}
}

func TestCountriesDistinct(t *testing.T) {
	cs := Countries()
	if len(cs) != 7 { // two US VPs share a toplist country
		t.Fatalf("countries = %v", cs)
	}
	if len(cs) != NumCountries {
		t.Fatalf("len(Countries()) = %d, NumCountries = %d", len(cs), NumCountries)
	}
	seen := map[string]bool{}
	for i, c := range cs {
		if seen[c] {
			t.Fatalf("duplicate country %s", c)
		}
		seen[c] = true
		if j, ok := CountryIndex(c); !ok || j != i {
			t.Fatalf("CountryIndex(%s) = %d, %v; want %d", c, j, ok, i)
		}
	}
	if _, ok := CountryIndex("XX"); ok {
		t.Fatal("CountryIndex found a country without a vantage point")
	}
}

func TestCountriesAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is exact; skip in -short/-race runs")
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = Countries()
		_, _ = CountryIndex("SE")
	}); n != 0 {
		t.Fatalf("Countries + CountryIndex allocate %.0f times", n)
	}
}

func TestRegulationString(t *testing.T) {
	if RegGDPR.String() != "GDPR" || RegNone.String() != "none" ||
		RegCCPA.String() != "CCPA" || RegLGPD.String() != "LGPD" {
		t.Fatal("Regulation.String wrong")
	}
}

func TestAllReturnsCopy(t *testing.T) {
	a := All()
	a[0].Name = "mutated"
	if All()[0].Name == "mutated" {
		t.Fatal("All leaks internal slice")
	}
}

func TestTable1Languages(t *testing.T) {
	// The Language column of Table 1 depends on these assignments:
	// South Africa must NOT be English (its row shows 0), India and
	// Australia must be English (10 each).
	za, _ := ByName("South Africa")
	if za.MainLanguage == "en" {
		t.Fatal("South Africa main language must not be en")
	}
	for _, name := range []string{"India", "Australia", "US East", "US West"} {
		vp, _ := ByName(name)
		if vp.MainLanguage != "en" {
			t.Errorf("%s main language = %s", name, vp.MainLanguage)
		}
	}
}
