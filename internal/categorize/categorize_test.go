package categorize

import (
	"slices"
	"testing"

	"cookiewalk/internal/synthweb"
)

func TestClassifyByKeywords(t *testing.T) {
	cases := map[string]string{
		"Aktuelle Nachrichten und Schlagzeilen aus der Politik":   "News and Media",
		"Bundesliga heute: der Verein gewinnt das Match im Sport": "Sports",
		"Neue Software und Cloud Server für Entwickler":           "Information Technology",
		"Rezepte zum Kochen und Essen im Restaurant":              "Restaurant and Dining",
		"Aktien und Börse: Kredit und Zinsen bei der Bank":        "Finance and Banking",
		"Urlaub buchen: Hotel und Flug für die Reise":             "Travel",
		"Gesundheit und Fitness: Tipps vom Arzt":                  "Health and Wellness",
		"Auto und Motorrad: PKW Werkstatt Tuning":                 "Personal Vehicles",
		"Die besten Spiele und Gaming Konsole Tests":              "Games",
	}
	for text, want := range cases {
		if got := Classify(text); got != want {
			t.Errorf("Classify(%q) = %q, want %q", text, got, want)
		}
	}
}

func TestClassifyMultilingual(t *testing.T) {
	cases := map[string]string{
		"Le notizie di oggi: politica e breaking news": "News and Media",
		"Calcio e tennis: la liga in diretta":          "Sports",
		"Resor och hotell: boka din semester idag":     "Travel",
		"Recetas de cocina para toda la familia":       "Restaurant and Dining",
	}
	for text, want := range cases {
		if got := Classify(text); got != want {
			t.Errorf("Classify(%q) = %q, want %q", text, got, want)
		}
	}
}

func TestClassifyFallback(t *testing.T) {
	if got := Classify("lorem ipsum dolor sit amet"); got != "Others" {
		t.Fatalf("fallback = %q", got)
	}
	if got := Classify(""); got != "Others" {
		t.Fatalf("empty = %q", got)
	}
}

func TestClassifyDeterministic(t *testing.T) {
	text := "sport nachrichten"
	first := Classify(text)
	for i := 0; i < 20; i++ {
		if Classify(text) != first {
			t.Fatal("nondeterministic tie-break")
		}
	}
}

// TestCategoriesMatchFigure1 checks the taxonomy the generator and the
// report use against the classifier's keyword table.
func TestCategoriesMatchFigure1(t *testing.T) {
	cats := synthweb.Categories
	if len(cats) != 16 {
		t.Fatalf("got %d categories", len(cats))
	}
	if cats[0] != "News and Media" || cats[15] != "Others" {
		t.Fatal("Figure 1 order broken")
	}
	for _, c := range cats[:15] {
		if len(Keywords(c)) == 0 {
			t.Errorf("category %q has no keywords", c)
		}
	}
	if Keywords("Others") != nil {
		t.Fatal("Others must have no keywords")
	}
}

func TestKeywordsReturnsCopy(t *testing.T) {
	k := Keywords("Sports")
	k[0] = "mutated"
	if Keywords("Sports")[0] == "mutated" {
		t.Fatal("Keywords leaks internal slice")
	}
}

func TestKeywordIndexesKeywords(t *testing.T) {
	for _, cat := range append(slices.Clone(synthweb.Categories), "unknown") {
		ks := Keywords(cat)
		if _, ok := Keyword(cat, 0); ok != (len(ks) > 0) {
			t.Errorf("Keyword(%q, 0) ok = %v with %d keywords", cat, ok, len(ks))
		}
		for i := range 2 * len(ks) {
			if kw, _ := Keyword(cat, i); kw != ks[i%len(ks)] {
				t.Errorf("Keyword(%q, %d) = %q, want %q", cat, i, kw, ks[i%len(ks)])
			}
		}
	}
}

func TestKeywordsAreSelfClassifying(t *testing.T) {
	// Every category must be recoverable from a sentence built of its
	// own first three keywords — the generator relies on this.
	for _, cat := range synthweb.Categories[:15] {
		ks := Keywords(cat)
		text := ks[0] + " und " + ks[1] + " sowie " + ks[2]
		if got := Classify(text); got != cat {
			t.Errorf("category %q self-classifies as %q", cat, got)
		}
	}
}
