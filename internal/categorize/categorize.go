// Package categorize assigns websites to content categories, standing
// in for the FortiGuard Web-filter database the paper uses for
// Figure 1. Unlike FortiGuard (a domain->category oracle), this
// classifier works from page text, which is strictly harder and keeps
// the analysis honest: the measurement pipeline categorizes what it
// crawled, not what the registry says.
//
// The taxonomy is the 15 categories Figure 1 reports plus "Others".
// Keywords are multilingual because the study's sites are mostly
// German, with English, Italian, Swedish, French, Spanish, Portuguese,
// Dutch and Danish minorities.
package categorize

import (
	"sort"
	"unicode"
	"unicode/utf8"
)

// keywords maps category -> distinctive content words (lower-case).
// Page generators in webfarm weave a few of these into body text; the
// classifier counts weighted hits.
var keywords = map[string][]string{
	// "redaktion"/"presse" are deliberately absent: editorial boilerplate
	// mentions them on sites of every category, so they do not
	// discriminate.
	"News and Media": {"nachrichten", "news", "schlagzeilen", "politik",
		"notizie", "nyheter", "actualites", "noticias", "nieuws",
		"breaking", "journalismus", "headline"},
	"Business": {"business", "unternehmen", "firma", "handel", "b2b",
		"industrie", "mittelstand", "azienda", "empresa", "entreprise",
		"commerce", "logistik", "management"},
	"Information Technology": {"software", "hardware", "technik", "tech",
		"computer", "programmierung", "cloud", "server", "digital",
		"tecnologia", "teknik", "informatique", "entwickler", "coding"},
	"Entertainment": {"unterhaltung", "entertainment", "kino", "film",
		"serie", "promi", "stars", "celebrity", "musica", "cinema",
		"konzert", "show", "streaming"},
	"Sports": {"sport", "fussball", "bundesliga", "calcio", "football",
		"tennis", "olympia", "liga", "match", "turnier", "deportes",
		"sporten", "verein", "training"},
	"Reference": {"lexikon", "enzyklopädie", "wörterbuch", "referenz",
		"reference", "dictionary", "wiki", "encyclopedia", "datenbank",
		"archiv", "bibliothek", "nachschlagewerk"},
	"Society and Lifestyles": {"lifestyle", "gesellschaft", "mode",
		"fashion", "wohnen", "familie", "leben", "trends", "beauty",
		"kultur", "sociedad", "samhälle", "stil"},
	"Search Engines and Portals": {"suchmaschine", "portal", "suche",
		"search", "verzeichnis", "startseite", "webkatalog", "index",
		"directory", "links"},
	"Health and Wellness": {"gesundheit", "health", "medizin", "arzt",
		"ernährung", "fitness", "wellness", "salute", "salud", "hälsa",
		"saude", "apotheke", "therapie", "symptome"},
	"Games": {"spiele", "games", "gaming", "konsole", "videospiele",
		"zocken", "giochi", "spel", "jeux", "juegos", "esports",
		"playstation", "nintendo"},
	"Web-based Email": {"email", "e-mail", "webmail", "posteingang",
		"mail", "postfach", "inbox", "correo", "courriel"},
	"Travel": {"reise", "travel", "urlaub", "hotel", "flug", "viaggi",
		"resor", "voyage", "viajes", "viagens", "tourismus", "strand",
		"buchung"},
	"Personal Vehicles": {"auto", "fahrzeug", "motorrad", "pkw", "cars",
		"automobil", "motori", "bil", "voiture", "coche", "carro",
		"werkstatt", "tuning"},
	"Restaurant and Dining": {"restaurant", "rezepte", "kochen", "essen",
		"gastronomie", "cucina", "recept", "recettes", "recetas",
		"culinaria", "menü", "dining", "kulinarisch"},
	"Finance and Banking": {"finanzen", "bank", "börse", "aktien",
		"kredit", "geld", "finance", "banking", "invest", "sparen",
		"finanza", "ekonomi", "bourse", "bolsa", "zinsen"},
}

// others is the category Classify returns when no keyword scores.
const others = "Others"

// KnownCategory returns the taxonomy's own copy of the category b
// spells when Classify can return it (one of the 15 keyword categories,
// or "Others"), without allocating; ok is false for any other bytes.
func KnownCategory(b []byte) (category string, ok bool) {
	for _, c := range sortedCats {
		if c == string(b) {
			return c, true
		}
	}
	if string(b) == others {
		return others, true
	}
	return "", false
}

// Keywords returns the keyword list for a category ("Others" and
// unknown categories return nil). The returned slice is a copy.
func Keywords(category string) []string {
	ks := keywords[category]
	if ks == nil {
		return nil
	}
	out := make([]string, len(ks))
	copy(out, ks)
	return out
}

// Keyword returns keyword i, modulo the list length, of a category
// without copying its list; ok is false for categories with no keywords
// ("Others" and unknown ones). i must not be negative.
func Keyword(category string, i int) (kw string, ok bool) {
	ks := keywords[category]
	if len(ks) == 0 {
		return "", false
	}
	return ks[i%len(ks)], true
}

// Classify returns the best-matching category for page text, falling
// back to "Others" when no keyword scores. Ties break alphabetically
// for determinism.
//
// Scoring streams over the text in one pass: each token is lower-cased
// into a reusable buffer and looked up once in a combined
// keyword→categories bitmask table — no lowered copy of the whole
// text, no token slice, no per-page word-count map. A category's score
// is the number of tokens belonging to its keyword list, exactly the
// sum the per-category counting computed.
func Classify(text string) string {
	var scores [16]int // indexed by sortedCats position
	tokens := 0
	var buf [64]byte // stack token buffer (no closure, so it never escapes)
	word := buf[:0]
	for i := 0; i < len(text); {
		// ASCII fast path: lower-case and classify bytewise; everything
		// else goes through the same unicode calls as before. Lowering
		// happens before the letter test, exactly like FieldsFunc over
		// strings.ToLower(text).
		if c := text[i]; c < utf8.RuneSelf {
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if (c >= 'a' && c <= 'z') || c == '-' {
				word = append(word, c)
				i++
				continue
			}
			i++
		} else {
			r, size := utf8.DecodeRuneInString(text[i:])
			i += size
			if lr := unicode.ToLower(r); unicode.IsLetter(lr) || lr == '-' {
				word = utf8.AppendRune(word, lr)
				continue
			}
		}
		if len(word) > 0 {
			tokens++
			addCatScores(&scores, word)
			word = word[:0]
		}
	}
	if len(word) > 0 {
		tokens++
		addCatScores(&scores, word)
	}
	if tokens == 0 {
		return others
	}
	best, bestScore := others, 0
	for i, cat := range sortedCats {
		if scores[i] > bestScore {
			best, bestScore = cat, scores[i]
		}
	}
	return best
}

// addCatScores credits every category whose keyword list contains the
// token. The map index converts without allocating.
func addCatScores(scores *[16]int, word []byte) {
	mask := keywordCats[string(word)]
	for i := 0; mask != 0; i++ {
		if mask&1 != 0 {
			scores[i]++
		}
		mask >>= 1
	}
}

// sortedCats is the taxonomy in the alphabetical tie-break order
// Classify scans; keywordCats maps each keyword to the bitmask (over
// sortedCats positions) of categories listing it.
var sortedCats = func() []string {
	cats := make([]string, 0, len(keywords))
	for c := range keywords {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	if len(cats) > 16 {
		panic("categorize: more categories than the score array holds")
	}
	return cats
}()

var keywordCats = func() map[string]uint16 {
	m := make(map[string]uint16, 256)
	for i, cat := range sortedCats {
		for _, kw := range keywords[cat] {
			m[kw] |= uint16(1) << i
		}
	}
	return m
}()
