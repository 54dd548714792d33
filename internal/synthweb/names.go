package synthweb

import (
	"bytes"
	"fmt"
	"strconv"

	"cookiewalk/internal/xrand"
)

// Domain name generation: plausible, language-flavoured, unique,
// deterministic. Names never collide with infrastructure domains
// (trackers, CMPs, SMPs) because those all live on fixed hosts under
// .example that contain reserved words we never emit here.

var nameStems = map[string][]string{
	"de": {"nachrichten", "zeitung", "sport", "auto", "finanz", "wetter",
		"gesundheit", "reise", "technik", "boerse", "kino", "rezepte",
		"immobilien", "spiele", "mode", "politik", "wirtschaft", "garten",
		"musik", "foto", "bau", "tier", "recht", "familie", "stadt"},
	"en": {"daily", "herald", "tribune", "gazette", "sports", "tech",
		"finance", "travel", "health", "games", "recipes", "motor",
		"weather", "market", "stream", "review", "insider", "pulse",
		"wire", "digest", "journal", "chronicle", "beacon", "monitor"},
	"it": {"notizie", "giornale", "calcio", "cucina", "viaggi", "salute",
		"tecnologia", "economia", "meteo", "motori", "moda", "musica"},
	"sv": {"nyheter", "tidning", "sporten", "resor", "halsa", "teknik",
		"ekonomi", "vader", "matlagning", "musik", "bostad", "spel"},
	"fr": {"actualites", "journal", "sportif", "cuisine", "voyage",
		"sante", "technologie", "economie", "meteo", "musique"},
	"es": {"noticias", "diario", "deportes", "cocina", "viajes", "salud",
		"tecnologia", "economia", "tiempo", "musica"},
	"pt": {"noticias", "diario", "esportes", "culinaria", "viagens",
		"saude", "tecnologia", "economia", "clima", "musica"},
	"nl": {"nieuws", "krant", "sporten", "koken", "reizen", "gezond",
		"techniek", "economie", "weerbericht", "muziek"},
	"da": {"nyheder", "avisen", "sporten", "rejser", "sundhed", "teknik",
		"okonomi", "vejret", "madlavning", "musikken"},
	"af": {"nuus", "koerant", "sporte", "reise", "gesondheid", "tegnologie",
		"ekonomie", "weerberig", "kos", "musiek"},
}

var nameSuffixes = []string{"", "24", "-heute", "-online", "-aktuell",
	"-live", "-plus", "-now", "-hub", "-net", "-today", "-info", "-zone",
	"-base", "-point", "-world", "-land", "-direct", "-go", "-pro"}

// nameFactory issues unique domain names. Each attempt is built in buf
// and probed against used without allocating; only the winning name
// becomes a string.
type nameFactory struct {
	used map[string]bool
	rng  *xrand.Rand
	n    int
	buf  []byte
}

func newNameFactory(rng *xrand.Rand, sizeHint int) *nameFactory {
	return &nameFactory{used: make(map[string]bool, sizeHint), rng: rng.Fork("names")}
}

var reservedWord = []byte("example")

// next returns a fresh domain for the given language and TLD. Every
// attempt draws stem, suffix and, after the ninth, a number, in that
// order: the draws are part of the universe's seed contract.
func (f *nameFactory) next(lang, tld string) string {
	stems := nameStems[lang]
	if len(stems) == 0 {
		stems = nameStems["en"]
	}
	for attempt := 0; attempt < 64; attempt++ {
		b := append(f.buf[:0], stems[f.rng.Intn(len(stems))]...)
		b = append(b, nameSuffixes[f.rng.Intn(len(nameSuffixes))]...)
		if attempt > 8 {
			b = strconv.AppendInt(b, int64(f.rng.Intn(1000)), 10)
		}
		b = append(b, '.')
		b = append(b, tld...)
		f.buf = b
		if !f.used[string(b)] && !bytes.Contains(b, reservedWord) {
			domain := string(b)
			f.used[domain] = true
			return domain
		}
	}
	// Guaranteed-unique fallback.
	f.n++
	domain := fmt.Sprintf("site-%s-%06d.%s", lang, f.n, tld)
	f.used[domain] = true
	return domain
}

// Categories of Figure 1, in display order, plus "Others".
var Categories = []string{
	"News and Media",
	"Business",
	"Information Technology",
	"Entertainment",
	"Sports",
	"Reference",
	"Society and Lifestyles",
	"Search Engines and Portals",
	"Health and Wellness",
	"Games",
	"Web-based Email",
	"Travel",
	"Personal Vehicles",
	"Restaurant and Dining",
	"Finance and Banking",
	"Others",
}
