// Package langdetect identifies the language of website text. It
// substitutes for CLD3 in the paper (§4.1, "we inspect the language of
// the cookiewall websites using CLD3 to characterize the main target
// audience").
//
// The classifier is a weighted stopword scorer with diacritic hints:
// function words are near-perfect discriminators for the languages the
// study encounters (German, English, Italian, Swedish, French, Spanish,
// Portuguese, Dutch, Danish, Afrikaans), they are extremely frequent,
// and the approach is fully deterministic — no model files needed.
package langdetect

import (
	"sort"
	"unicode"
	"unicode/utf8"
)

// Result is a language detection outcome.
type Result struct {
	// Lang is an ISO 639-1 code, or "und" when undetermined.
	Lang string
	// Confidence is the winning share of the total score in [0,1].
	Confidence float64
}

// undetermined is the code Detect returns when no language wins.
const undetermined = "und"

// KnownCode returns the detector's own copy of the code b spells when
// Detect can return it (any of Languages, or "und"), without
// allocating; ok is false for any other bytes.
func KnownCode(b []byte) (code string, ok bool) {
	if i, ok := langIndex[string(b)]; ok {
		return langCodes[i], true
	}
	if string(b) == undetermined {
		return undetermined, true
	}
	return "", false
}

// Languages returns the ISO codes the detector can distinguish, sorted.
func Languages() []string {
	out := make([]string, 0, len(stopwords))
	for l := range stopwords {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// stopwords maps language code to highly frequent function words.
// Words shared between languages (e.g. "in" de/en/it, "de" fr/es/pt/nl)
// are fine: they contribute to several scores and the distinctive rest
// decides.
var stopwords = map[string][]string{
	"de": {"und", "der", "die", "das", "nicht", "mit", "für", "auf", "ist",
		"sie", "wir", "ein", "eine", "von", "zu", "den", "im", "auch",
		"werden", "oder", "bei", "nur", "alle", "wird", "ihre", "unsere",
		"können", "ohne", "mehr", "zur", "zum", "durch", "über"},
	"en": {"the", "and", "of", "to", "in", "is", "you", "that", "it",
		"for", "with", "are", "this", "your", "our", "all", "can",
		"will", "more", "about", "use", "we", "on", "by", "or", "from"},
	"it": {"il", "la", "di", "che", "e", "un", "una", "per", "con", "del",
		"della", "sono", "non", "più", "questo", "nostro", "tutti",
		"anche", "come", "dei", "delle", "gli", "nel", "alla", "senza"},
	"sv": {"och", "att", "det", "som", "på", "är", "av", "för", "med",
		"den", "till", "inte", "om", "ett", "vi", "du", "kan", "din",
		"våra", "alla", "eller", "har", "från", "utan", "mer"},
	"fr": {"le", "la", "les", "des", "et", "est", "vous", "que", "pour",
		"dans", "une", "nous", "avec", "sur", "votre", "nos", "tous",
		"pas", "plus", "aux", "ces", "sans", "être", "sont", "ou"},
	"es": {"el", "la", "los", "las", "de", "que", "y", "en", "un", "una",
		"es", "para", "con", "su", "por", "más", "como", "nuestro",
		"todos", "sin", "usted", "puede", "este", "sobre", "o"},
	"pt": {"o", "a", "os", "as", "de", "que", "e", "em", "um", "uma",
		"é", "para", "com", "seu", "sua", "por", "mais", "como",
		"nosso", "todos", "sem", "você", "pode", "este", "ou", "não"},
	"nl": {"de", "het", "een", "en", "van", "is", "dat", "op", "te",
		"met", "voor", "zijn", "niet", "aan", "ook", "als", "bij",
		"naar", "uw", "onze", "alle", "kunnen", "zonder", "meer", "of"},
	"da": {"og", "det", "at", "en", "den", "til", "er", "som", "på",
		"de", "med", "for", "ikke", "der", "du", "vi", "kan", "din",
		"vores", "alle", "eller", "har", "fra", "uden", "mere"},
	"af": {"die", "en", "van", "het", "is", "vir", "wat", "nie", "met",
		"op", "aan", "om", "ons", "jou", "alle", "kan", "word", "meer",
		"sonder", "hierdie", "deur", "was", "sal", "u"},
}

// diacriticHints gives a bonus when a language-distinctive character
// appears, disambiguating close relatives (sv/da, es/pt, de/nl).
var diacriticHints = map[string][]rune{
	"de": {'ß', 'ä', 'ö', 'ü'},
	"sv": {'å', 'ä', 'ö'},
	"da": {'å', 'æ', 'ø'},
	"fr": {'ç', 'é', 'è', 'ê', 'à', 'ù'},
	"es": {'ñ', '¿', '¡', 'ó', 'í'},
	"pt": {'ã', 'õ', 'ç', 'ê', 'á'},
	"it": {'à', 'è', 'ì', 'ò', 'ù'},
}

const diacriticBonus = 2.0

// latin1Set is a set of runes below U+0100. Every diacritic hint is a
// non-ASCII Latin-1 rune (TestDiacriticHintsAreLatin1), and a hint
// occurs in a text exactly when decoding the text rune by rune meets it: a
// multi-byte encoding starts with a lead byte, which no valid sequence
// contains and an invalid one skips only itself.
type latin1Set [4]uint64

// add puts r in the set, or ignores it when r is not Latin-1.
func (s *latin1Set) add(r rune) {
	if r < 0x100 {
		s[r>>6] |= 1 << (r & 63)
	}
}

// has reports whether the Latin-1 rune r is in the set.
func (s *latin1Set) has(r rune) bool { return s[r>>6]&(1<<(r&63)) != 0 }

// Detect identifies the language of text, given as a string or as the
// bytes of a caller's reusable text buffer; both forms score alike and
// neither allocates. Short or empty input returns ("und", 0). Ties
// break deterministically in favour of the alphabetically first
// language code.
//
// Scoring streams over the text in a single pass: each token is
// lower-cased into a small reusable buffer and looked up once in a
// combined word→languages bitmask table, instead of materializing the
// full lowered text, the token slice, and one map probe per language
// per token. The scores are identical to the per-language counting by
// construction (a token contributes 1 to exactly the languages whose
// stopword set contains it). The same pass notes which diacritic hints
// occur, so the hint bonus needs no second scan.
func Detect[T string | []byte](text T) Result {
	var scores [16]float64 // indexed by langCodes position
	tokens := 0
	var buf [64]byte // stack token buffer (no closure, so it never escapes)
	word := buf[:0]
	var hints latin1Set // the diacritic hint runes seen in text
	for i := 0; i < len(text); {
		// ASCII fast path: lower-case and classify bytewise; everything
		// else goes through the same unicode calls as before. Lowering
		// happens before the letter test, exactly like FieldsFunc over
		// strings.ToLower(text) (lowering never changes letter-ness).
		if c := text[i]; c < utf8.RuneSelf {
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c >= 'a' && c <= 'z' {
				word = append(word, c)
				i++
				continue
			}
			i++
		} else {
			// Decode from a stack copy of the at most UTFMax bytes a
			// rune spans: the same rune either text form would give.
			var rb [utf8.UTFMax]byte
			r, size := utf8.DecodeRune(rb[:copy(rb[:], text[i:])])
			i += size
			hints.add(r)
			if lr := unicode.ToLower(r); unicode.IsLetter(lr) {
				word = utf8.AppendRune(word, lr)
				continue
			}
		}
		if len(word) > 0 {
			tokens++
			addLangScores(&scores, word)
			word = word[:0]
		}
	}
	if len(word) > 0 {
		tokens++
		addLangScores(&scores, word)
	}
	if tokens < 3 {
		return Result{Lang: undetermined}
	}
	for lang, runes := range diacriticHints {
		for _, r := range runes {
			if hints.has(r) {
				scores[langIndex[lang]] += diacriticBonus
			}
		}
	}
	var total float64
	best, bestScore := undetermined, 0.0
	for i, lang := range langCodes {
		s := scores[i]
		total += s
		if s > bestScore {
			best, bestScore = lang, s
		}
	}
	if bestScore == 0 || total == 0 {
		return Result{Lang: undetermined}
	}
	return Result{Lang: best, Confidence: bestScore / total}
}

// addLangScores credits every language whose stopword set contains the
// token. The map index converts without allocating.
func addLangScores(scores *[16]float64, word []byte) {
	mask := wordLangs[string(word)]
	for i := 0; mask != 0; i++ {
		if mask&1 != 0 {
			scores[i]++
		}
		mask >>= 1
	}
}

// langCodes is the sorted language list; langIndex its inverse; and
// wordLangs the combined stopword table mapping each word to the
// bitmask (over langCodes positions) of languages that use it.
var langCodes = func() []string {
	ls := Languages()
	if len(ls) > 16 {
		panic("langdetect: more languages than the score array holds")
	}
	return ls
}()

var langIndex = func() map[string]int {
	m := make(map[string]int, len(langCodes))
	for i, l := range langCodes {
		m[l] = i
	}
	return m
}()

var wordLangs = func() map[string]uint16 {
	m := make(map[string]uint16, 256)
	for lang, words := range stopwords {
		bit := uint16(1) << langIndex[lang]
		for _, w := range words {
			m[w] |= bit
		}
	}
	return m
}()
