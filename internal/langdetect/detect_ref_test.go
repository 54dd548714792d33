package langdetect

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// This file keeps the string-only Detect that the generic one replaced,
// as the reference FuzzTextScorers checks both instantiations against:
// the same single-pass scoring, decoding runes from the string itself,
// then a strings.ContainsRune scan of the whole text per diacritic
// hint. It is the old code with a ref prefix on its name.

func refDetect(text string) Result {
	var scores [16]float64 // indexed by langCodes position
	tokens := 0
	var buf [64]byte
	word := buf[:0]
	for i := 0; i < len(text); {
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
			r, size := utf8.DecodeRuneInString(text[i:])
			i += size
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
			if strings.ContainsRune(text, r) {
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
