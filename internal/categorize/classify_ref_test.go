package categorize

import (
	"unicode"
	"unicode/utf8"
)

// This file keeps the string-only Classify that the generic one
// replaced, as the reference FuzzTextScorers checks both
// instantiations against: the same single-pass scoring, decoding runes
// from the string itself. It is the old code with a ref prefix on its
// name.

func refClassify(text string) string {
	var scores [16]int // indexed by sortedCats position
	tokens := 0
	var buf [64]byte
	word := buf[:0]
	for i := 0; i < len(text); {
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
