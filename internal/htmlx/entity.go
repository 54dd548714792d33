package htmlx

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// namedEntities maps entity names (without & and ;) to their replacement
// text. The table covers the references that occur in practice on cookie
// banners and consent dialogs: structural characters, typography,
// currency symbols (essential for price detection), and the Latin-1
// letters used by German, French, Italian, Spanish, Swedish and
// Portuguese banner texts.
var namedEntities = map[string]string{
	// Structural.
	"amp": "&", "lt": "<", "gt": ">", "quot": `"`, "apos": "'",
	// Spaces and typography.
	"nbsp": " ", "ensp": " ", "emsp": " ", "thinsp": " ",
	"ndash": "–", "mdash": "—", "hellip": "…",
	"lsquo": "‘", "rsquo": "’", "ldquo": "“", "rdquo": "”",
	"laquo": "«", "raquo": "»", "bull": "•", "middot": "·",
	"shy": "­", "times": "×", "divide": "÷", "deg": "°",
	"plusmn": "±", "sect": "§", "para": "¶", "micro": "µ",
	// Currency — load-bearing for cookiewall price extraction.
	"euro": "€", "pound": "£", "yen": "¥", "cent": "¢",
	"curren": "¤", "dollar": "$",
	// Legal marks.
	"copy": "©", "reg": "®", "trade": "™",
	// German.
	"auml": "ä", "Auml": "Ä", "ouml": "ö", "Ouml": "Ö",
	"uuml": "ü", "Uuml": "Ü", "szlig": "ß",
	// French / Italian / Portuguese / Spanish.
	"agrave": "à", "Agrave": "À", "aacute": "á", "Aacute": "Á",
	"acirc": "â", "atilde": "ã", "eacute": "é", "Eacute": "É",
	"egrave": "è", "Egrave": "È", "ecirc": "ê", "euml": "ë",
	"iacute": "í", "igrave": "ì", "icirc": "î", "iuml": "ï",
	"oacute": "ó", "ograve": "ò", "ocirc": "ô", "otilde": "õ",
	"uacute": "ú", "ugrave": "ù", "ucirc": "û",
	"ccedil": "ç", "Ccedil": "Ç", "ntilde": "ñ", "Ntilde": "Ñ",
	// Swedish / Danish / Norwegian.
	"aring": "å", "Aring": "Å", "oslash": "ø", "Oslash": "Ø",
	"aelig": "æ", "AElig": "Æ",
}

// UnescapeEntities decodes HTML character references in s: named
// references (&euro;), decimal (&#8364;) and hexadecimal (&#x20AC;)
// numeric references. Unknown or malformed references are passed
// through verbatim, matching browser behaviour for text content. When
// no reference decodes — a URL query such as "?site=x&n=3" — s itself
// is returned, uncopied.
func UnescapeEntities(s string) string {
	i, repl, consumed := 0, "", 0
	for {
		amp := strings.IndexByte(s[i:], '&')
		if amp < 0 {
			return s
		}
		i += amp
		if repl, consumed = decodeEntity(s[i:]); consumed > 0 {
			break
		}
		i++
	}
	var b strings.Builder
	b.Grow(len(s))
	b.WriteString(s[:i])
	b.WriteString(repl)
	s = s[i+consumed:]
	for len(s) > 0 {
		if s[0] != '&' {
			next := strings.IndexByte(s, '&')
			if next < 0 {
				b.WriteString(s)
				break
			}
			b.WriteString(s[:next])
			s = s[next:]
			continue
		}
		repl, consumed := decodeEntity(s)
		if consumed == 0 {
			b.WriteByte('&')
			s = s[1:]
			continue
		}
		b.WriteString(repl)
		s = s[consumed:]
	}
	return b.String()
}

// decodeEntity decodes a single reference at the start of s (which must
// begin with '&'). It returns the replacement string and the number of
// input bytes consumed, or ("", 0) if s does not start a valid reference.
func decodeEntity(s string) (string, int) {
	if len(s) < 3 { // shortest is &x;
		return "", 0
	}
	if s[1] == '#' {
		return decodeNumericEntity(s)
	}
	// Named reference: letters/digits up to ';' (max name length 32).
	end := -1
	for i := 1; i < len(s) && i < 34; i++ {
		c := s[i]
		switch {
		case c == ';':
			end = i
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			continue
		default:
			// Invalid character before ';' — not a reference.
		}
		break
	}
	if end < 0 {
		return "", 0
	}
	if repl, ok := namedEntities[s[1:end]]; ok {
		return repl, end + 1
	}
	return "", 0
}

func decodeNumericEntity(s string) (string, int) {
	i := 2
	base := 10
	if i < len(s) && (s[i] == 'x' || s[i] == 'X') {
		base = 16
		i++
	}
	start := i
	for i < len(s) && isDigitInBase(s[i], base) {
		i++
	}
	if i == start || i >= len(s) || s[i] != ';' {
		return "", 0
	}
	n, err := strconv.ParseInt(s[start:i], base, 32)
	if err != nil || n <= 0 || n > utf8.MaxRune {
		return "�", i + 1
	}
	r := rune(n)
	if !utf8.ValidRune(r) {
		r = '�'
	}
	return string(r), i + 1
}

func isDigitInBase(c byte, base int) bool {
	if c >= '0' && c <= '9' {
		return true
	}
	if base == 16 {
		return (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
	}
	return false
}
