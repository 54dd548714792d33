package htmlx

import "testing"

func TestNamedEntityTable(t *testing.T) {
	// Currency entities are load-bearing for price detection.
	cases := map[string]string{
		"&euro;":   "€",
		"&pound;":  "£",
		"&yen;":    "¥",
		"&cent;":   "¢",
		"&szlig;":  "ß",
		"&auml;":   "ä",
		"&eacute;": "é",
		"&aring;":  "å",
		"&copy;":   "©",
		"&mdash;":  "—",
		"&hellip;": "…",
	}
	for in, want := range cases {
		if got := UnescapeEntities(in); got != want {
			t.Errorf("UnescapeEntities(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEntityEdges(t *testing.T) {
	cases := map[string]string{
		"&":  "&",  // lone ampersand
		"&x": "&x", // too short
		"&;": "&;", // empty name
		"&verylongentitynamethatexceedsthelimitxyz;": "&verylongentitynamethatexceedsthelimitxyz;",
		"a&amp":       "a&amp",  // unterminated named
		"&amp;&amp;":  "&&",     // consecutive
		"pre&euro;in": "pre€in", // embedded
		"&EURO;":      "&EURO;", // names are case-sensitive
		"&Auml;":      "Ä",      // except where both cases are real entities
	}
	for in, want := range cases {
		if got := UnescapeEntities(in); got != want {
			t.Errorf("UnescapeEntities(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestUnescapeNoCopy: input whose every '&' fails to start a reference
// comes back unchanged without an allocation (a copy of a non-empty
// string would allocate), and input with a reference after such an '&'
// still decodes.
func TestUnescapeNoCopy(t *testing.T) {
	cases := []struct{ in, want string }{
		{"https://t.example/p.gif?site=a.de&n=3&o=0", ""},
		{"a & b", ""},
		{"&", ""},
		{"x&", ""},
		{"&&&", ""},
		{"&EURO; &x &#; &#x; &#12", ""},
		{"AT&T", ""},
		{"?a=1&b=2&amp;c=3", "?a=1&b=2&c=3"},
		{"&n=1&euro;", "&n=1€"},
		{"&z;&#8364;", "&z;€"},
		{"&#x20AC;&", "€&"},
		{"no ampersand", ""},
	}
	for _, c := range cases {
		got := UnescapeEntities(c.in)
		if c.want == "" {
			if got != c.in {
				t.Errorf("UnescapeEntities(%q) = %q, want it unchanged", c.in, got)
			}
			if a := testing.AllocsPerRun(10, func() { UnescapeEntities(c.in) }); a != 0 {
				t.Errorf("UnescapeEntities(%q) allocates %.0f, want 0", c.in, a)
			}
			continue
		}
		if got != c.want {
			t.Errorf("UnescapeEntities(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTokenTypeStrings(t *testing.T) {
	want := map[TokenType]string{
		ErrorToken: "Error", TextToken: "Text", StartTagToken: "StartTag",
		EndTagToken: "EndTag", SelfClosingTagToken: "SelfClosingTag",
		CommentToken: "Comment", DoctypeToken: "Doctype",
		TokenType(99): "Unknown",
	}
	for tt, s := range want {
		if tt.String() != s {
			t.Errorf("%d.String() = %q, want %q", tt, tt.String(), s)
		}
	}
}

func TestUnterminatedConstructs(t *testing.T) {
	// Every unterminated construct must terminate the tokenizer cleanly.
	inputs := []string{
		"<!-- never closed",
		"<!DOCTYPE html",
		"<?php never closed",
		"</div",
		"<div attr='open",
		"<div attr=\"open",
	}
	for _, in := range inputs {
		var z Tokenizer
		z.Reset(in)
		for i := 0; i < 50; i++ {
			if z.Next().Type == ErrorToken {
				break
			}
			if i == 49 {
				t.Errorf("tokenizer stuck on %q", in)
			}
		}
	}
}

func TestIndexFoldASCII(t *testing.T) {
	cases := []struct {
		s, pattern string
		want       int
	}{
		{"</script>", "</script", 0},
		{"x</SCRIPT>", "</script", 1},
		{"abc</ScRiPt foo>", "</script", 3},
		{"no closer here", "</script", -1},
		{"", "</script", -1},
		// Invalid UTF-8 must not shift the index (the old whole-string
		// Unicode lowering re-encoded bad bytes and misaligned offsets).
		{"\xa7\xff</TITLE>", "</title", 2},
		{"ÄÖÜ</style>", "</style", 6},
		{"", "", 0},
	}
	for _, c := range cases {
		if got := indexFoldASCII(c.s, c.pattern); got != c.want {
			t.Errorf("indexFoldASCII(%q, %q) = %d, want %d", c.s, c.pattern, got, c.want)
		}
	}
}
