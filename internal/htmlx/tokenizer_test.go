package htmlx

import (
	"strings"
	"testing"
	"testing/quick"
)

// collect tokenizes the whole input.
func collect(t *testing.T, input string) []Token {
	t.Helper()
	var z Tokenizer
	z.Reset(input)
	var out []Token
	for i := 0; i < 10000; i++ {
		tok := z.Next()
		if tok.Type == ErrorToken {
			return out
		}
		out = append(out, tok)
	}
	t.Fatal("tokenizer did not terminate")
	return nil
}

func TestSimpleElement(t *testing.T) {
	toks := collect(t, `<p>Hello</p>`)
	if len(toks) != 3 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	if toks[0].Type != StartTagToken || toks[0].Data != "p" {
		t.Fatalf("bad start: %+v", toks[0])
	}
	if toks[1].Type != TextToken || toks[1].Data != "Hello" {
		t.Fatalf("bad text: %+v", toks[1])
	}
	if toks[2].Type != EndTagToken || toks[2].Data != "p" {
		t.Fatalf("bad end: %+v", toks[2])
	}
}

func TestAttributes(t *testing.T) {
	toks := collect(t, `<div id="main" class='banner overlay' data-x=42 hidden>`)
	if len(toks) != 1 {
		t.Fatalf("got %d tokens", len(toks))
	}
	want := []Attribute{
		{"id", "main"}, {"class", "banner overlay"}, {"data-x", "42"}, {"hidden", ""},
	}
	got := toks[0].Attr
	if len(got) != len(want) {
		t.Fatalf("attrs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("attr %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDuplicateAttributeKeepsFirst(t *testing.T) {
	toks := collect(t, `<a href="first" href="second">`)
	v, ok := toks[0].AttrVal("href")
	if !ok || v != "first" {
		t.Fatalf("href = %q, %v", v, ok)
	}
}

func TestUppercaseNormalized(t *testing.T) {
	toks := collect(t, `<DIV CLASS="X">text</DIV>`)
	if toks[0].Data != "div" || toks[0].Attr[0].Key != "class" {
		t.Fatalf("not lower-cased: %+v", toks[0])
	}
	if toks[0].Attr[0].Val != "X" {
		t.Fatal("attribute values must keep case")
	}
	if toks[2].Data != "div" {
		t.Fatalf("end tag not lower-cased: %+v", toks[2])
	}
}

func TestSelfClosing(t *testing.T) {
	toks := collect(t, `<br/><img src="x.png" />`)
	if toks[0].Type != SelfClosingTagToken || toks[0].Data != "br" {
		t.Fatalf("bad br: %+v", toks[0])
	}
	if toks[1].Type != SelfClosingTagToken || toks[1].Data != "img" {
		t.Fatalf("bad img: %+v", toks[1])
	}
	if v, _ := toks[1].AttrVal("src"); v != "x.png" {
		t.Fatalf("src = %q", v)
	}
}

func TestComment(t *testing.T) {
	toks := collect(t, `a<!-- hidden -->b`)
	if len(toks) != 3 || toks[1].Type != CommentToken || toks[1].Data != " hidden " {
		t.Fatalf("tokens: %+v", toks)
	}
}

func TestCommentWithTagsInside(t *testing.T) {
	toks := collect(t, `<!-- <div>not a tag</div> -->x`)
	if toks[0].Type != CommentToken || !strings.Contains(toks[0].Data, "<div>") {
		t.Fatalf("comment mangled: %+v", toks[0])
	}
	if toks[1].Type != TextToken || toks[1].Data != "x" {
		t.Fatalf("text after comment: %+v", toks[1])
	}
}

func TestDoctype(t *testing.T) {
	toks := collect(t, `<!DOCTYPE html><html></html>`)
	if toks[0].Type != DoctypeToken || toks[0].Data != "html" {
		t.Fatalf("doctype: %+v", toks[0])
	}
}

func TestScriptRawText(t *testing.T) {
	toks := collect(t, `<script>if (a < b) { x = "<div>"; }</script><p>after</p>`)
	if toks[0].Type != StartTagToken || toks[0].Data != "script" {
		t.Fatalf("start: %+v", toks[0])
	}
	if toks[1].Type != TextToken || !strings.Contains(toks[1].Data, `x = "<div>"`) {
		t.Fatalf("script content parsed as markup: %+v", toks[1])
	}
	if toks[2].Type != EndTagToken || toks[2].Data != "script" {
		t.Fatalf("end: %+v", toks[2])
	}
	if toks[3].Data != "p" {
		t.Fatalf("resume after script: %+v", toks[3])
	}
}

func TestStyleRawText(t *testing.T) {
	toks := collect(t, `<style>.x > .y { color: red }</style>`)
	if toks[1].Type != TextToken || !strings.Contains(toks[1].Data, "> .y") {
		t.Fatalf("style content: %+v", toks[1])
	}
}

func TestScriptCaseInsensitiveClose(t *testing.T) {
	toks := collect(t, `<script>var a=1;</SCRIPT>done`)
	if toks[2].Type != EndTagToken || toks[2].Data != "script" {
		t.Fatalf("end: %+v", toks)
	}
	if toks[3].Data != "done" {
		t.Fatalf("after: %+v", toks[3])
	}
}

func TestUnterminatedScript(t *testing.T) {
	toks := collect(t, `<script>never closed`)
	if len(toks) != 2 || toks[1].Type != TextToken || toks[1].Data != "never closed" {
		t.Fatalf("tokens: %+v", toks)
	}
}

func TestRawTextInvalidUTF8(t *testing.T) {
	// Regression (found by fuzzing): invalid UTF-8 inside raw text must
	// not misalign the end-tag search — strings.ToLower re-encodes
	// broken bytes and changes lengths.
	input := "<sCript>\xa7\xa7\xa7\xa7\xa7\xa7\xa7\xa7\xd5\xd9\xdf\xd2"
	toks := collect(t, input)
	if len(toks) != 2 || toks[1].Type != TextToken {
		t.Fatalf("tokens: %+v", toks)
	}
	if toks[1].Data != input[len("<sCript>"):] {
		t.Fatalf("raw content mangled: %q", toks[1].Data)
	}
	// And a closer after broken bytes is still found at the right spot.
	toks = collect(t, "<script>\xa7\xff CODE</script><p>after</p>")
	if toks[2].Type != EndTagToken || toks[2].Data != "script" {
		t.Fatalf("end tag lost: %+v", toks)
	}
	if toks[3].Data != "p" {
		t.Fatalf("resume failed: %+v", toks[3])
	}
}

func TestEntitiesInText(t *testing.T) {
	toks := collect(t, `<span>3.99&nbsp;&euro; &amp; more &#8364; &#x20AC;</span>`)
	// &nbsp; decodes to U+00A0, not an ASCII space; downstream text
	// normalization folds it. This matters for price matching.
	want := "3.99 € & more € €"
	if toks[1].Data != want {
		t.Fatalf("text = %q, want %q", toks[1].Data, want)
	}
}

func TestEntitiesInAttr(t *testing.T) {
	toks := collect(t, `<a title="Tom &amp; Jerry &euro;5">x</a>`)
	if v, _ := toks[0].AttrVal("title"); v != "Tom & Jerry €5" {
		t.Fatalf("title = %q", v)
	}
}

func TestUnknownEntityPassthrough(t *testing.T) {
	toks := collect(t, `<p>&notanentity; &broken</p>`)
	if toks[1].Data != "&notanentity; &broken" {
		t.Fatalf("text = %q", toks[1].Data)
	}
}

func TestBareLessThanIsText(t *testing.T) {
	toks := collect(t, `<p>1 < 2 and 3 <4? no</p>`)
	// "<4" is not a tag (digit), so it stays text.
	joined := ""
	for _, tok := range toks {
		if tok.Type == TextToken {
			joined += tok.Data
		}
	}
	if !strings.Contains(joined, "1 < 2") || !strings.Contains(joined, "<4? no") {
		t.Fatalf("joined text = %q", joined)
	}
}

func TestBogusComment(t *testing.T) {
	toks := collect(t, `<?xml version="1.0"?><p>x</p>`)
	if toks[0].Type != CommentToken {
		t.Fatalf("expected bogus comment, got %+v", toks[0])
	}
	if toks[1].Data != "p" {
		t.Fatalf("resume: %+v", toks[1])
	}
}

func TestEmptyEndTagDropped(t *testing.T) {
	toks := collect(t, `a</>b`)
	var text string
	for _, tok := range toks {
		if tok.Type == TextToken {
			text += tok.Data
		}
	}
	if text != "ab" {
		t.Fatalf("text = %q", text)
	}
}

func TestUnterminatedTagAtEOF(t *testing.T) {
	toks := collect(t, `<div class="x`)
	if len(toks) != 1 || toks[0].Type != StartTagToken || toks[0].Data != "div" {
		t.Fatalf("tokens: %+v", toks)
	}
}

func TestTrailingLessThan(t *testing.T) {
	toks := collect(t, `abc<`)
	var text string
	for _, tok := range toks {
		text += tok.Data
	}
	if text != "abc<" {
		t.Fatalf("text = %q", text)
	}
}

func TestNewlinesInAttributes(t *testing.T) {
	toks := collect(t, "<div\n  id=\"a\"\n  class=\"b\"\n>x</div>")
	if len(toks[0].Attr) != 2 {
		t.Fatalf("attrs: %v", toks[0].Attr)
	}
}

func TestStrayslashInTag(t *testing.T) {
	toks := collect(t, `<div / id="x">y</div>`)
	if toks[0].Type != StartTagToken {
		t.Fatalf("type: %v", toks[0].Type)
	}
	if v, ok := toks[0].AttrVal("id"); !ok || v != "x" {
		t.Fatalf("id = %q %v", v, ok)
	}
}

func TestIsVoidAndRawText(t *testing.T) {
	if !IsVoid("br") || IsVoid("div") {
		t.Fatal("IsVoid wrong")
	}
	if !IsRawText("script") || IsRawText("span") {
		t.Fatal("IsRawText wrong")
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	cases := []string{"a<b", `x&y`, `"quoted"`, "3,99 €", "plain"}
	for _, c := range cases {
		if got := UnescapeEntities(EscapeText(c)); got != c {
			t.Errorf("text round-trip %q -> %q", c, got)
		}
	}
}

func TestEscapeAttrRoundTrip(t *testing.T) {
	cases := []string{`val"ue`, "a&b<c", "€3.99"}
	for _, c := range cases {
		if got := UnescapeEntities(EscapeAttr(c)); got != c {
			t.Errorf("attr round-trip %q -> %q", c, got)
		}
	}
}

func TestNumericEntityEdgeCases(t *testing.T) {
	cases := map[string]string{
		"&#0;":        "�", // NUL is replaced
		"&#65;":       "A",
		"&#x41;":      "A",
		"&#xD800;":    "�",    // surrogate
		"&#99999999;": "�",    // out of range
		"&#;":         "&#;",  // malformed passes through
		"&#x;":        "&#x;", // malformed passes through
		"&#12":        "&#12", // unterminated
	}
	for in, want := range cases {
		if got := UnescapeEntities(in); got != want {
			t.Errorf("UnescapeEntities(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: the tokenizer terminates and never panics on arbitrary input.
func TestQuickTokenizerTotal(t *testing.T) {
	f := func(s string) bool {
		var z Tokenizer
		z.Reset(s)
		for i := 0; i < len(s)+10; i++ {
			if z.Next().Type == ErrorToken {
				return true
			}
		}
		return false // did not terminate within bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: escaping then unescaping is the identity for any string.
func TestQuickEscapeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		return UnescapeEntities(EscapeText(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTokenizeBannerPage(b *testing.B) {
	page := strings.Repeat(`<div class="banner"><p>We value your privacy &euro;3.99</p><button id="accept">Accept all</button></div>`, 50)
	b.ReportAllocs()
	b.SetBytes(int64(len(page)))
	for i := 0; i < b.N; i++ {
		var z Tokenizer
		z.Reset(page)
		for z.Next().Type != ErrorToken {
		}
	}
}
