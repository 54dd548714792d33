package dom

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasicDocument(t *testing.T) {
	doc := Parse(`<!DOCTYPE html><html><head><title>T</title></head><body><p>hi</p></body></html>`)
	if doc.DocumentElement() == nil {
		t.Fatal("no <html>")
	}
	body := doc.Body()
	if body == nil {
		t.Fatal("no <body>")
	}
	p := query(body, "p")
	if p == nil || p.Text() != "hi" {
		t.Fatalf("p = %v", p)
	}
}

func TestParseScaffoldsSparseInput(t *testing.T) {
	doc := Parse(`<p>bare paragraph</p>`)
	if doc.Body() == nil {
		t.Fatal("body not synthesized")
	}
	if query(doc.Body(), "p") == nil {
		t.Fatal("content not placed in body")
	}
	if query(doc.DocumentElement(), "head") == nil {
		t.Fatal("head not synthesized")
	}
}

func TestParseHeadOnlyElements(t *testing.T) {
	doc := Parse(`<meta charset="utf-8"><title>x</title><div>content</div>`)
	html := doc.DocumentElement()
	head := childElement(html, "head")
	if head == nil || len(queryAll(head, "meta")) != 1 {
		t.Fatal("meta not in head")
	}
	if query(doc.Body(), "div") == nil {
		t.Fatal("div not in body")
	}
}

func TestParseNesting(t *testing.T) {
	doc := Parse(`<div><ul><li>a</li><li>b<li>c</ul></div>`)
	lis := queryAll(doc, "ul > li")
	if len(lis) != 3 {
		t.Fatalf("want 3 li (implied close), got %d", len(lis))
	}
	if lis[2].Text() != "c" {
		t.Fatalf("li[2] = %q", lis[2].Text())
	}
}

func TestParseImpliedParagraphClose(t *testing.T) {
	doc := Parse(`<p>one<p>two<div>three</div>`)
	ps := queryAll(doc, "p")
	if len(ps) != 2 {
		t.Fatalf("want 2 p, got %d", len(ps))
	}
	// div must be a sibling of the p's, not nested inside.
	div := query(doc, "div")
	if div.Parent.Tag != "body" {
		t.Fatalf("div parent = %q", div.Parent.Tag)
	}
}

func TestParseTableCells(t *testing.T) {
	doc := Parse(`<table><tr><td>a<td>b<tr><td>c</table>`)
	if n := len(queryAll(doc, "td")); n != 3 {
		t.Fatalf("want 3 td, got %d", n)
	}
	if n := len(queryAll(doc, "tr")); n != 2 {
		t.Fatalf("want 2 tr, got %d", n)
	}
}

func TestParseUnmatchedEndTagIgnored(t *testing.T) {
	doc := Parse(`<div>a</span>b</div>`)
	div := query(doc, "div")
	if got := div.Text(); got != "ab" {
		t.Fatalf("text = %q", got)
	}
}

func TestParseVoidElements(t *testing.T) {
	doc := Parse(`<div><img src="x"><br><input type="text">after</div>`)
	img := query(doc, "img")
	if img.FirstChild != nil {
		t.Fatal("img must not take children")
	}
	if query(doc, "div").Text() != "after" {
		t.Fatalf("text = %q", query(doc, "div").Text())
	}
}

func TestParseDeclarativeShadowOpen(t *testing.T) {
	doc := Parse(`<div id="host"><template shadowrootmode="open"><p class="inner">shadow text</p></template><span>light</span></div>`)
	host := doc.ByID("host")
	if host == nil || host.Shadow == nil {
		t.Fatal("shadow root not attached")
	}
	if host.Shadow.Mode != ShadowOpen {
		t.Fatalf("mode = %q", host.Shadow.Mode)
	}
	// Shadow content is in the fragment, not the light DOM.
	if query(host, "p.inner") != nil {
		t.Fatal("selector must not cross shadow boundary")
	}
	if p := query(host.Shadow.Root, "p.inner"); p == nil || p.Text() != "shadow text" {
		t.Fatal("shadow content missing")
	}
	// Light DOM sibling preserved.
	if query(host, "span") == nil {
		t.Fatal("light DOM lost")
	}
}

func TestParseDeclarativeShadowClosed(t *testing.T) {
	doc := Parse(`<div id="h"><template shadowrootmode="closed"><button>Subscribe</button></template></div>`)
	h := doc.ByID("h")
	if h.Shadow == nil || h.Shadow.Mode != ShadowClosed {
		t.Fatalf("shadow = %+v", h.Shadow)
	}
}

func TestParseLegacyShadowRootAttr(t *testing.T) {
	doc := Parse(`<div id="h"><template shadowroot="open"><i>x</i></template></div>`)
	if doc.ByID("h").Shadow == nil {
		t.Fatal("legacy shadowroot attribute not honoured")
	}
}

func TestParseNestedShadow(t *testing.T) {
	doc := Parse(`<div id="outer"><template shadowrootmode="open"><div id="inner"><template shadowrootmode="closed"><b>deep</b></template></div></template></div>`)
	outer := doc.ByID("outer")
	if outer.Shadow == nil {
		t.Fatal("outer shadow missing")
	}
	inner := outer.Shadow.Root.ByID("inner")
	if inner == nil || inner.Shadow == nil {
		t.Fatal("inner shadow missing")
	}
	if inner.Shadow.Root.Text() != "deep" {
		t.Fatalf("deep text = %q", inner.Shadow.Root.Text())
	}
	var roots []*ShadowRoot
	doc.EachShadowRoot(func(sr *ShadowRoot) { roots = append(roots, sr) })
	if len(roots) != 2 || roots[0] != outer.Shadow || roots[1] != inner.Shadow {
		t.Fatalf("EachShadowRoot visits %d roots, want outer then inner", len(roots))
	}
}

// TestShadowModeDoesNotAliasPage checks that a shadow root's mode is
// the package constant, not a slice of the page: analysis results keep
// the mode long after the page is gone.
func TestShadowModeDoesNotAliasPage(t *testing.T) {
	for _, c := range []struct {
		attr string
		want ShadowMode
	}{
		{`shadowrootmode="open"`, ShadowOpen},
		{`shadowrootmode="closed"`, ShadowClosed},
		{`shadowrootmode="Open"`, ShadowOpen},
		{`shadowroot="closed"`, ShadowClosed},
	} {
		// A fresh copy, so no string constant could share its bytes.
		src := string([]byte(`<div id="h"><template ` + c.attr + `><b>x</b></template></div>`))
		for _, doc := range []*Node{Parse(src), new(Parser).Parse(src)} {
			sr := doc.ByID("h").Shadow
			if sr == nil || sr.Mode != c.want {
				t.Fatalf("%s: shadow root %+v, want mode %q", c.attr, sr, c.want)
			}
			if aliases(string(sr.Mode), src) {
				t.Errorf("%s: mode %q shares memory with the parsed page", c.attr, sr.Mode)
			}
		}
	}
}

func TestParsePlainTemplateIsElement(t *testing.T) {
	doc := Parse(`<div><template><p>inert</p></template></div>`)
	div := query(doc, "div")
	if div.Shadow != nil {
		t.Fatal("plain template must not attach shadow")
	}
	if query(doc, "template") == nil {
		t.Fatal("template element missing")
	}
}

func TestParseFragment(t *testing.T) {
	var p Parser
	frag := p.ParseFragment(`<div class="cw"><button>Accept</button></div>`)
	if query(frag, "div.cw > button") == nil {
		t.Fatal("fragment structure wrong")
	}
	if frag.DocumentElement() != nil {
		t.Fatal("fragment must not scaffold html")
	}
}

func TestParseScriptContentPreserved(t *testing.T) {
	doc := Parse(`<script>var x = "<div>"; if (1<2) {}</script>`)
	scripts := queryAll(doc, "script")
	if len(scripts) != 1 {
		t.Fatalf("scripts = %d", len(scripts))
	}
	content := scripts[0].FirstChild
	if content == nil || !strings.Contains(content.Data, `"<div>"`) {
		t.Fatal("script content mangled")
	}
	// Script text must NOT appear in extracted text.
	if strings.Contains(doc.Root().Text(), "div") {
		t.Fatal("script text leaked into Text()")
	}
}

func TestRenderRoundTrip(t *testing.T) {
	src := `<!DOCTYPE html><html><head><title>x</title></head><body><div id="a" class="b c"><p>Text &amp; more</p><img src="i.png"><template shadowrootmode="open"><b>s</b></template></div></body></html>`
	doc := Parse(src)
	out := Render(doc)
	doc2 := Parse(out)
	// Compare structure via a second render (idempotent serialization).
	if Render(doc2) != out {
		t.Fatalf("render not stable:\n1: %s\n2: %s", out, Render(doc2))
	}
	// Shadow preserved through the round trip.
	host := doc2.ByID("a")
	if host == nil || host.Shadow == nil {
		t.Fatal("shadow lost in round trip")
	}
}

func TestDetachAndInsertBefore(t *testing.T) {
	doc := Parse(`<ul><li id="a">a</li><li id="b">b</li><li id="c">c</li></ul>`)
	ul := query(doc, "ul")
	c := doc.ByID("c")
	a := doc.ByID("a")
	c.Detach()
	ul.InsertBefore(c, a)
	var order []string
	for _, li := range queryAll(ul, "li") {
		order = append(order, li.ID())
	}
	if strings.Join(order, "") != "cab" {
		t.Fatalf("order = %v", order)
	}
}

func TestParseNeverPanics(t *testing.T) {
	f := func(s string) bool {
		doc := Parse(s)
		return doc != nil && doc.Body() != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestParseEndTagCannotCrossShadow(t *testing.T) {
	// A stray </div> inside a shadow template must not close the host's
	// ancestors.
	doc := Parse(`<div id="outer"><div id="host"><template shadowrootmode="open"></div></template><span id="s">x</span></div></div>`)
	s := doc.ByID("s")
	if s == nil {
		t.Fatal("span lost")
	}
}
