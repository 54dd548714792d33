package dom

import (
	"testing"
)

func TestTextNormalization(t *testing.T) {
	doc := Parse("<div><p>Hello\n\t  world</p><p>3,99 €</p></div>")
	got := doc.Body().Text()
	want := "Hello world 3,99 €"
	if got != want {
		t.Fatalf("Text = %q, want %q", got, want)
	}
}

func TestTextSkipsScriptStyle(t *testing.T) {
	doc := Parse(`<div>visible<script>var hidden=1;</script><style>.x{}</style></div>`)
	if got := doc.Body().Text(); got != "visible" {
		t.Fatalf("Text = %q", got)
	}
}

func TestTextBlockBoundaries(t *testing.T) {
	doc := Parse(`<div>one</div><div>two</div><span>three</span><span>four</span>`)
	got := doc.Body().Text()
	// Blocks insert spaces; inline elements do not.
	if got != "one two threefour" {
		t.Fatalf("Text = %q", got)
	}
}

// textBound sizes Text's builder: it must bound the result (valid
// UTF-8) so the text is written into exactly one allocation.
func TestTextSingleAllocation(t *testing.T) {
	doc := Parse(`<div>one</div>  <div> two </div><span>three</span><b>x</b><p>3,99&nbsp;€ <i>im   Abo</i></p><!-- c --><script>no</script><ul><li>a<li>b</ul>`)
	body := doc.Body()
	got := body.Text()
	if want := "one two threex 3,99 € im Abo a b"; got != want {
		t.Fatalf("Text = %q, want %q", got, want)
	}
	if bound := textBound(body); len(got) > bound {
		t.Fatalf("len(Text) = %d exceeds textBound %d", len(got), bound)
	}
	if testing.Short() {
		return // alloc counting is exact; skip in -short/-race runs
	}
	if n := testing.AllocsPerRun(100, func() { body.Text() }); n != 1 {
		t.Fatalf("Text allocates %.1f times, want 1", n)
	}
}

func TestDeepTextIncludesShadowAndFrames(t *testing.T) {
	doc := Parse(`<div id="host"><template shadowrootmode="open"><p>in shadow</p></template><p>in light</p></div>`)
	host := doc.ByID("host")
	frameDoc := Parse(`<body><p>in frame</p></body>`)
	iframe := NewElement("iframe", "src", "https://cmp.example/banner")
	iframe.FrameDoc = frameDoc
	host.AppendChild(iframe)

	got := host.DeepText()
	for _, want := range []string{"in light", "in shadow", "in frame"} {
		if !contains(got, want) {
			t.Errorf("DeepText = %q, missing %q", got, want)
		}
	}
	// Plain Text must contain only light DOM.
	if plain := host.Text(); contains(plain, "in shadow") || contains(plain, "in frame") {
		t.Fatalf("Text leaked pierced content: %q", plain)
	}
	if testing.Short() {
		return // alloc counting is exact; skip in -short/-race runs
	}
	if n := testing.AllocsPerRun(100, func() { host.DeepText() }); n != 1 {
		t.Fatalf("DeepText allocates %.1f times, want 1", n)
	}
}

func contains(haystack, needle string) bool {
	return len(haystack) >= len(needle) && (func() bool {
		for i := 0; i+len(needle) <= len(haystack); i++ {
			if haystack[i:i+len(needle)] == needle {
				return true
			}
		}
		return false
	})()
}

// normalizeSpace runs one string through the text normalizer.
func normalizeSpace(s string) string {
	var out []byte
	t := textNormalizer{emit: func(run string) { out = append(out, run...) }}
	t.writeString(s)
	return string(out)
}

func TestNormalizeSpace(t *testing.T) {
	cases := map[string]string{
		"  a  b  ":         "a b",
		"a b":              "a b",
		"\t\n x \r\n y  ":  "x y",
		"":                 "",
		"   ":              "",
		"solo":             "solo",
		"3,99\u00a0€":      "3,99 €",
		"x\xffy\u2003\xc3": "x\uFFFDy \uFFFD",
	}
	for in, want := range cases {
		if got := normalizeSpace(in); got != want {
			t.Errorf("normalizeSpace(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStyleProps(t *testing.T) {
	n := NewElement("div", "style", "position: fixed; Z-INDEX: 9999; bottom:0;; broken; top: ; top:1px; top:2px")
	if v := n.styleVal("position"); v != "fixed" {
		t.Fatalf("position = %q", v)
	}
	if v := n.styleVal("z-index"); v != "9999" {
		t.Fatalf("z-index = %q, want a case-insensitive key match", v)
	}
	if v := n.styleVal("broken"); v != "" {
		t.Fatalf("malformed declaration kept: %q", v)
	}
	if v := n.styleVal("top"); v != "2px" {
		t.Fatalf("top = %q, want the last well-formed declaration", v)
	}
	if v := NewElement("div").styleVal("position"); v != "" {
		t.Fatalf("no style attribute: %q", v)
	}
}

func TestIsDisplayed(t *testing.T) {
	cases := []struct {
		html string
		want bool
	}{
		{`<div id="x">v</div>`, true},
		{`<div id="x" style="display:none">v</div>`, false},
		{`<div id="x" style="visibility:hidden">v</div>`, false},
		{`<div id="x" style="opacity:0">v</div>`, false},
		{`<div id="x" hidden>v</div>`, false},
		{`<div id="x" style="display:block">v</div>`, true},
	}
	for _, c := range cases {
		doc := Parse(c.html)
		if got := doc.ByID("x").IsDisplayed(); got != c.want {
			t.Errorf("%s: IsDisplayed = %v", c.html, got)
		}
	}
}

func TestIsVisibleClimbsAncestors(t *testing.T) {
	doc := Parse(`<div style="display:none"><p id="p">hidden by parent</p></div>`)
	if doc.ByID("p").IsVisible() {
		t.Fatal("child of display:none must be invisible")
	}
}

func TestIsVisibleClimbsOutOfShadow(t *testing.T) {
	doc := Parse(`<div id="host" style="display:none"><template shadowrootmode="open"><p id="sp">x</p></template></div>`)
	sp := doc.ByID("host").Shadow.Root.ByID("sp")
	if sp == nil {
		t.Fatal("shadow content missing")
	}
	if sp.IsVisible() {
		t.Fatal("shadow content of hidden host must be invisible")
	}
}

func TestIsOverlay(t *testing.T) {
	cases := []struct {
		html string
		want bool
	}{
		{`<div id="x" style="position:fixed;bottom:0">b</div>`, true},
		{`<div id="x" style="position:absolute;z-index:100">b</div>`, true},
		{`<div id="x" role="dialog">b</div>`, true},
		{`<div id="x" aria-modal="true">b</div>`, true},
		{`<div id="x" class="cookie-overlay">b</div>`, true},
		{`<div id="x" class="cmp-container">b</div>`, true},
		{`<div id="x" class="article">b</div>`, false},
		{`<div id="x" style="position:static">b</div>`, false},
	}
	for _, c := range cases {
		doc := Parse(c.html)
		if got := doc.ByID("x").IsOverlay(); got != c.want {
			t.Errorf("%s: IsOverlay = %v, want %v", c.html, got, c.want)
		}
	}
}

func TestFrameDocsIncludesShadowHostedFrames(t *testing.T) {
	doc := Parse(`<div id="host"><template shadowrootmode="open"><iframe id="f"></iframe></template></div>`)
	f := doc.ByID("host").Shadow.Root.ByID("f")
	f.FrameDoc = Parse(`<p>frame content</p>`)
	if n := len(doc.Root().FrameDocs()); n != 1 {
		t.Fatalf("FrameDocs = %d", n)
	}
}
