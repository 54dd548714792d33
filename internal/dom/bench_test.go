package dom

import "testing"

var benchPage = `<!DOCTYPE html><html><head><title>t</title></head><body>
<header><h1>Site</h1><nav><a href="/">Home</a></nav></header>
<main><article><h2>head</h2><p>one two three</p><p>four five six</p></article></main>
<div id="cw-banner" class="cw-overlay consent-layer" role="dialog" style="position:fixed;top:20%">
<p>Werbefrei im Abo für 2,99 € pro Monat oder Cookies akzeptieren.</p>
<button id="a">Alle akzeptieren</button><button id="s">Abonnieren</button></div>
<div id="host"><template shadowrootmode="open"><p class="inner">shadow</p></template></div>
<footer>© site</footer></body></html>`

// BenchmarkDOMParse is the parse layer of the hot-path benchmark
// suite (BenchmarkVisit / BenchmarkRenderSitePage / BenchmarkDOMParse /
// BenchmarkCosmetics): one full farm-shaped page through one reused
// Parser, as a crawl worker's browser parses.
func BenchmarkDOMParse(b *testing.B) {
	var p Parser
	b.ReportAllocs()
	b.SetBytes(int64(len(benchPage)))
	for i := 0; i < b.N; i++ {
		if doc := p.Parse(benchPage); doc.Body() == nil {
			b.Fatal("no body")
		}
	}
}

func BenchmarkQuerySelector(b *testing.B) {
	doc := Parse(benchPage)
	sel := MustCompileSelector("div.consent-layer > button")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if doc.Query(sel) == nil {
			b.Fatal("not found")
		}
	}
}

func BenchmarkDeepText(b *testing.B) {
	doc := Parse(benchPage)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if doc.Body().DeepText() == "" {
			b.Fatal("empty")
		}
	}
}

func BenchmarkCloneWithMap(b *testing.B) {
	doc := Parse(benchPage)
	host := doc.ByID("host")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c, _ := host.CloneWithMap(); c == nil {
			b.Fatal("nil clone")
		}
	}
}
