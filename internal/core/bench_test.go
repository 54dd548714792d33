package core

import (
	"testing"

	"cookiewalk/internal/dom"
)

// shadowWallHTML is a farm-shaped cookiewall page: the accept-or-pay
// banner sits in an open shadow root, and a CMP iframe beside it holds
// a weaker consent overlay, so detection takes every path: the main
// document, the shadow clone and the frame document.
const shadowWallHTML = `<!DOCTYPE html><html><head><title>Tagesblatt</title></head><body>
<header><h1>Tagesblatt</h1><nav><a href="/">Start</a> <a href="/sport">Sport</a></nav></header>
<main><article><h2>Nachrichten</h2><p>Politik, Wirtschaft und Sport aus der Region.</p></article></main>
<div id="host"><template shadowrootmode="open">
<div id="cw" class="cw-overlay" role="dialog" aria-modal="true" style="position:fixed;top:20%">
<p>Mit Werbung kostenlos weiterlesen oder werbefrei im Abo für nur 2,99&nbsp;€ pro Monat.
Wenn Sie akzeptieren, verarbeiten wir Ihre Daten mit Cookies.</p>
<button id="a">Alle akzeptieren</button><button id="s">Jetzt Abo abschließen</button>
</div></template></div>
<iframe id="cmp" src="https://cmp.example/frame" style="position:fixed;bottom:0"></iframe>
<footer><a href="/datenschutz">Datenschutz</a></footer></body></html>`

// cmpFrameHTML is the document shadowWallHTML's iframe loads.
const cmpFrameHTML = `<html><body><div class="consent-layer" style="position:fixed;bottom:0">
<p>Datenschutz-Einstellungen</p><a href="/privacy">Mehr erfahren</a></div></body></html>`

// detectFixture is one page of the detection layer's allocation gate
// and benchmark.
type detectFixture struct {
	name string
	doc  *dom.Node
	kind Kind
	// allocs is what one DetectWith on a warm Detector allocates:
	// Banner.Text for every banner; for the cookiewall also the
	// shadow-root clone (most of it), the shadow-root and frame lists,
	// MatchedWords and the price search.
	allocs float64
}

// detectFixtures returns the cookiewall with shadow DOM and iframe, a
// regular main-document banner, and a page without consent UI.
func detectFixtures() []detectFixture {
	wall := dom.Parse(shadowWallHTML)
	wall.ByID("cmp").FrameDoc = dom.Parse(cmpFrameHTML)
	return []detectFixture{
		{"cookiewall", wall, KindCookiewall, 27},
		{"regular", dom.Parse(regularBannerHTML), KindRegular, 1},
		{"none", dom.Parse(`<html><body><main><p>Just an article about cooking.</p></main>` +
			`<footer><a href="/privacy">Privacy and cookie policy</a></footer></body></html>`), KindNone, 0},
	}
}

// BenchmarkDetect is the detect layer of the hot-path benchmark suite:
// one DetectWith per page on a Detector reused across iterations, as a
// crawl worker keeps one.
func BenchmarkDetect(b *testing.B) {
	for _, f := range detectFixtures() {
		b.Run(f.name, func(b *testing.B) {
			var d Detector
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := d.DetectWith(f.doc, Options{}); got.Kind != f.kind {
					b.Fatalf("kind = %v, want %v", got.Kind, f.kind)
				}
			}
		})
	}
}
