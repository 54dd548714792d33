package core

import (
	"strings"
	"testing"

	"cookiewalk/internal/dom"
)

const regularBannerHTML = `
<html><body>
<main><p>Article about sports and more sports.</p></main>
<div id="cmp-banner" class="cookie-banner" role="dialog" style="position:fixed;bottom:0">
  <p>We and our partners use cookies to personalise content. You can withdraw your consent at any time.</p>
  <button id="a">Accept all</button>
  <button id="r">Reject all</button>
</div>
</body></html>`

const cookiewallHTML = `
<html><body>
<main><p>Nachrichten des Tages.</p></main>
<div id="cw-banner" class="cw-overlay" role="dialog" aria-modal="true" style="position:fixed;top:20%">
  <p>Mit Werbung kostenlos weiterlesen oder werbefrei im Abo für nur 2,99 € pro Monat.
     Wenn Sie akzeptieren, verarbeiten wir Ihre Daten mit Cookies.</p>
  <button id="a">Alle akzeptieren</button>
  <button id="s">Jetzt Abo abschließen</button>
</div>
</body></html>`

func TestDetectRegularBanner(t *testing.T) {
	b := Detect(dom.Parse(regularBannerHTML))
	if b.Kind != KindRegular {
		t.Fatalf("kind = %v (text %q)", b.Kind, b.Text)
	}
	if b.Source != SourceMainDOM {
		t.Fatalf("source = %v", b.Source)
	}
	if b.AcceptButton == nil || b.AcceptButton.ID() != "a" {
		t.Fatal("accept button not found")
	}
	if b.RejectButton == nil || b.RejectButton.ID() != "r" {
		t.Fatal("reject button not found")
	}
	if len(b.Prices) != 0 {
		t.Fatalf("prices on a regular banner: %v", b.Prices)
	}
}

func TestDetectCookiewall(t *testing.T) {
	b := Detect(dom.Parse(cookiewallHTML))
	if b.Kind != KindCookiewall {
		t.Fatalf("kind = %v", b.Kind)
	}
	if b.RejectButton != nil {
		t.Fatal("cookiewall must have no reject button")
	}
	if b.SubscribeButton == nil || b.SubscribeButton.ID() != "s" {
		t.Fatal("subscribe button not found")
	}
	if len(b.MatchedWords) == 0 {
		t.Fatal("corpus words not matched (Abo)")
	}
	if len(b.Prices) != 1 || b.Prices[0].Code != "EUR" {
		t.Fatalf("prices = %v", b.Prices)
	}
	if b.MonthlyEUR < 2.98 || b.MonthlyEUR > 3.0 {
		t.Fatalf("monthly = %g", b.MonthlyEUR)
	}
}

func TestDetectNoBanner(t *testing.T) {
	b := Detect(dom.Parse(`<html><body><main><p>Just an article about cooking.</p></main></body></html>`))
	if b.Kind != KindNone {
		t.Fatalf("kind = %v", b.Kind)
	}
}

func TestDetectIgnoresNonOverlayKeywords(t *testing.T) {
	// A footer mentioning cookies is not a banner.
	b := Detect(dom.Parse(`<html><body><main>text</main><footer><a href="/privacy">Privacy and cookie policy</a></footer></body></html>`))
	if b.Kind != KindNone {
		t.Fatalf("footer misdetected as %v", b.Kind)
	}
}

func TestDetectShadowDOMWorkaround(t *testing.T) {
	html := `<html><body><div id="host"><template shadowrootmode="open">` +
		`<div id="cw" class="consent-layer" role="dialog" style="position:fixed;top:10%">` +
		`<p>Werbefrei im Abo für 3,99 € pro Monat oder Cookies akzeptieren.</p>` +
		`<button id="acc">Akzeptieren</button><button id="sub">Abonnieren</button>` +
		`</div></template></div></body></html>`
	doc := dom.Parse(html)
	b := Detect(doc)
	if b.Kind != KindCookiewall {
		t.Fatalf("kind = %v", b.Kind)
	}
	if b.Source != SourceShadowDOM || b.ShadowMode != dom.ShadowOpen {
		t.Fatalf("source = %v mode = %v", b.Source, b.ShadowMode)
	}
	// The element must be the ORIGINAL node inside the shadow root, not
	// the search clone: mutating it must be visible via the host.
	host := doc.ByID("host")
	orig := host.Shadow.Root.ByID("cw")
	if b.Element != orig {
		t.Fatal("detection returned a clone, not the original shadow node")
	}
	if b.AcceptButton == nil || b.AcceptButton != host.Shadow.Root.ByID("acc") {
		t.Fatal("accept button is not the original shadow node")
	}
}

func TestDetectClosedShadow(t *testing.T) {
	html := `<html><body><div id="host"><template shadowrootmode="closed">` +
		`<div class="cmp-container" role="dialog"><p>Cookies und Werbung: bitte zustimmen.</p>` +
		`<button>Zustimmen</button><button>Ablehnen</button></div></template></div></body></html>`
	b := Detect(dom.Parse(html))
	if b.Kind != KindRegular || b.ShadowMode != dom.ShadowClosed {
		t.Fatalf("kind=%v mode=%v", b.Kind, b.ShadowMode)
	}
}

func TestDetectIFrameBanner(t *testing.T) {
	doc := dom.Parse(`<html><body><iframe id="f" src="https://cmp.example/frame" style="position:fixed;top:0"></iframe></body></html>`)
	frame := dom.Parse(`<html><body><div id="cw" class="consent-layer" role="dialog" style="position:fixed;top:0">` +
		`<p>Keep reading with advertising or subscribe ad-free for $3.99 per month. We use cookies.</p>` +
		`<button id="a">Accept all</button><button id="s">Subscribe now</button></div></body></html>`)
	doc.ByID("f").FrameDoc = frame
	b := Detect(doc)
	if b.Kind != KindCookiewall || b.Source != SourceIFrame {
		t.Fatalf("kind=%v source=%v", b.Kind, b.Source)
	}
	if b.Element != frame.ByID("cw") {
		t.Fatal("element is not the frame-document node")
	}
	wantWords := map[string]bool{"ad-free": true, "subscribe": true}
	for _, w := range b.MatchedWords {
		delete(wantWords, w)
	}
	if len(wantWords) != 0 {
		t.Fatalf("missing corpus words: %v (got %v)", wantWords, b.MatchedWords)
	}
}

func TestDetectPrefersInnermostCandidate(t *testing.T) {
	// A banner nested in an overlay wrapper: the inner, smaller element
	// with the same evidence should win.
	html := `<html><body><div id="outer" class="modal" style="position:fixed;top:0">
	<div id="inner" class="cookie-banner" role="dialog" style="position:fixed;bottom:0">
	<p>We use cookies for advertising and consent management.</p>
	<button>Accept</button></div></div></body></html>`
	b := Detect(dom.Parse(html))
	if b.Element.ID() != "inner" {
		t.Fatalf("picked %q", b.Element.ID())
	}
}

func TestDetectInvisibleBannerIgnored(t *testing.T) {
	html := `<html><body><div class="cookie-banner" role="dialog" style="display:none">
	<p>We use cookies.</p><button>Accept</button></div></body></html>`
	if b := Detect(dom.Parse(html)); b.Kind != KindNone {
		t.Fatalf("hidden banner detected: %v", b.Kind)
	}
}

func TestCorpusWordMatching(t *testing.T) {
	cases := map[string][]string{
		"jetzt im abo lesen":           {"abo"},
		"für abonnenten kostenlos":     {"abonnent", "abonne"}, // both prefixes hit
		"scegli l'abbonamento":         {"abbonamento"},
		"devenez abonné sans pub":      {"abonné"},
		"kies een abonnement":          {"abonne"},
		"enjoy ad-free reading":        {"ad-free"},
		"subscribe today":              {"subscribe"},
		"about cookies and labor laws": nil, // "abo" must not match inside words
		"die saboteure":                nil,
		"nur mit werbung weiterlesen":  nil,
	}
	for text, want := range cases {
		got := matchCorpusWords([]byte(text))
		if len(got) != len(want) {
			t.Errorf("matchCorpusWords(%q) = %v, want %v", text, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("matchCorpusWords(%q) = %v, want %v", text, got, want)
			}
		}
	}
}

func TestDecoyStyleBannerIsFalsePositive(t *testing.T) {
	// A regular banner advertising a priced newsletter — the §3 decoy —
	// must be (mis)classified as a cookiewall, reproducing the paper's
	// 98.2% precision mechanism.
	html := `<html><body><div class="cookie-banner" role="dialog" style="position:fixed;bottom:0">
	<p>Wir verwenden Cookies. PS: Unser Newsletter im Abo kostet nur 1,99 € im Monat!</p>
	<button>Alle akzeptieren</button><button>Ablehnen</button></div></body></html>`
	b := Detect(dom.Parse(html))
	if b.Kind != KindCookiewall {
		t.Fatalf("decoy classified as %v — precision experiment broken", b.Kind)
	}
	if b.RejectButton == nil {
		t.Fatal("decoy must still expose its reject button (ground-truth giveaway)")
	}
}

func TestSourceAndKindStrings(t *testing.T) {
	if SourceShadowDOM.String() != "shadow-dom" || KindCookiewall.String() != "cookiewall" ||
		SourceNone.String() != "none" || KindNone.String() != "none" ||
		SourceMainDOM.String() != "main-dom" || SourceIFrame.String() != "iframe" ||
		KindRegular.String() != "regular" {
		t.Fatal("String() methods wrong")
	}
}

func TestDetectTextIsNormalized(t *testing.T) {
	html := "<html><body><div class=\"cookie-banner\" role=\"dialog\" style=\"position:fixed;bottom:0\"><p>We   use\n\tcookies today.</p><button>Accept</button></div></body></html>"
	b := Detect(dom.Parse(html))
	if strings.Contains(b.Text, "\n") || strings.Contains(b.Text, " ") {
		t.Fatalf("text not normalized: %q", b.Text)
	}
}

// TestDetectAllocs pins what one detection on a warm Detector
// allocates, per page, at exactly the measured count (see
// detectFixture.allocs). Text extraction, lower-casing, keyword and
// label matching and corpus tokenizing allocate nothing.
func TestDetectAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is exact; skip in -short/-race runs")
	}
	var d Detector
	for _, f := range detectFixtures() {
		if got := d.DetectWith(f.doc, Options{}); got.Kind != f.kind {
			t.Fatalf("%s: kind = %v, want %v", f.name, got.Kind, f.kind)
		}
		got := testing.AllocsPerRun(100, func() { d.DetectWith(f.doc, Options{}) })
		t.Logf("%s: %.1f allocs (budget %.0f)", f.name, got, f.allocs)
		if got > f.allocs {
			t.Errorf("%s: detection allocates %.1f, budget is %.0f — the detect path regressed", f.name, got, f.allocs)
		}
	}
}
