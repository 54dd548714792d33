package browser

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cookiewalk/internal/adblock"
	"cookiewalk/internal/dom"
	"cookiewalk/internal/htmlx"
	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/vantage"
)

// lifetimeSample is the farm pages the lifetime tests compose: one of
// each page shape Compose builds differently, then every 25th reachable
// site of the universe. blocked marks the pages loaded through the §4.5
// blocker.
func lifetimeSample(t *testing.T) (sites []*synthweb.Site, blocked []bool) {
	t.Helper()
	for _, c := range []struct {
		blocked bool
		pred    func(*synthweb.Site) bool
	}{
		{false, func(s *synthweb.Site) bool { // local banner in the main DOM
			return s.Banner == synthweb.BannerCookiewall && s.Provider.Name == "local" && s.Embedding == synthweb.EmbedMainDOM
		}},
		{false, func(s *synthweb.Site) bool { // banner injected by a provider script
			return s.Banner == synthweb.BannerCookiewall && s.Provider.Name == "contentpass" && s.Embedding == synthweb.EmbedMainDOM
		}},
		{false, func(s *synthweb.Site) bool { return s.Embedding == synthweb.EmbedIFrame }},
		{false, func(s *synthweb.Site) bool { return s.Embedding == synthweb.EmbedShadowOpen }},
		{false, func(s *synthweb.Site) bool { return s.Embedding == synthweb.EmbedShadowClosed }},
		{true, func(s *synthweb.Site) bool { // the injection script blocked
			return s.Banner == synthweb.BannerCookiewall && s.Provider.Name == "contentpass"
		}},
		{true, func(s *synthweb.Site) bool { return s.AntiAdblock }},
		{true, func(s *synthweb.Site) bool { return s.ScrollLock }},
	} {
		sites = append(sites, findSite(t, c.pred))
		blocked = append(blocked, c.blocked)
	}
	for i, s := range testReg.Sites() {
		if i%25 == 0 && s.Reachable {
			sites = append(sites, s)
			blocked = append(blocked, false)
		}
	}
	return sites, blocked
}

// TestResetRecyclesPages composes every sample page on one Browser,
// with a Reset before each, and checks that each renders exactly as the
// page a fresh Browser composes, and that the page composed before a
// Reset reads as empty after it: its Page value zero, its document
// without children, its element's attributes and its shadow roots
// cleared.
func TestResetRecyclesPages(t *testing.T) {
	vp, _ := vantage.ByName("Germany")
	blocker := adblock.NewEngine(adblock.BaseList(), adblock.AnnoyancesList())
	sites, blocked := lifetimeSample(t)
	shared := New(testFarm.Transport(), vp)
	var prev *Page
	var prevDoc *dom.Node
	var prevAttrs []htmlx.Attribute
	var prevShadows []*dom.ShadowRoot
	shadowPages := 0
	for i, s := range sites {
		shared.Reset(testFarm.Transport(), vp)
		if prev != nil {
			if !reflect.ValueOf(*prev).IsZero() {
				t.Fatalf("%s: page survived Reset: %+v", sites[i-1].Domain, *prev)
			}
			if prevDoc.FirstChild != nil || prevDoc.LastChild != nil {
				t.Fatalf("%s: document survived Reset", sites[i-1].Domain)
			}
			for _, a := range prevAttrs {
				if a != (htmlx.Attribute{}) {
					t.Fatalf("%s: attribute %+v survived Reset", sites[i-1].Domain, a)
				}
			}
			for _, sr := range prevShadows {
				if *sr != (dom.ShadowRoot{}) {
					t.Fatalf("%s: shadow root %+v survived Reset", sites[i-1].Domain, *sr)
				}
			}
		}
		fresh := New(testFarm.Transport(), vp)
		if blocked[i] {
			shared.Blocker, fresh.Blocker = blocker, blocker
		}
		got, err := shared.OpenDomain(s.Domain)
		if err != nil {
			t.Fatalf("%s: %v", s.Domain, err)
		}
		gotDump := dumpPage(got)
		want, err := fresh.OpenDomain(s.Domain)
		if err != nil {
			t.Fatalf("%s: %v", s.Domain, err)
		}
		if wantDump := dumpPage(want); gotDump != wantDump {
			t.Fatalf("%s: recycled session composed\n%s\nwant\n%s", s.Domain, gotDump, wantDump)
		}
		prev, prevDoc, prevAttrs = got, got.Doc, firstAttrs(got.Doc)
		if len(prevAttrs) == 0 {
			t.Fatalf("%s: page has no element with attributes", s.Domain)
		}
		prevShadows = prevShadows[:0]
		got.Doc.EachShadowRoot(func(sr *dom.ShadowRoot) { prevShadows = append(prevShadows, sr) })
		if len(prevShadows) > 0 {
			shadowPages++
		}
	}
	if shadowPages < 2 {
		t.Fatalf("%d sample pages host a shadow root, want the open and the closed one at least", shadowPages)
	}
}

// TestSessionPagesStayValid runs the revocation flow's pages in one
// session after a Reset: page, the page after accepting, a revisit and
// a revisit after deleting cookies. Each page must still render as it
// did when composed once the flow is over, and match what a fresh
// Browser driving the same flow composes.
func TestSessionPagesStayValid(t *testing.T) {
	vp, _ := vantage.ByName("Germany")
	// flow returns the flow's pages and each page's dump, taken as soon
	// as the page was composed.
	flow := func(b *Browser, domain string) ([]*Page, []string) {
		var pages []*Page
		var dumps []string
		keep := func(p *Page, err error) *Page {
			if err != nil {
				t.Fatalf("%s: %v", domain, err)
			}
			pages, dumps = append(pages, p), append(dumps, dumpPage(p))
			return p
		}
		page := keep(b.OpenDomain(domain))
		if accept := query(page.Doc, "[data-action=consent-accept]"); accept != nil {
			keep(b.Click(page, accept))
		}
		keep(b.OpenDomain(domain))
		b.Jar.Clear()
		keep(b.OpenDomain(domain))
		return pages, dumps
	}
	shared := New(testFarm.Transport(), vp)
	for _, s := range testReg.CookiewallSites() {
		shared.Reset(testFarm.Transport(), vp)
		pages, dumps := flow(shared, s.Domain)
		_, want := flow(New(testFarm.Transport(), vp), s.Domain)
		for i, p := range pages {
			// The URL is the session's one URL (OpenDomain), so later
			// opens may change it: compare the rest.
			if got := dumpPage(p); dumpTail(got) != dumpTail(dumps[i]) {
				t.Fatalf("%s: page %d changed later in its session:\n%s\nwas\n%s", s.Domain, i, got, dumps[i])
			}
			if dumps[i] != want[i] {
				t.Fatalf("%s: page %d composed\n%s\nwant\n%s", s.Domain, i, dumps[i], want[i])
			}
		}
	}
}

// TestNestedDirectiveSnapshots runs two script directives whose
// fragments have several children each: the directive snapshot and
// the children snapshot nest, so they must not share a buffer.
func TestNestedDirectiveSnapshots(t *testing.T) {
	b, _ := scriptedBrowser(map[string]scripted{
		"https://a.de/": {status: 200, body: `<div id=x></div><div id=y></div>` +
			`<script src="https://cdn.de/1.js" data-cw-inject="#x"></script>` +
			`<script src="https://cdn.de/2.js" data-cw-inject="#y"></script>`},
		"https://cdn.de/1.js": {status: 200, body: `<p>1a</p><p>1b</p><p>1c</p>`},
		"https://cdn.de/2.js": {status: 200, body: `<p>2a</p><p>2b</p><p>2c</p>`},
	})
	for i := 0; i < 2; i++ {
		page, err := b.Open("https://a.de/")
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct{ sel, want string }{{"#x", "1a 1b 1c"}, {"#y", "2a 2b 2c"}} {
			if got := query(page.Doc, c.sel).Text(); got != c.want {
				t.Fatalf("visit %d: %s holds %q, want %q", i, c.sel, got, c.want)
			}
		}
		b.Reset(b.Transport, b.VP)
	}
}

// firstAttrs returns the attributes of doc's first element that has
// any.
func firstAttrs(doc *dom.Node) []htmlx.Attribute {
	var attrs []htmlx.Attribute
	doc.Walk(func(n *dom.Node) bool {
		if len(n.Attrs) > 0 {
			attrs = n.Attrs
			return false
		}
		return true
	})
	return attrs
}

// dumpPage serializes everything Compose builds: the page's fields on
// the first line, then its tree with shadow roots and frame documents.
func dumpPage(p *Page) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %d %q plea=%v lock=%v fp=%x\n", p.URL, p.Status, p.Blocked,
		p.AdblockPlea, p.ScrollLocked, p.Fingerprint)
	dumpNode(&sb, p.Doc, 0)
	return sb.String()
}

// dumpTail is a dumpPage result without its first line.
func dumpTail(dump string) string {
	_, tail, _ := strings.Cut(dump, "\n")
	return tail
}

func dumpNode(sb *strings.Builder, n *dom.Node, depth int) {
	fmt.Fprintf(sb, "%s%d %q %q %q\n", strings.Repeat(" ", depth), n.Type, n.Tag, n.Data, n.Attrs)
	if n.Shadow != nil {
		fmt.Fprintf(sb, "%s#shadow %s\n", strings.Repeat(" ", depth+1), n.Shadow.Mode)
		dumpNode(sb, n.Shadow.Root, depth+2)
	}
	if n.FrameDoc != nil {
		fmt.Fprintf(sb, "%s#frame\n", strings.Repeat(" ", depth+1))
		dumpNode(sb, n.FrameDoc, depth+2)
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		dumpNode(sb, c, depth+1)
	}
}
