package browser

import (
	"net/http"
	"strings"
	"testing"

	"cookiewalk/internal/adblock"
	"cookiewalk/internal/cookies"
	"cookiewalk/internal/dom"
	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/trackdb"
	"cookiewalk/internal/vantage"
	"cookiewalk/internal/webfarm"
)

var (
	testReg  = synthweb.Generate(synthweb.Config{Seed: 11, FillerScale: 0.01})
	testFarm = webfarm.New(testReg)
)

func newBrowser(vpName string) *Browser {
	vp, ok := vantage.ByName(vpName)
	if !ok {
		panic("unknown vp " + vpName)
	}
	return New(testFarm.Transport(), vp)
}

func findSite(t *testing.T, pred func(*synthweb.Site) bool) *synthweb.Site {
	t.Helper()
	for _, s := range testReg.Sites() {
		if pred(s) {
			return s
		}
	}
	t.Fatal("no site matches predicate")
	return nil
}

// query runs a selector the way the detector does: compiled once, then
// matched with Query.
func query(n *dom.Node, sel string) *dom.Node {
	return n.Query(dom.MustCompileSelector(sel))
}

// jarTally counts the browser's cookies as the crawl does after a visit
// to host.
func jarTally(b *Browser, host string) cookies.Tally {
	return cookies.Count(b.Jar, host, trackdb.IsTracking)
}

func TestOpenParsesPage(t *testing.T) {
	s := findSite(t, func(s *synthweb.Site) bool {
		return s.Banner == synthweb.BannerCookiewall && s.Provider.Name == "local" &&
			s.Embedding == synthweb.EmbedMainDOM
	})
	b := newBrowser("Germany")
	page, err := b.Open("https://" + s.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	if page.Status != 200 {
		t.Fatalf("status %d", page.Status)
	}
	if query(page.Doc, "#cw-banner") == nil {
		t.Fatal("banner not in DOM")
	}
	if jarTally(b, s.Domain) == (cookies.Tally{}) {
		t.Fatal("no cookies stored")
	}
}

func TestScriptInjection(t *testing.T) {
	s := findSite(t, func(s *synthweb.Site) bool {
		return s.Banner == synthweb.BannerCookiewall &&
			s.Provider.Name == "contentpass" && s.Embedding == synthweb.EmbedMainDOM
	})
	b := newBrowser("Germany")
	rec := &recordingTransport{base: b.Transport.(bodyTransport)}
	b.Transport = rec
	page, err := b.Open("https://" + s.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	// The provider script must have been fetched and its fragment
	// injected into the slot.
	slot := query(page.Doc, "#cw-slot")
	if slot == nil {
		t.Fatal("slot missing")
	}
	if query(slot, "#cw-banner") == nil {
		t.Fatal("banner fragment not injected")
	}
	found := false
	for _, u := range rec.urls {
		if strings.Contains(u, "cdn.contentpass.example/cw.js") {
			found = true
		}
	}
	if !found {
		t.Fatalf("loader not fetched: %v", rec.urls)
	}
}

// recordingTransport records the URL of every request, then forwards it
// to the farm's in-process transport on its zero-copy path.
type recordingTransport struct {
	base bodyTransport
	urls []string
}

func (r *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	panic("recordingTransport: the browser must take the RoundTripBody path")
}

func (r *recordingTransport) RoundTripBody(req *http.Request) (int, http.Header, string, uint64, error) {
	r.urls = append(r.urls, req.URL.String())
	return r.base.RoundTripBody(req)
}

func TestShadowDOMMaterialized(t *testing.T) {
	s := findSite(t, func(s *synthweb.Site) bool {
		return s.Banner == synthweb.BannerCookiewall && s.Provider.Name == "local" &&
			s.Embedding == synthweb.EmbedShadowOpen
	})
	b := newBrowser("Germany")
	page, err := b.Open("https://" + s.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	// Banner must NOT be reachable by plain selector...
	if query(page.Doc, "#cw-banner") != nil {
		t.Fatal("shadow content leaked into light DOM")
	}
	// ...but must exist inside a shadow root.
	roots := shadowRoots(page.Doc)
	if len(roots) == 0 {
		t.Fatal("no shadow roots")
	}
	found := false
	for _, sr := range roots {
		if query(sr.Root, "#cw-banner") != nil {
			found = true
		}
	}
	if !found {
		t.Fatal("banner missing from shadow root")
	}
}

func TestInjectedShadowViaProvider(t *testing.T) {
	s := findSite(t, func(s *synthweb.Site) bool {
		return s.Banner == synthweb.BannerCookiewall && s.Provider.Host != "" &&
			s.Embedding == synthweb.EmbedShadowClosed
	})
	b := newBrowser("Germany")
	page, err := b.Open("https://" + s.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	roots := shadowRoots(page.Doc)
	if len(roots) != 1 || roots[0].Mode != dom.ShadowClosed {
		t.Fatalf("shadow roots = %v", roots)
	}
	if query(roots[0].Root, "#cw-banner") == nil {
		t.Fatal("closed shadow banner missing")
	}
}

func TestIFrameLoaded(t *testing.T) {
	s := findSite(t, func(s *synthweb.Site) bool {
		return s.Banner == synthweb.BannerCookiewall &&
			s.Embedding == synthweb.EmbedIFrame && s.Provider.Name == "freechoice"
	})
	b := newBrowser("Germany")
	page, err := b.Open("https://" + s.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	frames := frameDocs(page.Doc)
	if len(frames) == 0 {
		t.Fatal("iframe document not loaded")
	}
	found := false
	for _, fd := range frames {
		if query(fd, "#cw-banner") != nil {
			found = true
		}
	}
	if !found {
		t.Fatal("banner missing from frame document")
	}
}

func TestAcceptFlowSetsTrackingCookies(t *testing.T) {
	s := findSite(t, func(s *synthweb.Site) bool {
		return s.Banner == synthweb.BannerCookiewall && s.Provider.Name == "local" &&
			s.Embedding == synthweb.EmbedMainDOM && s.Cookies.PostTracking > 5
	})
	b := newBrowser("Germany")
	page, err := b.Open("https://" + s.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	before := jarTally(b, s.Domain)
	accept := query(page.Doc, "#cw-accept")
	if accept == nil {
		t.Fatal("accept button missing")
	}
	after, err := b.Click(page, accept)
	if err != nil {
		t.Fatal(err)
	}
	if query(after.Doc, "#cw-banner") != nil {
		t.Fatal("banner persists after accept")
	}
	tally := jarTally(b, s.Domain)
	if tally.FirstParty+tally.ThirdParty <= before.FirstParty+before.ThirdParty {
		t.Fatal("no new cookies after accept")
	}
	// Tracking cookies must now exist.
	if tally.Tracking == 0 {
		t.Fatal("no tracking cookies after accepting a cookiewall")
	}
}

func TestRejectFlowOnRegularBanner(t *testing.T) {
	s := findSite(t, func(s *synthweb.Site) bool {
		return s.Banner == synthweb.BannerRegular && !s.Decoy && s.Reachable &&
			len(s.ShowToVPs) == 0 && s.Embedding == synthweb.EmbedMainDOM
	})
	b := newBrowser("Germany")
	page, err := b.Open("https://" + s.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	reject := query(page.Doc, "#cmp-reject")
	if reject == nil {
		t.Fatal("reject button missing")
	}
	after, err := b.Click(page, reject)
	if err != nil {
		t.Fatal(err)
	}
	if query(after.Doc, "#cmp-banner") != nil {
		t.Fatal("banner persists after reject")
	}
	if jarTally(b, s.Domain).Tracking != 0 {
		t.Fatal("tracking cookie set after reject")
	}
}

func TestSubscriptionFlow(t *testing.T) {
	s := findSite(t, func(s *synthweb.Site) bool {
		return s.Provider.Name == "contentpass" && s.Embedding == synthweb.EmbedMainDOM
	})
	acct, err := testReg.SMP.Subscribe("contentpass", "crawler@measurement.example")
	if err != nil {
		t.Fatal(err)
	}
	b := newBrowser("Germany")
	b.SMPToken = acct.Token
	page, err := b.Open("https://" + s.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	var sub *dom.Node
	sub = query(page.Doc, "#cw-subscribe")
	if sub == nil {
		// banner might be injected into the slot
		for _, sr := range shadowRoots(page.Doc) {
			if n := query(sr.Root, "#cw-subscribe"); n != nil {
				sub = n
			}
		}
	}
	if sub == nil {
		t.Fatal("subscribe button missing")
	}
	after, err := b.Click(page, sub)
	if err != nil {
		t.Fatal(err)
	}
	if query(after.Doc, "#sub-badge") == nil {
		t.Fatal("subscription badge missing after login")
	}
	if jarTally(b, s.Domain).Tracking != 0 {
		t.Fatal("tracking cookie for subscriber")
	}
}

func TestBlockerSuppressesBannerScript(t *testing.T) {
	s := findSite(t, func(s *synthweb.Site) bool {
		return s.Banner == synthweb.BannerCookiewall && s.Provider.Name == "contentpass"
	})
	b := newBrowser("Germany")
	b.Blocker = adblock.NewEngine(adblock.BaseList(), adblock.AnnoyancesList())
	page, err := b.Open("https://" + s.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	// No banner anywhere: not in DOM, not in shadow roots, not in frames.
	if query(page.Doc, "#cw-banner") != nil {
		t.Fatal("banner present despite blocker")
	}
	if len(shadowRoots(page.Doc)) != 0 || len(frameDocs(page.Doc)) != 0 {
		t.Fatal("banner materialized despite blocker")
	}
	if len(page.Blocked) == 0 {
		t.Fatal("nothing recorded as blocked")
	}
}

func TestBlockerDoesNotAffectLocalBanner(t *testing.T) {
	s := findSite(t, func(s *synthweb.Site) bool {
		return s.Banner == synthweb.BannerCookiewall && s.Provider.Name == "local" &&
			s.Embedding == synthweb.EmbedMainDOM
	})
	b := newBrowser("Germany")
	b.Blocker = adblock.NewEngine(adblock.BaseList(), adblock.AnnoyancesList())
	page, err := b.Open("https://" + s.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	if query(page.Doc, "#cw-banner") == nil {
		t.Fatal("locally-served banner must survive the blocker")
	}
}

func TestBlockerTrackerSuppression(t *testing.T) {
	s := findSite(t, func(s *synthweb.Site) bool {
		return s.Banner == synthweb.BannerCookiewall && s.Provider.Name == "local" &&
			s.Embedding == synthweb.EmbedMainDOM && s.Cookies.PostTracking > 5
	})
	b := newBrowser("Germany")
	b.Blocker = adblock.NewEngine(adblock.BaseList())
	page, err := b.Open("https://" + s.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	accept := query(page.Doc, "#cw-accept")
	if _, err := b.Click(page, accept); err != nil {
		t.Fatal(err)
	}
	if jarTally(b, s.Domain).Tracking != 0 {
		t.Fatal("tracking cookie set despite base list")
	}
}

func TestAdblockQuirks(t *testing.T) {
	var anti, scroll *synthweb.Site
	for _, s := range testReg.CookiewallSites() {
		if s.AntiAdblock {
			anti = s
		}
		if s.ScrollLock {
			scroll = s
		}
	}
	blocker := adblock.NewEngine(adblock.BaseList(), adblock.AnnoyancesList())

	b := newBrowser("Germany")
	b.Blocker = blocker
	page, err := b.Open("https://" + anti.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	if !page.AdblockPlea {
		t.Fatal("anti-adblock plea not detected")
	}
	if query(page.Doc, "#adblock-plea") == nil {
		t.Fatal("plea element should be revealed")
	}

	b2 := newBrowser("Germany")
	b2.Blocker = blocker
	page2, err := b2.Open("https://" + scroll.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	if !page2.ScrollLocked {
		t.Fatal("scroll lock not detected")
	}

	// Without a blocker, neither quirk manifests.
	b3 := newBrowser("Germany")
	page3, err := b3.Open("https://" + anti.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	if page3.AdblockPlea || query(page3.Doc, "#adblock-plea") != nil {
		t.Fatal("plea visible without blocker")
	}
}

func TestGeoHidesBanner(t *testing.T) {
	s := findSite(t, func(s *synthweb.Site) bool {
		return len(s.ShowToVPs) == 1 && s.ShowToVPs[0] == "Germany"
	})
	b := newBrowser("US East")
	page, err := b.Open("https://" + s.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	if query(page.Doc, "#cw-banner, #cw-slot, #cw-host, #cw-frame") != nil {
		t.Fatal("geo-restricted banner visible from US East")
	}
}

func TestUnreachableSiteErrors(t *testing.T) {
	var u *synthweb.Site
	for _, s := range testReg.Sites() {
		if !s.Reachable {
			u = s
			break
		}
	}
	b := newBrowser("Germany")
	if _, err := b.Open("https://" + u.Domain + "/"); err == nil {
		t.Fatal("unreachable site must error")
	}
}

func TestClickErrors(t *testing.T) {
	b := newBrowser("Germany")
	s := findSite(t, func(s *synthweb.Site) bool {
		return s.Banner == synthweb.BannerCookiewall && s.Provider.Name == "local" &&
			s.Embedding == synthweb.EmbedMainDOM
	})
	page, err := b.Open("https://" + s.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Click(page, nil); err == nil {
		t.Fatal("nil button must error")
	}
	// Subscribe without token.
	sub := query(page.Doc, "#cw-subscribe")
	if _, err := b.Click(page, sub); err == nil {
		t.Fatal("subscribe without token must error")
	}
	// Unknown action.
	bogus := dom.NewElement("button", "data-action", "self-destruct")
	page.Doc.Body().AppendChild(bogus)
	if _, err := b.Click(page, bogus); err == nil {
		t.Fatal("unknown action must error")
	}
}

// shadowRoots collects the roots doc.EachShadowRoot visits.
func shadowRoots(doc *dom.Node) []*dom.ShadowRoot {
	var out []*dom.ShadowRoot
	doc.EachShadowRoot(func(sr *dom.ShadowRoot) { out = append(out, sr) })
	return out
}

// frameDocs collects the documents doc.EachFrameDoc visits.
func frameDocs(doc *dom.Node) []*dom.Node {
	var out []*dom.Node
	doc.EachFrameDoc(func(fd *dom.Node) { out = append(out, fd) })
	return out
}
