package webfarm

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"cookiewalk/internal/smp"
	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/vantage"
)

var (
	testReg  = synthweb.Generate(synthweb.Config{Seed: 11, FillerScale: 0.01})
	testFarm = New(testReg)
)

// pickCookiewall returns a deterministic cookiewall site matching pred.
func pickCookiewall(t *testing.T, pred func(*synthweb.Site) bool) *synthweb.Site {
	t.Helper()
	for _, s := range testReg.CookiewallSites() {
		if pred(s) {
			return s
		}
	}
	t.Fatal("no cookiewall site matches predicate")
	return nil
}

// get performs a GET through the farm handler with VP and cookies.
func get(t *testing.T, rawurl, vp string, cookies []*http.Cookie) *http.Response {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, rawurl, nil)
	if vp != "" {
		req.Header.Set(vantage.GeoHeader, vp)
	}
	for _, c := range cookies {
		req.AddCookie(c)
	}
	rec := httptest.NewRecorder()
	testFarm.ServeHTTP(rec, req)
	return rec.Result()
}

func body(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSitePagePreConsent(t *testing.T) {
	s := pickCookiewall(t, func(s *synthweb.Site) bool {
		return s.Provider.Name == "local" && s.Embedding == synthweb.EmbedMainDOM && s.Language == "de"
	})
	resp := get(t, "https://"+s.Domain+"/", "Germany", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	html := body(t, resp)
	if !strings.Contains(html, "cw-banner") {
		t.Fatal("local cookiewall banner missing")
	}
	if !strings.Contains(html, "data-action=\"smp-subscribe\"") {
		t.Fatal("subscribe button missing")
	}
	if strings.Contains(html, "cmp-reject") {
		t.Fatal("cookiewall must not have a reject button")
	}
	// Pre-consent pages carry no tracker pixels.
	if strings.Contains(html, "trackpix") || strings.Contains(html, "p.gif") {
		t.Fatal("trackers on pre-consent page")
	}
	// Session cookies set.
	if len(resp.Header.Values("Set-Cookie")) != s.Cookies.PreConsentFP {
		t.Fatalf("pre-consent cookies = %d, want %d",
			len(resp.Header.Values("Set-Cookie")), s.Cookies.PreConsentFP)
	}
}

func TestGeoPolicyHidesBanner(t *testing.T) {
	// A Germany-only cookiewall must not show its banner to US East.
	s := pickCookiewall(t, func(s *synthweb.Site) bool {
		return len(s.ShowToVPs) == 1 && s.ShowToVPs[0] == "Germany"
	})
	de := body(t, get(t, "https://"+s.Domain+"/", "Germany", nil))
	us := body(t, get(t, "https://"+s.Domain+"/", "US East", nil))
	deHas := strings.Contains(de, "cw-banner") || strings.Contains(de, "cw-slot") || strings.Contains(de, "cw-frame") || strings.Contains(de, "cw-host")
	usHas := strings.Contains(us, "cw-banner") || strings.Contains(us, "cw-slot") || strings.Contains(us, "cw-frame") || strings.Contains(us, "cw-host")
	if !deHas {
		t.Fatal("banner missing from Germany")
	}
	if usHas {
		t.Fatal("geo-restricted banner shown to US East")
	}
}

func TestThirdPartyDelivery(t *testing.T) {
	s := pickCookiewall(t, func(s *synthweb.Site) bool {
		return s.Provider.Name == "contentpass" && s.Embedding == synthweb.EmbedIFrame
	})
	html := body(t, get(t, "https://"+s.Domain+"/", "Germany", nil))
	if !strings.Contains(html, "cw-slot") || !strings.Contains(html, "cdn.contentpass.example/cw.js") {
		t.Fatal("third-party loader missing")
	}
	// The provider endpoint returns the iframe fragment.
	resp := get(t, "https://cdn.contentpass.example/cw.js?site="+s.Domain, "", nil)
	frag := body(t, resp)
	if !strings.Contains(frag, "cw-frame") || !strings.Contains(frag, "/frame?site="+s.Domain) {
		t.Fatalf("fragment = %q", frag)
	}
	// And the frame document contains the banner with both buttons.
	frame := body(t, get(t, "https://cdn.contentpass.example/frame?site="+s.Domain, "", nil))
	if !strings.Contains(frame, "cw-accept") || !strings.Contains(frame, "cw-subscribe") {
		t.Fatal("frame document incomplete")
	}
	if !strings.Contains(frame, "2,99") {
		t.Fatalf("SMP price missing from banner: %q", frame)
	}
}

func TestShadowDelivery(t *testing.T) {
	s := pickCookiewall(t, func(s *synthweb.Site) bool {
		return s.Provider.Name == "local" && s.Embedding.InShadow()
	})
	html := body(t, get(t, "https://"+s.Domain+"/", "Germany", nil))
	if !strings.Contains(html, "template shadowrootmode=") {
		t.Fatal("declarative shadow template missing")
	}
}

func TestProviderRejectsMismatchedSite(t *testing.T) {
	cp := pickCookiewall(t, func(s *synthweb.Site) bool {
		return s.Provider.Name == "contentpass"
	})
	// Asking freechoice's CDN for a contentpass site must 404.
	resp := get(t, "https://cdn.freechoice.example/cw.js?site="+cp.Domain, "", nil)
	if resp.StatusCode != 404 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestConsentFlow(t *testing.T) {
	s := pickCookiewall(t, func(s *synthweb.Site) bool {
		return s.Provider.Name == "local" && s.Embedding == synthweb.EmbedMainDOM
	})
	req := httptest.NewRequest(http.MethodPost, "https://"+s.Domain+"/consent",
		strings.NewReader("choice=accept"))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	testFarm.ServeHTTP(rec, req)
	resp := rec.Result()
	if resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var consent *http.Cookie
	for _, c := range resp.Cookies() {
		if c.Name == "consent" {
			consent = c
		}
	}
	if consent == nil || consent.Value != "accepted" {
		t.Fatalf("consent cookie = %+v", consent)
	}

	// Post-consent page: banner gone, trackers present.
	html := body(t, get(t, "https://"+s.Domain+"/", "Germany", []*http.Cookie{consent}))
	if strings.Contains(html, "cw-banner") {
		t.Fatal("banner still shown after consent")
	}
	if !strings.Contains(html, "p.gif") {
		t.Fatal("no tracker pixels after consent")
	}
}

func TestRejectFlow(t *testing.T) {
	// Find a regular-banner filler site.
	var s *synthweb.Site
	for _, site := range testReg.Sites() {
		if site.Banner == synthweb.BannerRegular && !site.Decoy && site.Reachable {
			s = site
			break
		}
	}
	if s == nil {
		t.Fatal("no regular site")
	}
	req := httptest.NewRequest(http.MethodPost, "https://"+s.Domain+"/consent",
		strings.NewReader("choice=reject"))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	testFarm.ServeHTTP(rec, req)
	cookies := rec.Result().Cookies()
	if len(cookies) == 0 || cookies[0].Value != "rejected" {
		t.Fatalf("cookies = %+v", cookies)
	}
	html := body(t, get(t, "https://"+s.Domain+"/", "Germany", cookies))
	if strings.Contains(html, "cmp-banner") {
		t.Fatal("banner shown after reject")
	}
	if strings.Contains(html, "p.gif") {
		t.Fatal("trackers loaded after reject")
	}
}

func TestSMPSubscriptionFlow(t *testing.T) {
	s := pickCookiewall(t, func(s *synthweb.Site) bool {
		return s.Provider.Name == "contentpass"
	})
	// Buy a subscription at the portal.
	req := httptest.NewRequest(http.MethodPost, "https://contentpass.example/subscribe",
		strings.NewReader(url.Values{"email": {"crawler@measurement.example"}}.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	testFarm.ServeHTTP(rec, req)
	token := body(t, rec.Result())
	if token == "" || rec.Result().StatusCode != 200 {
		t.Fatalf("subscribe failed: %d %q", rec.Result().StatusCode, token)
	}

	// Log in on the partner site.
	req = httptest.NewRequest(http.MethodPost, "https://"+s.Domain+"/smp-login",
		strings.NewReader(url.Values{"token": {token}}.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec = httptest.NewRecorder()
	testFarm.ServeHTTP(rec, req)
	resp := rec.Result()
	if resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("login status %d", resp.StatusCode)
	}
	var sub *http.Cookie
	for _, c := range resp.Cookies() {
		if c.Name == smp.SubscriptionCookieName {
			sub = c
		}
	}
	if sub == nil {
		t.Fatal("no subscription cookie")
	}

	// Subscriber page: no banner, no trackers, subscription badge.
	html := body(t, get(t, "https://"+s.Domain+"/", "Germany", []*http.Cookie{sub}))
	if strings.Contains(html, "cw-slot") || strings.Contains(html, "cw-banner") {
		t.Fatal("banner shown to subscriber")
	}
	if strings.Contains(html, "p.gif") {
		t.Fatal("trackers served to subscriber")
	}
	if !strings.Contains(html, "sub-badge") {
		t.Fatal("subscription badge missing")
	}
}

func TestSMPLoginRejectsBadToken(t *testing.T) {
	s := pickCookiewall(t, func(s *synthweb.Site) bool {
		return s.Provider.Name == "freechoice"
	})
	req := httptest.NewRequest(http.MethodPost, "https://"+s.Domain+"/smp-login",
		strings.NewReader(url.Values{"token": {"forged-token"}}.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	testFarm.ServeHTTP(rec, req)
	if rec.Result().StatusCode != http.StatusForbidden {
		t.Fatalf("status %d", rec.Result().StatusCode)
	}
}

func TestTrackerEndpoint(t *testing.T) {
	resp := get(t, "https://trackpix1.example/p.gif?site=a.de&n=3&o=6", "", nil)
	sc := resp.Header.Values("Set-Cookie")
	if len(sc) != 3 {
		t.Fatalf("set-cookie count = %d", len(sc))
	}
	if !strings.HasPrefix(sc[0], "tr06=") {
		t.Fatalf("cookie name = %q", sc[0])
	}
	if resp.Header.Get("Content-Type") != "image/gif" {
		t.Fatal("wrong content type")
	}
}

// The tracker header is built by hand; it must equal the fmt-formatted
// values, on the plain-writer path and on the in-process one that
// adopts the header whole.
func TestTrackerCookiesMatchSprintf(t *testing.T) {
	for _, c := range []struct {
		prefix, site string
		o, n         int
	}{
		{"tr", "a.de", 0, 3}, {"bc", "www.x.co.uk", 6, 8}, {"tr", "", 95, 10},
		{"tr", "s", -12, 15}, {"bc", "ü.de", 0, 64},
	} {
		got := trackerCookies(c.prefix, c.o, c.n, c.site)
		if len(got) != c.n {
			t.Fatalf("%+v: %d values", c, len(got))
		}
		for j, v := range got {
			if want := fmt.Sprintf("%s%02d=%s; Path=/; Max-Age=31536000", c.prefix, c.o+j, c.site); v != want {
				t.Errorf("%+v: value %d = %q, want %q", c, j, v, want)
			}
		}
	}

	const rawurl = "https://adsync2.example/p.gif?site=b.de&n=4&o=8"
	plain := get(t, rawurl, "", nil).Header
	req := httptest.NewRequest(http.MethodGet, rawurl, nil)
	_, inProc, body, _, err := testFarm.Transport().(*inProcessTransport).RoundTripBody(req)
	if err != nil || body != "GIF89a" {
		t.Fatalf("RoundTripBody: %q, %v", body, err)
	}
	for _, k := range []string{"Set-Cookie", "Content-Type", "Cache-Control"} {
		if !slices.Equal(plain.Values(k), inProc.Values(k)) {
			t.Errorf("%s: plain %q, in-process %q", k, plain.Values(k), inProc.Values(k))
		}
	}
}

// TestTrackerReplyMemo: a pixel reply served from the render cache
// carries exactly the Set-Cookie values a fresh build formats, per host
// kind, site, n and o — including o past the int32 range the key holds
// (never cached) and sites that only differ in a suffix or an escape.
func TestTrackerReplyMemo(t *testing.T) {
	f := New(testReg)
	tr := f.Transport().(*inProcessTransport)
	for _, c := range []struct {
		host, prefix, query string
		site                string
		n, o                int
	}{
		{f.trackerPool[0], "tr", "site=a.de&n=3&o=6", "a.de", 3, 6},
		{f.benignPool[0], "bc", "site=a.de&n=3&o=6", "a.de", 3, 6},
		{f.trackerPool[1], "tr", "site=a.de&n=2&o=6", "a.de", 2, 6},
		{f.trackerPool[1], "tr", "site=a.de&n=3&o=9", "a.de", 3, 9},
		{f.trackerPool[0], "tr", "site=a.de.x&n=3&o=6", "a.de.x", 3, 6},
		{f.trackerPool[0], "tr", "site=%C3%BC.de&n=1&o=0", "ü.de", 1, 0},
		{f.trackerPool[0], "tr", "site=b.de&n=2&o=-4", "b.de", 2, -4},
		{f.trackerPool[0], "tr", "site=b.de&n=2&o=4294967300", "b.de", 2, 4294967300},
		{f.trackerPool[0], "tr", "site=b.de&n=2&o=4", "b.de", 2, 4},
	} {
		for pass := 0; pass < 2; pass++ {
			req := httptest.NewRequest(http.MethodGet, "https://"+c.host+"/p.gif?"+c.query, nil)
			status, header, body, _, err := tr.RoundTripBody(req)
			if err != nil || status != 200 || body != "GIF89a" {
				t.Fatalf("%s?%s: %d %q, %v", c.host, c.query, status, body, err)
			}
			want := make([]string, c.n)
			for j := range want {
				want[j] = fmt.Sprintf("%s%02d=%s; Path=/; Max-Age=31536000", c.prefix, c.o+j, c.site)
			}
			if got := header["Set-Cookie"]; !slices.Equal(got, want) {
				t.Errorf("%s?%s pass %d: Set-Cookie %q, want %q", c.host, c.query, pass, got, want)
			}
		}
	}
}

func TestQueryGetMatchesValuesGet(t *testing.T) {
	for _, q := range []string{
		"", "n=3", "site=a.de&n=3&o=6", "n=1&n=2", "n&n=2", "=1&n=2", "&&n=4&",
		"n=%zz&n=5", "n%3D=1&n=6", "%6E=7", "n=a+b%20c", "a;n=1&n=8", "n=1;x&n=9",
		"site=%E2%9C%93.de&o=-3", "o=%", "%=1&o=2",
	} {
		vals, _ := url.ParseQuery(q)
		for _, k := range []string{"n", "o", "site", "", "x"} {
			if got, want := queryGet(q, k), vals.Get(k); got != want {
				t.Errorf("queryGet(%q, %q) = %q, url.Values.Get = %q", q, k, got, want)
			}
		}
	}
}

func TestCookieValueMatchesRequestCookie(t *testing.T) {
	for _, lines := range [][]string{
		nil,
		{},
		{""},
		{"consent=accepted"},
		{`consent="accepted"`},
		{`consent="rejected`},
		{`consent=""`},
		{`consent="`},
		{"consent="},
		{"consent"},
		{"a=1; consent=rejected; b=2"},
		{"consent=accepted; consent=rejected"},
		{"consent=bad\\value; consent=accepted"},
		{"consent=bad\"value; consent=rejected"},
		{"consent=caf\xc3\xa9; consent=accepted"},
		{"consent=tab\tin; consent=accepted"},
		{"  consent = accepted  "},
		{"\tconsent=accepted\r\n"},
		{"consent= accepted"},
		{"consent =accepted;consent=rejected"},
		{";;consent=accepted;;"},
		{"Consent=accepted"},
		{"xconsent=accepted; consentx=rejected"},
		{"smp_subscription=tok1", "consent=accepted"},
		{"consent=rejected", "consent=accepted"},
		{"a=b=c; consent=x=y"},
		{"smp_subscription=\"tok 2\"; consent=accepted", "smp_subscription=tok3"},
	} {
		r := &http.Request{Header: http.Header{}}
		if lines != nil {
			r.Header["Cookie"] = lines
		}
		for _, name := range []string{"consent", smp.SubscriptionCookieName} {
			want, wantOK := "", false
			if c, err := r.Cookie(name); err == nil {
				want, wantOK = c.Value, true
			}
			if got, ok := cookieValue(r.Header, name); got != want || ok != wantOK {
				t.Errorf("cookieValue(%q, %q) = %q, %v; Request.Cookie gives %q, %v",
					lines, name, got, ok, want, wantOK)
			}
		}
	}
}

func TestCookieValueAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is exact; skip in -short/-race runs")
	}
	h := http.Header{"Cookie": {"a=1; consent=\"accepted\"; " + smp.SubscriptionCookieName + "=tok"}}
	if n := testing.AllocsPerRun(100, func() {
		cookieValue(h, "consent")
		cookieValue(h, smp.SubscriptionCookieName)
	}); n != 0 {
		t.Fatalf("cookieValue allocates %.0f times", n)
	}
}

func TestTrackerEndpointClampsN(t *testing.T) {
	resp := get(t, "https://trackpix1.example/p.gif?n=9999", "", nil)
	if len(resp.Header.Values("Set-Cookie")) != 0 {
		t.Fatal("absurd n must be clamped")
	}
}

func TestTransportErrors(t *testing.T) {
	rt := testFarm.Transport()
	// Unknown host.
	req := httptest.NewRequest(http.MethodGet, "https://no-such-host.invalid/", nil)
	if _, err := rt.RoundTrip(req); err == nil {
		t.Fatal("unknown host must error")
	}
	// Unreachable site.
	var unreachable *synthweb.Site
	for _, s := range testReg.Sites() {
		if !s.Reachable {
			unreachable = s
			break
		}
	}
	if unreachable == nil {
		t.Fatal("no unreachable site in registry")
	}
	req = httptest.NewRequest(http.MethodGet, "https://"+unreachable.Domain+"/", nil)
	_, err := rt.RoundTrip(req)
	he, ok := err.(*HostError)
	if !ok || he.Reason != "unreachable" {
		t.Fatalf("err = %v", err)
	}
	// Reachable site round-trips.
	req = httptest.NewRequest(http.MethodGet, "https://"+testReg.TargetList()[0]+"/", nil)
	req.Header.Set(vantage.GeoHeader, "Germany")
	resp, err := rt.RoundTrip(req)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("round trip: %v %v", err, resp)
	}
}

func TestVisitJitterIsDeterministic(t *testing.T) {
	s := pickCookiewall(t, func(s *synthweb.Site) bool { return s.Provider.Name == "local" })
	consent := &http.Cookie{Name: "consent", Value: "accepted"}
	load := func(visit string) string {
		req := httptest.NewRequest(http.MethodGet, "https://"+s.Domain+"/", nil)
		req.Header.Set(vantage.GeoHeader, "Germany")
		req.Header.Set(vantage.VisitHeader, visit)
		req.AddCookie(consent)
		rec := httptest.NewRecorder()
		testFarm.ServeHTTP(rec, req)
		return rec.Body.String()
	}
	if load("Germany|1") != load("Germany|1") {
		t.Fatal("same visit must render identically")
	}
	if load("Germany|1") == load("Germany|2") {
		t.Fatal("different repetitions should differ (jitter)")
	}
}

func TestDecoyBannerText(t *testing.T) {
	var decoy *synthweb.Site
	for _, s := range testReg.Sites() {
		if s.Decoy {
			decoy = s
			break
		}
	}
	html := body(t, get(t, "https://"+decoy.Domain+"/", "Germany", nil))
	if !strings.Contains(html, "cmp-reject") {
		t.Fatal("decoy must keep its reject button (it IS a regular banner)")
	}
	if !strings.Contains(html, "1,99 €") || !strings.Contains(html, "abonnieren") {
		t.Fatal("decoy promo text missing — no false positive possible")
	}
}

func TestQuirkMarkup(t *testing.T) {
	var anti, scroll *synthweb.Site
	for _, s := range testReg.CookiewallSites() {
		if s.AntiAdblock {
			anti = s
		}
		if s.ScrollLock {
			scroll = s
		}
	}
	if anti == nil || scroll == nil {
		t.Fatal("quirk sites missing")
	}
	h1 := body(t, get(t, "https://"+anti.Domain+"/", "Germany", nil))
	if !strings.Contains(h1, "data-cw-if-blocked") {
		t.Fatal("anti-adblock plea missing")
	}
	h2 := body(t, get(t, "https://"+scroll.Domain+"/", "Germany", nil))
	if !strings.Contains(h2, "data-scroll-lock-if-blocked") {
		t.Fatal("scroll-lock directive missing")
	}
}

func TestPortalPage(t *testing.T) {
	html := body(t, get(t, "https://contentpass.example/", "", nil))
	if !strings.Contains(html, "contentpass") || !strings.Contains(html, "2,99") {
		t.Fatal("portal page incomplete")
	}
}

func TestFormatAmount(t *testing.T) {
	cases := []struct {
		amount float64
		code   string
		lang   string
		want   string
	}{
		{2.99, "EUR", "de", "2,99 €"},
		{2.99, "EUR", "en", "2.99 €"},
		{4, "AUD", "en", "A$4"},
		{34, "SEK", "da", "34 kr"},
		{35.88, "EUR", "de", "35,88 €"},
		{2.5, "USD", "en", "$2.50"},
		{1.99, "GBP", "en", "£1.99"},
		{9.9, "BRL", "pt", "R$9,90"},
		{99, "INR", "en", "Rs. 99"},
		{4.9, "CHF", "de", "CHF 4,90"},
		{49, "ZAR", "af", "R49"},
		{25, "CNY", "en", "¥25"},
		{7, "XXX", "en", "7 XXX"},
	}
	for _, c := range cases {
		if got := string(appendAmount(nil, c.amount, c.code, c.lang)); got != c.want {
			t.Errorf("appendAmount(%g,%s,%s) = %q, want %q",
				c.amount, c.code, c.lang, got, c.want)
		}
	}
}

func TestPortalErrorPaths(t *testing.T) {
	// Missing email.
	req := httptest.NewRequest(http.MethodPost, "https://contentpass.example/subscribe",
		strings.NewReader(""))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	testFarm.ServeHTTP(rec, req)
	if rec.Result().StatusCode != http.StatusBadRequest {
		t.Fatalf("empty email: %d", rec.Result().StatusCode)
	}
	// Unknown portal path.
	resp := get(t, "https://contentpass.example/nothing", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: %d", resp.StatusCode)
	}
}

func TestProviderUnknownPath(t *testing.T) {
	cp := pickCookiewall(t, func(s *synthweb.Site) bool {
		return s.Provider.Name == "contentpass"
	})
	resp := get(t, "https://cdn.contentpass.example/other?site="+cp.Domain, "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestSMPLoginOnNonPartner(t *testing.T) {
	local := pickCookiewall(t, func(s *synthweb.Site) bool {
		return s.Provider.Name == "local"
	})
	req := httptest.NewRequest(http.MethodPost, "https://"+local.Domain+"/smp-login",
		strings.NewReader("token=whatever"))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	testFarm.ServeHTTP(rec, req)
	if rec.Result().StatusCode != http.StatusNotFound {
		t.Fatalf("non-partner login: %d", rec.Result().StatusCode)
	}
}

func TestUnknownHost404(t *testing.T) {
	resp := get(t, "https://unregistered.invalid/", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	site := testReg.TargetList()[0]
	req := httptest.NewRequest(http.MethodDelete, "https://"+site+"/", nil)
	rec := httptest.NewRecorder()
	testFarm.ServeHTTP(rec, req)
	if rec.Result().StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", rec.Result().StatusCode)
	}
}

func TestBotSensitiveSiteHidesBanner(t *testing.T) {
	var bot *synthweb.Site
	for _, s := range testReg.Sites() {
		if s.BotSensitive && s.Reachable && len(s.ShowToVPs) == 0 &&
			s.Embedding == synthweb.EmbedMainDOM {
			bot = s
			break
		}
	}
	if bot == nil {
		t.Skip("no bot-sensitive site at this scale/seed")
	}
	// Naive crawler UA: banner hidden.
	req := httptest.NewRequest(http.MethodGet, "https://"+bot.Domain+"/", nil)
	req.Header.Set(vantage.GeoHeader, "Germany")
	req.Header.Set("User-Agent", "cookiewalk-bot/1.0")
	rec := httptest.NewRecorder()
	testFarm.ServeHTTP(rec, req)
	if strings.Contains(rec.Body.String(), "cmp-banner") {
		t.Fatal("bot-sensitive site showed banner to crawler UA")
	}
	// Browser-like UA: banner shown.
	req = httptest.NewRequest(http.MethodGet, "https://"+bot.Domain+"/", nil)
	req.Header.Set(vantage.GeoHeader, "Germany")
	req.Header.Set("User-Agent", "Mozilla/5.0 (X11; Linux x86_64; rv:102.0) Gecko/20100101 Firefox/102.0")
	rec = httptest.NewRecorder()
	testFarm.ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "cmp-banner") {
		t.Fatal("bot-sensitive site hid banner from browser UA")
	}
}
