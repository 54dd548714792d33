package webfarm

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/vantage"
)

// seamGet builds a request from the Germany vantage point.
func seamGet(method, rawurl string) func() *http.Request {
	return func() *http.Request {
		req := httptest.NewRequest(method, rawurl, nil)
		req.Header.Set(vantage.GeoHeader, "Germany")
		return req
	}
}

// seamPost builds a form POST.
func seamPost(rawurl string, form url.Values) func() *http.Request {
	return func() *http.Request {
		req := httptest.NewRequest(http.MethodPost, rawurl, strings.NewReader(form.Encode()))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		return req
	}
}

// seamPostBody builds a POST with a raw body and Content-Type.
func seamPostBody(rawurl, ctype, body string) func() *http.Request {
	return func() *http.Request {
		req := httptest.NewRequest(http.MethodPost, rawurl, strings.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		return req
	}
}

// TestSeamsAgree drives one request per reply kind through both
// transport seams: RoundTripBody's reply fields and RoundTrip's
// ServeHTTP-over-httptest response must carry the same status, body and
// header values. Each pass also overwrites every header value ServeHTTP
// wrote into a recorder, and the second pass requires RoundTripBody's
// replies unchanged: ServeHTTP must copy shared reply headers, never
// alias them.
func TestSeamsAgree(t *testing.T) {
	wall := pickCookiewall(t, func(s *synthweb.Site) bool { return s.Provider.Name == "contentpass" })
	local := pickCookiewall(t, func(s *synthweb.Site) bool { return s.Provider.Name == "local" })
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
	acct, err := testReg.SMP.Subscribe("contentpass", "seams@measurement.example")
	if err != nil {
		t.Fatal(err)
	}
	site, cdn := "https://"+wall.Domain, "https://"+wall.Provider.Host
	routes := []struct {
		name   string
		status int // 0: a transport error
		req    func() *http.Request
	}{
		{"page", 200, seamGet(http.MethodGet, site+"/")},
		{"consent accept", 303, seamPost(site+"/consent", url.Values{"choice": {"accept"}})},
		{"consent reject", 303, seamPost(site+"/consent", url.Values{"choice": {"reject"}})},
		// The form reads that formValue hands to ParseForm, and a form
		// ParseForm rejects.
		{"consent reject, charset", 303, seamPostBody(site+"/consent", "application/x-www-form-urlencoded; charset=utf-8", "choice=reject")},
		{"consent reject, long body", 303, seamPostBody(site+"/consent", "application/x-www-form-urlencoded", strings.Repeat("x", formPeek)+"&choice=reject")},
		{"consent bad escape", 303, seamPostBody(site+"/consent", "application/x-www-form-urlencoded", "choice=re%jject")},
		{"smp-login valid", 303, seamPost(site+"/smp-login", url.Values{"token": {acct.Token}})},
		{"smp-login invalid token", 403, seamPost(site+"/smp-login", url.Values{"token": {"forged"}})},
		{"smp-login bad form", 400, seamPostBody(site+"/smp-login", "application/x-www-form-urlencoded", "token="+acct.Token+";")},
		{"smp-login no platform", 404, seamPost("https://"+local.Domain+"/smp-login", url.Values{"token": {acct.Token}})},
		{"cw-frame.html", 200, seamGet(http.MethodGet, site+"/cw-frame.html")},
		{"provider cw.js", 200, seamGet(http.MethodGet, cdn+"/cw.js?site="+wall.Domain)},
		{"provider frame", 200, seamGet(http.MethodGet, cdn+"/frame?site="+wall.Domain)},
		{"provider unknown path", 404, seamGet(http.MethodGet, cdn+"/other?site="+wall.Domain)},
		{"portal page", 200, seamGet(http.MethodGet, "https://contentpass.example/")},
		{"portal subscribe", 200, seamPost("https://contentpass.example/subscribe", url.Values{"email": {"seams@measurement.example"}})},
		{"tracker pixel", 200, seamGet(http.MethodGet, "https://"+testFarm.trackerPool[0]+"/p.gif?site=a.de&n=3&o=6")},
		{"benign pixel", 200, seamGet(http.MethodGet, "https://"+testFarm.benignPool[0]+"/tag.js?site=a.de&n=2&o=0")},
		{"wrong method", 405, seamGet(http.MethodDelete, site+"/")},
		{"unreachable site", 0, seamGet(http.MethodGet, "https://"+unreachable.Domain+"/")},
	}
	tr := testFarm.Transport().(*inProcessTransport)
	first := map[string]http.Header{}
	for pass := 0; pass < 2; pass++ {
		for _, rt := range routes {
			status, header, body, fp, err := tr.RoundTripBody(rt.req())
			resp, rerr := tr.RoundTrip(rt.req())
			if pass == 0 {
				first[rt.name] = header.Clone()
			} else if !reflect.DeepEqual(header, first[rt.name]) {
				t.Errorf("%s: reply header %q changed to %q after a ServeHTTP caller wrote to its copy", rt.name, first[rt.name], header)
			}
			rec := httptest.NewRecorder()
			testFarm.ServeHTTP(rec, rt.req())
			for _, vs := range rec.Header() {
				for i := range vs {
					vs[i] = "overwritten"
				}
			}
			if rt.status == 0 {
				if err == nil || rerr == nil || err.Error() != rerr.Error() {
					t.Errorf("%s: RoundTripBody error %v, RoundTrip error %v", rt.name, err, rerr)
				}
				continue
			}
			if err != nil || rerr != nil {
				t.Fatalf("%s: RoundTripBody error %v, RoundTrip error %v", rt.name, err, rerr)
			}
			rbody, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if status != rt.status || resp.StatusCode != rt.status {
				t.Errorf("%s: status %d (RoundTripBody) / %d (RoundTrip), want %d", rt.name, status, resp.StatusCode, rt.status)
			}
			if body != string(rbody) {
				t.Errorf("%s: body %q (RoundTripBody) / %q (RoundTrip)", rt.name, body, rbody)
			}
			if fp != 0 && fp != bodyHash(body) {
				t.Errorf("%s: fingerprint %x is not bodyHash(body)", rt.name, fp)
			}
			for k, vs := range header {
				if !slices.Equal(vs, resp.Header[k]) {
					t.Errorf("%s: %s = %q (RoundTripBody) / %q (RoundTrip)", rt.name, k, vs, resp.Header[k])
				}
			}
			for k, vs := range resp.Header {
				if _, ok := header[k]; !ok {
					t.Errorf("%s: RoundTrip adds %s = %q", rt.name, k, vs)
				}
			}
		}
	}
}

// missAllocs returns the mean allocations of f(0) ... f(n-1), with
// the fraction AllocsPerRun rounds away.
func missAllocs(n int, f func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestReplyAllocations pins the allocation cost of the reply path: a
// cached page, a repeated cookie-setting tracker pixel and a consent
// POST served through RoundTripBody allocate nothing, the header of a
// render miss whose cookie shape the farm has seen costs nothing, and,
// amortized over thousands of distinct keys on a fresh farm, a page
// render miss costs at most a tenth of an allocation and a tracker
// miss at most its header map's 2.
func TestReplyAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is exact; skip in -short/-race runs")
	}
	s := pickCookiewall(t, func(s *synthweb.Site) bool { return s.Provider.Name == "local" })
	tr := testFarm.Transport().(*inProcessTransport)
	req := seamGet(http.MethodGet, "https://"+s.Domain+"/")()
	req.Header.Set("User-Agent", "Mozilla/5.0 (X11; Linux x86_64; rv:102.0) Gecko/20100101 Firefox/102.0")
	if status, _, body, _, err := tr.RoundTripBody(req); err != nil || status != 200 || body == "" {
		t.Fatalf("RoundTripBody: %d %q, %v", status, body, err)
	}
	if got := testing.AllocsPerRun(100, func() { tr.RoundTripBody(req) }); got != 0 {
		t.Errorf("cached page round trip allocates %.1f, want 0", got)
	}
	for _, host := range []string{testFarm.trackerPool[0], testFarm.benignPool[0]} {
		px := seamGet(http.MethodGet, "https://"+host+"/p.gif?site="+s.Domain+"&n=3&o=6")()
		status, header, _, _, err := tr.RoundTripBody(px)
		if err != nil || status != 200 || len(header["Set-Cookie"]) != 3 {
			t.Fatalf("RoundTripBody(%s): %d %q, %v", px.URL, status, header, err)
		}
		if got := testing.AllocsPerRun(100, func() { tr.RoundTripBody(px) }); got != 0 {
			t.Errorf("repeated pixel round trip to %s allocates %.1f, want 0", host, got)
		}
	}

	// A consent click: the form read into the handler's stack buffer
	// from a body that is an io.ByteReader, as the emulated browser's
	// is, and the prebuilt redirect reply.
	body := strings.NewReader("")
	click := seamPost("https://"+s.Domain+"/consent", url.Values{"choice": {"reject"}})()
	click.Body = byteBody{body}
	for _, form := range []string{"choice=accept", "choice=reject"} {
		const consentPostBudget = 0
		got := testing.AllocsPerRun(100, func() {
			body.Reset(form)
			if status, _, _, _, err := tr.RoundTripBody(click); err != nil || status != http.StatusSeeOther {
				t.Fatalf("consent POST %s: %d, %v", form, status, err)
			}
		})
		t.Logf("consent POST %s: %.1f allocs", form, got)
		if got > consentPostBudget {
			t.Errorf("consent POST %s allocates %.1f, budget %d", form, got, consentPostBudget)
		}
	}

	for _, st := range []pageState{
		{site: s, vpName: "Germany"},
		{site: s, vpName: "Germany", consented: true, visit: "Germany|0|accept"},
		{site: s, vpName: "Germany", subscribed: true, visit: "Germany|0|sub"},
	} {
		testFarm.pageHeader(st) // interns the state's header
		if got := testing.AllocsPerRun(100, func() { testFarm.pageHeader(st) }); got != 0 {
			t.Errorf("header of a render miss (consented %v, subscribed %v) with a seen cookie shape allocates %.1f, want 0",
				st.consented, st.subscribed, got)
		}
	}

	// Misses on a fresh farm, amortized over distinct keys: a page's
	// document, a tracker reply's Set-Cookie values and its key's site
	// are carved from the shard's arena, and the values slice from its
	// slab, so a page miss pays only shares of chunks, slabs and shard
	// maps (each shard's map costs 4 allocations when it is made), and
	// a tracker miss its header map's 2 besides. The pages are every
	// site of a universe large enough to amortize the shard maps, in
	// each state a visit renders: before consent, after a rejection,
	// after an acceptance and after a subscription (the last two with
	// their tracker embeds), 879 B on average (a study's render misses
	// average about 890 B).
	const (
		renderMissBudget  = 0.1
		trackerMissBudget = 2 + 0.05
	)
	reg := synthweb.Generate(synthweb.Config{Seed: 11, FillerScale: 0.25})
	fresh := New(reg)
	var pages []pageState
	seen := map[renderKey]bool{}
	for _, site := range reg.Sites() {
		for _, st := range []pageState{
			{site: site, vpName: "Germany"},
			{site: site, vpName: "Germany", rejected: true},
			{site: site, vpName: "Germany", consented: true, visit: "Germany|0|accept"},
			{site: site, vpName: "Germany", subscribed: true, visit: "Germany|0|sub"},
		} {
			if k := pageKey(st); !seen[k] {
				seen[k] = true
				pages = append(pages, st)
			}
		}
	}
	got := missAllocs(len(pages), func(i int) { fresh.renderSitePage(pages[i]) })
	size := 0
	for _, st := range pages {
		size += len(fresh.renderSitePage(st).body)
	}
	t.Logf("page render miss: %.3f allocs amortized over %d keys of %d B on average", got, len(pages), size/len(pages))
	if got > renderMissBudget {
		t.Errorf("page render miss allocates %.3f amortized, budget %.1f", got, renderMissBudget)
	}
	tr = fresh.Transport().(*inProcessTransport)
	var pixels []*http.Request
	for i, site := range reg.Sites() {
		pixels = append(pixels, seamGet(http.MethodGet, "https://"+fresh.trackerPool[i%len(fresh.trackerPool)]+
			"/p.gif?site="+site.Domain+"&n=3&o=0")())
	}
	got = missAllocs(len(pixels), func(i int) { tr.RoundTripBody(pixels[i]) })
	t.Logf("tracker miss: %.3f allocs amortized over %d keys", got, len(pixels))
	if got > trackerMissBudget {
		t.Errorf("tracker miss allocates %.3f amortized, budget %.2f", got, trackerMissBudget)
	}

	// Two sites that set the same first-party cookies before consent
	// share one header map.
	bySessionCookies := map[int]*synthweb.Site{}
	for _, other := range testReg.Sites() {
		pre := other.Cookies.PreConsentFP
		first, ok := bySessionCookies[pre]
		if !ok {
			bySessionCookies[pre] = other
			continue
		}
		if pre <= 0 {
			continue
		}
		a := testFarm.pageHeader(pageState{site: first, vpName: "Germany"})
		b := testFarm.pageHeader(pageState{site: other, vpName: "Germany"})
		if len(a["Set-Cookie"]) != pre || reflect.ValueOf(a).UnsafePointer() != reflect.ValueOf(b).UnsafePointer() {
			t.Errorf("%s and %s set %d session cookies each, but their headers are distinct maps %q and %q",
				first.Domain, other.Domain, pre, a, b)
		}
		return
	}
	t.Fatal("no two sites set the same number of session cookies")
}
