package webfarm

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
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
		{"smp-login valid", 303, seamPost(site+"/smp-login", url.Values{"token": {acct.Token}})},
		{"smp-login invalid token", 403, seamPost(site+"/smp-login", url.Values{"token": {"forged"}})},
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

// TestReplyAllocations pins the allocation cost of the reply path: a
// cached page served through RoundTripBody allocates nothing, and a
// page render miss costs its one exactly sized buffer plus at most a
// couple of small values.
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

	const renderMissBudget = 3
	for _, st := range []pageState{
		{site: s, vpName: "Germany"},
		{site: s, vpName: "Germany", consented: true, visit: "Germany|0|accept"},
		{site: s, vpName: "Germany", subscribed: true, visit: "Germany|0|sub"},
	} {
		testFarm.renderSitePage(st) // caches the banner fragment the page embeds
		got := testing.AllocsPerRun(20, func() { testFarm.renderSitePageUncached(st) })
		t.Logf("render miss (consented %v, subscribed %v): %.1f allocs", st.consented, st.subscribed, got)
		if got > renderMissBudget {
			t.Errorf("render miss (consented %v, subscribed %v) allocates %.1f, budget %d",
				st.consented, st.subscribed, got, renderMissBudget)
		}
	}
}
