package browser

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"cookiewalk/internal/vantage"
	"cookiewalk/internal/xrand"
)

// keepingTransport is a plain RoundTripper that keeps every request it
// receives, the way net/http may keep one after RoundTrip returns. Each
// response sets a cookie named after the path, so every later request
// carries a Cookie header of its own.
type keepingTransport struct {
	// page, when set, is the front page instead of the two images.
	page string
	kept []*http.Request
	// url and cookie snapshot each request as it arrived.
	url, cookie []string
}

func (k *keepingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	k.kept = append(k.kept, req)
	k.url = append(k.url, req.URL.String())
	k.cookie = append(k.cookie, req.Header.Get("Cookie"))
	body := ""
	if req.URL.Path == "/" {
		body = `<img src="/a.gif"><img src="/b.gif"><p>ok</p>`
		if k.page != "" {
			body = k.page
		}
	}
	h := http.Header{}
	h.Set("Set-Cookie", "seen"+strings.ReplaceAll(req.URL.Path, "/", "_")+"=1; Path=/")
	return &http.Response{StatusCode: 200, Header: h, Body: io.NopCloser(strings.NewReader(body)), Request: req}, nil
}

// TestPlainTransportKeepsItsOwnRequests: a transport without the
// RoundTripBody seam may keep a request after the call, so the session
// must hand it a copy. Were the reusable request leaked, every kept
// request would show the last URL and Cookie.
func TestPlainTransportKeepsItsOwnRequests(t *testing.T) {
	kt := &keepingTransport{}
	vp, _ := vantage.ByName("Germany")
	b := New(kt, vp)
	if _, err := b.Open("https://a.de/"); err != nil {
		t.Fatal(err)
	}
	if len(kt.kept) != 3 {
		t.Fatalf("%d requests, want 3 (page + 2 images): %v", len(kt.kept), kt.url)
	}
	if kt.cookie[0] != "" || kt.cookie[2] == kt.cookie[1] {
		t.Fatalf("cookies %q: want none on the first request and a new one per response", kt.cookie)
	}
	for i, req := range kt.kept {
		if got := req.URL.String(); got != kt.url[i] {
			t.Errorf("request %d: URL now %s, was %s when sent", i, got, kt.url[i])
		}
		if got := req.Header.Get("Cookie"); got != kt.cookie[i] {
			t.Errorf("request %d: Cookie now %q, was %q when sent", i, got, kt.cookie[i])
		}
	}
}

// TestPlainTransportKeepsItsOwnFormBodies: a plain transport may read
// a POST body after RoundTrip returns, so each form POST must carry a
// body of its own, which a later POST of the session cannot rewrite.
func TestPlainTransportKeepsItsOwnFormBodies(t *testing.T) {
	kt := &keepingTransport{page: `<button id="ok" data-action="consent-accept" data-target="/consent">OK</button>` +
		`<button id="no" data-action="consent-reject" data-target="/consent">No</button>`}
	vp, _ := vantage.ByName("Germany")
	b := New(kt, vp)
	page, err := b.Open("https://a.de/")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"ok", "no"} {
		if _, err := b.Click(page, page.Doc.ByID(id)); err != nil {
			t.Fatal(err)
		}
	}
	var forms []string
	for _, req := range kt.kept {
		if req.Method != http.MethodPost {
			continue
		}
		body, err := io.ReadAll(req.Body)
		if err != nil {
			t.Fatal(err)
		}
		forms = append(forms, string(body))
	}
	if len(forms) != 2 || forms[0] != "choice=accept" || forms[1] != "choice=reject" {
		t.Fatalf("kept POST bodies read %q after the flow, want the accept form, then the reject form", forms)
	}
}

// fastCall is what a fastTransport saw of one request, at call time.
type fastCall struct {
	method, url, ctype, body string
	// staleForm reports a request that arrived with a parsed form
	// already attached.
	staleForm bool
	ctx       context.Context
}

// fastTransport implements the RoundTripBody seam: it records each
// call, parses forms the way the farm does, fails the first fails
// calls transiently, and serves pages by path.
type fastTransport struct {
	pages map[string]string
	fails int
	calls []fastCall
}

func (f *fastTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("fastTransport: RoundTripBody only")
}

func (f *fastTransport) RoundTripBody(req *http.Request) (int, http.Header, string, uint64, error) {
	c := fastCall{method: req.Method, url: req.URL.String(), ctype: req.Header.Get("Content-Type"),
		staleForm: req.Form != nil || req.PostForm != nil, ctx: req.Context()}
	if err := req.ParseForm(); err != nil {
		return 0, nil, "", 0, err
	}
	c.body = req.PostForm.Encode()
	f.calls = append(f.calls, c)
	if f.fails > 0 {
		f.fails--
		return 0, nil, "", 0, &transientErr{msg: "injected reset: " + c.url}
	}
	return 200, http.Header{}, f.pages[req.URL.Path], 0, nil
}

// TestClickFormDoesNotLeakIntoNextRequest: on the fast seam the consent
// POST carries its form and Content-Type, and the reload that follows
// on the same reusable request carries neither, nor the parsed form.
func TestClickFormDoesNotLeakIntoNextRequest(t *testing.T) {
	ft := &fastTransport{pages: map[string]string{
		"/": `<button id="ok" data-action="consent-accept" data-target="/consent">OK</button>`,
	}}
	vp, _ := vantage.ByName("Germany")
	b := New(ft, vp)
	page, err := b.Open("https://a.de/")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Click(page, page.Doc.ByID("ok")); err != nil {
		t.Fatal(err)
	}
	if len(ft.calls) != 3 {
		t.Fatalf("%d calls, want load, POST, reload: %+v", len(ft.calls), ft.calls)
	}
	post, reload := ft.calls[1], ft.calls[2]
	if post.method != http.MethodPost || post.url != "https://a.de/consent" ||
		post.ctype != "application/x-www-form-urlencoded" || post.body != "choice=accept" {
		t.Fatalf("POST = %+v, want the accept form to /consent", post)
	}
	if reload.method != http.MethodGet || reload.ctype != "" || reload.body != "" || reload.staleForm {
		t.Fatalf("reload = %+v, want a bare GET", reload)
	}
}

type ctxKey struct{}

// TestResilienceCtxReachesFastTransport: the visit context and each
// retry's attempt ordinal reach the RoundTripBody seam.
func TestResilienceCtxReachesFastTransport(t *testing.T) {
	ft := &fastTransport{pages: map[string]string{"/": "<p>ok</p>"}, fails: 2}
	vp, _ := vantage.ByName("Germany")
	b := New(ft, vp)
	ctx := context.WithValue(context.Background(), ctxKey{}, "visit")
	b.Resilience = Resilience{Ctx: ctx, Retries: 2, Sleep: noSleep}
	if _, err := b.FetchTop("https://a.de/"); err != nil {
		t.Fatal(err)
	}
	if len(ft.calls) != 3 {
		t.Fatalf("%d attempts, want 3", len(ft.calls))
	}
	for i, c := range ft.calls {
		if c.ctx.Value(ctxKey{}) != "visit" {
			t.Errorf("attempt %d: visit context lost", i)
		}
		if got := AttemptFromContext(c.ctx); got != i {
			t.Errorf("attempt %d: ordinal %d", i, got)
		}
	}
}

// TestRetryDelaysFollowBackoff: the browser waits out exactly the
// schedule xrand.Backoff gives for its seed, call and base.
func TestRetryDelaysFollowBackoff(t *testing.T) {
	b, st := scriptedBrowser(map[string]scripted{
		"https://a.de/": {status: 200, body: "<p>ok</p>"},
	})
	b.Transport = &flakyTransport{rt: st, fails: map[string]int{"https://a.de/": 3}}
	var delays []time.Duration
	b.Resilience = Resilience{Retries: 3, Backoff: 80 * time.Millisecond, Seed: 9,
		Sleep: func(_ context.Context, d time.Duration) error {
			delays = append(delays, d)
			return nil
		}}
	if _, err := b.FetchTop("https://a.de/"); err != nil {
		t.Fatal(err)
	}
	if len(delays) != 3 {
		t.Fatalf("slept %d times, want 3: %v", len(delays), delays)
	}
	for i, d := range delays {
		// The first logical request of a fresh session is call 1.
		if want := xrand.Backoff(9, 1, i, 80*time.Millisecond); d != want {
			t.Errorf("delay %d = %v, want %v", i, d, want)
		}
	}
}
