package webfarm

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"cookiewalk/internal/smp"
	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/trackdb"
	"cookiewalk/internal/vantage"
)

// Farm is the http.Handler serving the entire synthetic web: every
// registered site, the SMP portals and CDNs, CMP hosts, tracker hosts
// and benign CDNs. It is stateless per request (all state lives in the
// visitor's cookies), so it is safe for arbitrary concurrency.
type Farm struct {
	reg  *synthweb.Registry
	seed uint64
	// renders memoizes deterministic page/banner renders; see
	// rendercache.go.
	renders renderCache

	trackerPool []string
	benignPool  []string
	trackers    map[string]bool
	benign      map[string]bool
	// providerHosts maps delivery host -> provider name.
	providerHosts map[string]string
	// portals maps SMP apex domain -> platform.
	portals map[string]smp.Platform
}

// New builds a Farm for a registry.
func New(reg *synthweb.Registry) *Farm {
	f := &Farm{
		reg:           reg,
		seed:          reg.Config().Seed,
		trackerPool:   trackdb.TrackerPool(),
		benignPool:    trackdb.BenignPool(),
		trackers:      map[string]bool{},
		benign:        map[string]bool{},
		providerHosts: map[string]string{},
		portals:       map[string]smp.Platform{},
	}
	for _, d := range f.trackerPool {
		f.trackers[d] = true
	}
	for _, d := range f.benignPool {
		f.benign[d] = true
	}
	for _, name := range []string{"contentpass", "freechoice", "opencmp",
		"consentmango", "usercentrade", "cwkit", "purabo", "adfreepass",
		"nichewall", "tinycmp"} {
		p, ok := synthweb.ProviderByName(name)
		if !ok || p.Host == "" {
			continue
		}
		f.providerHosts[p.Host] = p.Name
	}
	for _, p := range smp.Platforms() {
		f.portals[p.Domain] = p
	}
	return f
}

// Registry returns the farm's backing registry.
func (f *Farm) Registry() *synthweb.Registry { return f.reg }

// bodyTagger is implemented by the in-process transport's recorder:
// handlers that serve a memoized render attach its content fingerprint
// so RoundTripBody can return it without rehashing the body. Writers
// that do not implement it (httptest recorders, the real listener's
// http.ResponseWriter) silently skip the tag — those clients derive
// the identical fingerprint by hashing the bytes they read.
type bodyTagger interface {
	TagBody(fp uint64)
}

// writeRender writes a cached render and tags the writer with the
// render's memoized content fingerprint when supported.
func writeRender(w http.ResponseWriter, r render) {
	io.WriteString(w, r.body)
	if t, ok := w.(bodyTagger); ok {
		t.TagBody(r.fp)
	}
}

// KnownHost reports whether the farm serves the host at all, and
// whether it is currently reachable. Unknown hosts and unreachable
// sites produce transport-level errors, like DNS failures and timeouts
// do for a real crawler.
func (f *Farm) KnownHost(host string) (known, reachable bool) {
	h := canonHost(host)
	if f.trackers[h] || f.benign[h] || f.providerHosts[h] != "" {
		return true, true
	}
	if _, ok := f.portals[h]; ok {
		return true, true
	}
	if s, ok := f.reg.Site(h); ok {
		return true, s.Reachable
	}
	return false, false
}

func canonHost(h string) string {
	h = strings.ToLower(h)
	if i := strings.IndexByte(h, ':'); i >= 0 {
		h = h[:i]
	}
	return strings.TrimSuffix(h, ".")
}

// ServeHTTP routes by Host header.
func (f *Farm) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	host := canonHost(r.Host)
	switch {
	case f.trackers[host]:
		f.serveTracker(w, r, "tr")
	case f.benign[host]:
		f.serveTracker(w, r, "bc")
	case f.providerHosts[host] != "":
		f.serveProvider(w, r, f.providerHosts[host])
	default:
		if p, ok := f.portals[host]; ok {
			f.servePortal(w, r, p)
			return
		}
		if s, ok := f.reg.Site(host); ok {
			f.serveSite(w, r, s)
			return
		}
		http.NotFound(w, r)
	}
}

// --- tracker & benign hosts ------------------------------------------------

// serveTracker sets n cookies (names prefixed tr/bc, indexed from o)
// and returns a pixel. The cookie count is how Figures 4 and 5 are
// physically realized.
//
// Every cookie-measurement page load hits a handful of these, so the
// response is built lean: the parameters are read straight from the raw
// query, all n Set-Cookie values are formatted into one buffer and
// sliced out of a single string, and the finished header is handed over
// whole, like a memoized page header.
func (f *Farm) serveTracker(w http.ResponseWriter, r *http.Request, prefix string) {
	n, _ := strconv.Atoi(queryGet(r.URL.RawQuery, "n"))
	o, _ := strconv.Atoi(queryGet(r.URL.RawQuery, "o"))
	if n < 0 || n > 64 {
		n = 0
	}
	h := http.Header{
		"Content-Type":  gifContentType,
		"Cache-Control": noStore,
	}
	if n > 0 {
		h["Set-Cookie"] = trackerCookies(prefix, o, n, queryGet(r.URL.RawQuery, "site"))
	}
	writeHeader(w, h)
	writeRender(w, gifPixel)
}

// trackerCookies returns the n Set-Cookie values
// "<prefix><o+j as %02d>=<site>; Path=/; Max-Age=31536000", j = 0..n-1,
// as slices of one string.
func trackerCookies(prefix string, o, n int, site string) []string {
	const attrs = "; Path=/; Max-Age=31536000"
	var b strings.Builder
	b.Grow(n * (len(prefix) + len("00=") + len(site) + len(attrs)))
	var num [20]byte
	var ends [64]int // n <= 64, checked by serveTracker
	for j := 0; j < n; j++ {
		b.WriteString(prefix)
		if i := o + j; i >= 0 && i < 10 {
			b.WriteByte('0') // %02d pads only one-digit non-negatives
		}
		b.Write(strconv.AppendInt(num[:0], int64(o+j), 10))
		b.WriteByte('=')
		b.WriteString(site)
		b.WriteString(attrs)
		ends[j] = b.Len()
	}
	all := b.String()
	vals := make([]string, n)
	start := 0
	for j, end := range ends[:n] {
		vals[j] = all[start:end]
		start = end
	}
	return vals
}

// queryGet is url.Values.Get on a raw query without building the map:
// the first value of key, unescaped, skipping the pairs url.ParseQuery
// rejects (semicolons, bad escapes).
func queryGet(rawQuery, key string) string {
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// gifPixel is the constant tracker response with its fingerprint
// computed once — trackers answer thousands of requests per campaign.
// Its constant header values are shared read-only across responses.
var (
	gifPixel       = render{body: "GIF89a", fp: bodyHash("GIF89a")}
	gifContentType = []string{"image/gif"}
	noStore        = []string{"no-store"}
)

// --- provider hosts ---------------------------------------------------------

// serveProvider handles the CMP/SMP delivery endpoints: /cw.js returns
// the injectable banner fragment, /frame the iframe banner document.
func (f *Farm) serveProvider(w http.ResponseWriter, r *http.Request, providerName string) {
	site, ok := f.reg.Site(canonHost(queryGet(r.URL.RawQuery, "site")))
	if !ok || site.Provider.Name != providerName || site.Banner != synthweb.BannerCookiewall {
		http.NotFound(w, r)
		return
	}
	switch r.URL.Path {
	case "/cw.js":
		// The "script" response is the declarative banner fragment the
		// emulated browser injects (substitution for JS execution).
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		writeRender(w, f.bannerFragment(site, site.Provider.Host))
	case "/frame":
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		writeRender(w, f.bannerDocument(site))
	default:
		http.NotFound(w, r)
	}
}

// --- SMP portals -------------------------------------------------------------

// servePortal handles the subscription platform's own website:
// GET / is the marketing page, POST /subscribe creates an account and
// returns its token (the §4.4 "buy a one-month subscription" step).
func (f *Farm) servePortal(w http.ResponseWriter, r *http.Request, p smp.Platform) {
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/":
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, `<!DOCTYPE html><html lang="de"><head><title>%s</title></head><body>
<h1>%s</h1><p>Alle Partnerseiten werbefrei und ohne Tracking für %s €/Monat.</p>
<form method="post" action="/subscribe"><input name="email"><button>Jetzt abonnieren</button></form>
</body></html>`, p.Name, p.Name, strings.Replace(fmt.Sprintf("%.2f", p.MonthlyPriceEUR), ".", ",", 1))
	case r.Method == http.MethodPost && r.URL.Path == "/subscribe":
		if err := r.ParseForm(); err != nil {
			http.Error(w, "bad form", http.StatusBadRequest)
			return
		}
		email := r.PostForm.Get("email")
		if email == "" {
			http.Error(w, "email required", http.StatusBadRequest)
			return
		}
		acct, err := f.reg.SMP.Subscribe(p.Name, email)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, acct.Token)
	default:
		http.NotFound(w, r)
	}
}

// --- sites --------------------------------------------------------------------

func (f *Farm) serveSite(w http.ResponseWriter, r *http.Request, s *synthweb.Site) {
	if !s.Reachable {
		// Normally intercepted at the transport; defense in depth.
		http.Error(w, "unreachable", http.StatusServiceUnavailable)
		return
	}
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/consent":
		f.handleConsent(w, r)
	case r.Method == http.MethodPost && r.URL.Path == "/smp-login":
		f.handleSMPLogin(w, r, s)
	case r.Method == http.MethodGet && r.URL.Path == "/cw-frame.html":
		if s.Banner == synthweb.BannerNone {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		writeRender(w, f.bannerDocument(s))
	case r.Method == http.MethodGet:
		f.handlePage(w, r, s)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (f *Farm) handleConsent(w http.ResponseWriter, r *http.Request) {
	choice := "accepted"
	if err := r.ParseForm(); err == nil && r.PostForm.Get("choice") == "reject" {
		choice = "rejected"
	}
	http.SetCookie(w, &http.Cookie{
		Name: "consent", Value: choice, Path: "/", MaxAge: 31536000,
	})
	w.Header().Set("Location", "/")
	w.WriteHeader(http.StatusSeeOther)
}

func (f *Farm) handleSMPLogin(w http.ResponseWriter, r *http.Request, s *synthweb.Site) {
	platform, ok := f.reg.SMP.PlatformOf(s.Domain)
	if !ok {
		// Independent cookiewalls take the user to their own checkout;
		// we model that as an unimplemented flow.
		http.Error(w, "no subscription platform", http.StatusNotFound)
		return
	}
	if err := r.ParseForm(); err != nil {
		http.Error(w, "bad form", http.StatusBadRequest)
		return
	}
	token := r.PostForm.Get("token")
	if !f.reg.SMP.ValidateToken(platform.Name, token) {
		http.Error(w, "invalid subscription token", http.StatusForbidden)
		return
	}
	http.SetCookie(w, &http.Cookie{
		Name: smp.SubscriptionCookieName, Value: token, Path: "/", MaxAge: 2592000,
	})
	w.Header().Set("Location", "/")
	w.WriteHeader(http.StatusSeeOther)
}

// headerAdopter is implemented by the in-process transport's recorder:
// a handler whose complete response header is memoized (the page
// handler's, cached alongside its render) hands the shared header over
// wholesale instead of rebuilding it Add-by-Add per request. Adopted
// headers are shared across requests and must never be mutated.
type headerAdopter interface {
	AdoptHeader(h http.Header)
}

func (f *Farm) handlePage(w http.ResponseWriter, r *http.Request, s *synthweb.Site) {
	st := pageState{
		site:   s,
		vpName: r.Header.Get(vantage.GeoHeader),
		visit:  r.Header.Get(vantage.VisitHeader),
		botUA:  looksLikeBot(r.Header.Get("User-Agent")),
	}
	if c, err := r.Cookie("consent"); err == nil {
		st.consented = c.Value == "accepted"
		st.rejected = c.Value == "rejected"
	}
	if c, err := r.Cookie(smp.SubscriptionCookieName); err == nil {
		if platform, ok := f.reg.SMP.PlatformOf(s.Domain); ok {
			st.subscribed = f.reg.SMP.ValidateToken(platform.Name, c.Value)
		}
	}

	// The page's full response header — first-party Set-Cookie values
	// and Content-Type — is a pure function of the render key, cached
	// with the render itself: the in-process recorder adopts it shared,
	// plain writers (httptest, the real listener) get a copy.
	page := f.renderSitePage(st)
	writeHeader(w, page.header)
	writeRender(w, page)
}

// writeHeader hands a complete, never-again-mutated response header to
// the in-process recorder, which adopts it as is; plain writers
// (httptest, the real listener) get a copy.
func writeHeader(w http.ResponseWriter, h http.Header) {
	if a, ok := w.(headerAdopter); ok {
		a.AdoptHeader(h)
		return
	}
	dst := w.Header()
	for k, vs := range h {
		dst[k] = append(dst[k], vs...)
	}
}

// pageHeader builds the complete response header for a page render —
// the memoized counterpart of what setFirstPartyCookies plus the
// Content-Type Set used to assemble per request.
func (f *Farm) pageHeader(st pageState) http.Header {
	h := http.Header{"Content-Type": {"text/html; charset=utf-8"}}
	f.setFirstPartyCookies(h, st)
	return h
}

// fpCookieVals precomputes the full Set-Cookie values for the indexed
// first-party cookies — every page view of every site emits a few, so
// formatting them per request would dominate the header path.
var fpCookieVals = func() map[string][]string {
	m := make(map[string][]string, 3)
	for _, prefix := range []string{"sess", "subp", "pref"} {
		vals := make([]string, 64)
		for i := range vals {
			vals[i] = fmt.Sprintf("%s_%02d=1; Path=/; Max-Age=604800", prefix, i)
		}
		m[prefix] = vals
	}
	return m
}()

// setFirstPartyCookies emits the Set-Cookie headers that realize the
// site's first-party profile for the current state.
func (f *Farm) setFirstPartyCookies(h http.Header, st pageState) {
	s := st.site
	set := func(prefix string, i int) {
		vals := fpCookieVals[prefix]
		if i < len(vals) {
			h.Add("Set-Cookie", vals[i])
			return
		}
		h.Add("Set-Cookie",
			fmt.Sprintf("%s_%02d=1; Path=/; Max-Age=604800", prefix, i))
	}
	for i := 0; i < s.Cookies.PreConsentFP; i++ {
		set("sess", i)
	}
	switch {
	case st.subscribed:
		// Total first-party target SubFP: the subscription cookie plus
		// session cookies count toward it.
		extra := f.jitter(s.Cookies.SubFP, s.Domain, st.visit, "sub-fp") -
			s.Cookies.PreConsentFP - 1
		for i := 0; i < extra; i++ {
			set("subp", i)
		}
	case st.consented:
		extra := f.jitter(s.Cookies.PostFP, s.Domain, st.visit, "fp") -
			s.Cookies.PreConsentFP - 1 // consent cookie itself is first-party
		for i := 0; i < extra; i++ {
			set("pref", i)
		}
	}
}
