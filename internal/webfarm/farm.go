package webfarm

import (
	"fmt"
	"io"
	"net/http"
	"net/textproto"
	"net/url"
	"strconv"
	"strings"
	"sync"

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
	// pageHeaders interns the page renders' response headers, which the
	// render cache's page entries share.
	pageHeaders pageHeaderTable

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

// reply is one farm response as a value; its header is shared and
// read-only (see the package doc). Its body and header values are
// immutable and never recycled, so a caller may keep them as long as
// it likes: those carved from a render-cache arena keep their chunk
// alive as long as any of them is referenced. fp is the body's
// memoized bodyHash when the body is a cached render, 0 otherwise.
type reply struct {
	status int
	header http.Header
	body   string
	fp     uint64
}

// renderReply serves a render with status 200.
func renderReply(h http.Header, r render) reply {
	return reply{status: http.StatusOK, header: h, body: r.body, fp: r.fp}
}

// errorReply is the response http.Error writes, as a value.
func errorReply(status int, msg string) reply {
	return reply{status: status, header: errorHeader, body: msg + "\n"}
}

// redirectReply is the 303 back to the front page that sets c.
func redirectReply(c *http.Cookie) reply {
	return reply{status: http.StatusSeeOther, header: http.Header{"Set-Cookie": {c.String()}, "Location": {"/"}}}
}

// Constant header values and replies, shared read-only by every
// response that carries them.
var (
	htmlContentType = []string{"text/html; charset=utf-8"}
	htmlHeader      = http.Header{"Content-Type": htmlContentType}
	textHeader      = http.Header{"Content-Type": {"text/plain"}}
	errorHeader     = http.Header{
		"Content-Type":           {"text/plain; charset=utf-8"},
		"X-Content-Type-Options": {"nosniff"},
	}
	notFound = errorReply(http.StatusNotFound, "404 page not found")

	consentAccepted = redirectReply(&http.Cookie{Name: "consent", Value: "accepted", Path: "/", MaxAge: 31536000})
	consentRejected = redirectReply(&http.Cookie{Name: "consent", Value: "rejected", Path: "/", MaxAge: 31536000})
)

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

// ServeHTTP writes the routed reply to w: the real listener
// (cmd/webfarm), httptest recorders and the transport's RoundTrip
// compatibility path. Header values are copied, so w never aliases a
// shared reply header.
func (f *Farm) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rep := f.route(r)
	h := w.Header()
	for k, vs := range rep.header {
		h[k] = append(h[k], vs...)
	}
	w.WriteHeader(rep.status)
	if rep.body != "" {
		io.WriteString(w, rep.body)
	}
}

// route answers a request, dispatching by Host header.
func (f *Farm) route(r *http.Request) reply {
	host := canonHost(r.Host)
	switch {
	case f.trackers[host]:
		return f.serveTracker(r, kindTracker)
	case f.benign[host]:
		return f.serveTracker(r, kindBenign)
	case f.providerHosts[host] != "":
		return f.serveProvider(r, f.providerHosts[host])
	}
	if p, ok := f.portals[host]; ok {
		return f.servePortal(r, p)
	}
	if s, ok := f.reg.Site(host); ok {
		return f.serveSite(r, s)
	}
	return notFound
}

// --- tracker & benign hosts ------------------------------------------------

// serveTracker sets n cookies (names prefixed tr on tracker hosts, bc
// on benign ones, indexed from o) and returns a pixel. The cookie count
// is how Figures 4 and 5 are physically realized.
//
// Every cookie-measurement page load hits a handful of these, and a
// study repeats the same (site, n, o) request across repetitions and
// modes, so the reply header is memoized in the render cache under
// (kind, site, n, o). A hit allocates nothing: the parameters are read
// straight from the raw query, and the key's site is a substring of it
// unless it carries escapes. A miss writes its Set-Cookie values and
// the key's site into the shard's arena and takes the values slice
// from the shard's slab, so only its header map is allocated. A
// cookie-less pixel shares one constant header.
func (f *Farm) serveTracker(r *http.Request, kind renderKind) reply {
	q := r.URL.RawQuery
	n, _ := strconv.Atoi(queryGet(q, "n"))
	if n <= 0 || n > 64 {
		return renderReply(pixelHeader, gifPixel)
	}
	o, _ := strconv.Atoi(queryGet(q, "o"))
	site := queryGet(q, "site")
	key := renderKey{domain: site, kind: kind, n: uint8(n), o: int32(o)}
	cacheable := int(key.o) == o
	if cacheable {
		if px, ok := f.renders.get(key); ok {
			return renderReply(px.header, px)
		}
	}
	prefix := "tr"
	if kind == kindBenign {
		prefix = "bc"
	}
	a := &f.renders.shard(key).arena
	a.mu.Lock()
	vals := a.trackerCookies(prefix, o, n, site)
	if cacheable {
		// Copy the site: it aliases the request URL, which a cached key
		// must not pin.
		key.domain = a.CloneString(site)
	}
	a.mu.Unlock()
	h := http.Header{
		"Content-Type":  gifContentType,
		"Cache-Control": noStore,
		"Set-Cookie":    vals,
	}
	if !cacheable {
		return renderReply(h, gifPixel)
	}
	return renderReply(h, f.renders.put(key, gifPixel.body, h))
}

// trackerCookies returns the n Set-Cookie values
// "<prefix><o+j as %02d>=<site>; Path=/; Max-Age=31536000", j = 0..n-1,
// as slices of one string carved from a, in a slice from a's slab.
// n <= 64, and a.mu must be held.
func (a *shardArena) trackerCookies(prefix string, o, n int, site string) []string {
	const attrs = "; Path=/; Max-Age=31536000"
	a.Begin(n * (len(prefix) + len("-9223372036854775808=") + len(site) + len(attrs)))
	var num [20]byte
	var ends [64]int
	for j := 0; j < n; j++ {
		a.WriteString(prefix)
		if i := o + j; i >= 0 && i < 10 {
			a.WriteByte('0') // %02d pads only one-digit non-negatives
		}
		a.Write(strconv.AppendInt(num[:0], int64(o+j), 10))
		a.WriteByte('=')
		a.WriteString(site)
		a.WriteString(attrs)
		ends[j] = a.Len()
	}
	all := a.String()
	vals := a.values(n)
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

// cookieValue is http.Request.Cookie(name).Value without building the
// cookie list: it scans the Cookie header lines in place and returns the
// first valid value of the named cookie, unquoted, skipping the pairs
// net/http rejects. name must be a valid, non-empty cookie name.
func cookieValue(h http.Header, name string) (string, bool) {
	for _, line := range h["Cookie"] {
		for line != "" {
			var part string
			part, line, _ = strings.Cut(line, ";")
			k, v, _ := strings.Cut(textproto.TrimString(part), "=")
			if textproto.TrimString(k) != name {
				continue
			}
			if len(v) > 1 && v[0] == '"' && v[len(v)-1] == '"' {
				v = v[1 : len(v)-1]
			}
			if validCookieValue(v) {
				return v, true
			}
		}
	}
	return "", false
}

// validCookieValue reports whether every byte of v may appear in a
// cookie value, by net/http's rule.
func validCookieValue(v string) bool {
	for i := 0; i < len(v); i++ {
		if b := v[i]; b < 0x20 || b >= 0x7f || b == '"' || b == ';' || b == '\\' {
			return false
		}
	}
	return true
}

// gifPixel is the constant tracker response with its fingerprint
// computed once — trackers answer thousands of requests per campaign.
// Its constant header values are shared read-only across responses.
var (
	gifPixel       = render{body: "GIF89a", fp: bodyHash("GIF89a")}
	gifContentType = []string{"image/gif"}
	noStore        = []string{"no-store"}
	pixelHeader    = http.Header{"Content-Type": gifContentType, "Cache-Control": noStore}
)

// --- provider hosts ---------------------------------------------------------

// serveProvider handles the CMP/SMP delivery endpoints: /cw.js returns
// the injectable banner fragment, /frame the iframe banner document.
func (f *Farm) serveProvider(r *http.Request, providerName string) reply {
	site, ok := f.reg.Site(canonHost(queryGet(r.URL.RawQuery, "site")))
	if !ok || site.Provider.Name != providerName || site.Banner != synthweb.BannerCookiewall {
		return notFound
	}
	switch r.URL.Path {
	case "/cw.js":
		// The "script" response is the declarative banner fragment the
		// emulated browser injects (substitution for JS execution).
		return renderReply(htmlHeader, f.bannerFragment(site))
	case "/frame":
		return renderReply(htmlHeader, f.bannerDocument(site))
	}
	return notFound
}

// --- SMP portals -------------------------------------------------------------

// servePortal handles the subscription platform's own website:
// GET / is the marketing page, POST /subscribe creates an account and
// returns its token (the §4.4 "buy a one-month subscription" step).
func (f *Farm) servePortal(r *http.Request, p smp.Platform) reply {
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/":
		return reply{status: http.StatusOK, header: htmlHeader, body: fmt.Sprintf(`<!DOCTYPE html><html lang="de"><head><title>%s</title></head><body>
<h1>%s</h1><p>Alle Partnerseiten werbefrei und ohne Tracking für %s €/Monat.</p>
<form method="post" action="/subscribe"><input name="email"><button>Jetzt abonnieren</button></form>
</body></html>`, p.Name, p.Name, strings.Replace(fmt.Sprintf("%.2f", p.MonthlyPriceEUR), ".", ",", 1))}
	case r.Method == http.MethodPost && r.URL.Path == "/subscribe":
		if err := r.ParseForm(); err != nil {
			return errorReply(http.StatusBadRequest, "bad form")
		}
		email := r.PostForm.Get("email")
		if email == "" {
			return errorReply(http.StatusBadRequest, "email required")
		}
		acct, err := f.reg.SMP.Subscribe(p.Name, email)
		if err != nil {
			return errorReply(http.StatusInternalServerError, err.Error())
		}
		return reply{status: http.StatusOK, header: textHeader, body: acct.Token}
	}
	return notFound
}

// --- sites --------------------------------------------------------------------

func (f *Farm) serveSite(r *http.Request, s *synthweb.Site) reply {
	if !s.Reachable {
		// Normally intercepted at the transport; defense in depth.
		return errorReply(http.StatusServiceUnavailable, "unreachable")
	}
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/consent":
		var buf [formPeek]byte
		if choice, ok := formValue(r, "choice", &buf); ok && string(choice) == "reject" {
			return consentRejected
		}
		return consentAccepted
	case r.Method == http.MethodPost && r.URL.Path == "/smp-login":
		return f.smpLogin(r, s)
	case r.Method == http.MethodGet && r.URL.Path == "/cw-frame.html":
		if s.Banner == synthweb.BannerNone {
			return notFound
		}
		return renderReply(htmlHeader, f.bannerDocument(s))
	case r.Method == http.MethodGet:
		return f.servePage(r, s)
	}
	return errorReply(http.StatusMethodNotAllowed, "method not allowed")
}

func (f *Farm) smpLogin(r *http.Request, s *synthweb.Site) reply {
	platform, ok := f.reg.SMP.PlatformOf(s.Domain)
	if !ok {
		// Independent cookiewalls take the user to their own checkout;
		// we model that as an unimplemented flow.
		return errorReply(http.StatusNotFound, "no subscription platform")
	}
	var buf [formPeek]byte
	value, ok := formValue(r, "token", &buf)
	if !ok {
		return errorReply(http.StatusBadRequest, "bad form")
	}
	token := string(value)
	if !f.reg.SMP.ValidateToken(platform.Name, token) {
		return errorReply(http.StatusForbidden, "invalid subscription token")
	}
	return redirectReply(&http.Cookie{
		Name: smp.SubscriptionCookieName, Value: token, Path: "/", MaxAge: 2592000,
	})
}

func (f *Farm) servePage(r *http.Request, s *synthweb.Site) reply {
	st := pageState{
		site:   s,
		vpName: r.Header.Get(vantage.GeoHeader),
		visit:  r.Header.Get(vantage.VisitHeader),
		botUA:  looksLikeBot(r.Header.Get("User-Agent")),
	}
	if v, ok := cookieValue(r.Header, "consent"); ok {
		st.consented = v == "accepted"
		st.rejected = v == "rejected"
	}
	if v, ok := cookieValue(r.Header, smp.SubscriptionCookieName); ok {
		if platform, ok := f.reg.SMP.PlatformOf(s.Domain); ok {
			st.subscribed = f.reg.SMP.ValidateToken(platform.Name, v)
		}
	}

	// The page's full response header — first-party Set-Cookie values
	// and Content-Type — is a pure function of the render key, cached
	// with the render itself and shared by every reply that serves it.
	page := f.renderSitePage(st)
	return renderReply(page.header, page)
}

// pageHeader returns the complete response header for a page render:
// Content-Type plus the Set-Cookie values that realize the site's
// first-party cookie profile for the state. The header is shared and
// read-only: the interned one for the state's cookie shape, or
// htmlHeader when the state sets no cookies.
func (f *Farm) pageHeader(st pageState) http.Header {
	s := st.site
	extraPrefix, extra := "", 0
	switch {
	case st.subscribed:
		// Total first-party target SubFP: the subscription cookie plus
		// session cookies count toward it.
		extraPrefix = "subp"
		extra = f.jitter(s.Cookies.SubFP, s.Domain, st.visit, "sub-fp") -
			s.Cookies.PreConsentFP - 1
	case st.consented:
		extraPrefix = "pref"
		extra = f.jitter(s.Cookies.PostFP, s.Domain, st.visit, "fp") -
			s.Cookies.PreConsentFP - 1 // consent cookie itself is first-party
	}
	pre, extra := max(s.Cookies.PreConsentFP, 0), max(extra, 0)
	if pre+extra == 0 {
		return htmlHeader
	}
	if extra == 0 {
		extraPrefix = "" // no extra cookies: the prefix writes nothing
	}
	return f.pageHeaders.get(pageHeaderKey{extraPrefix: extraPrefix, pre: pre, extra: extra})
}

// pageHeaderTable interns the farm's page headers. A page header is a
// pure function of its pageHeaderKey, and a whole study needs only a
// few hundred distinct ones (206 at seed 42, scale 1, reps 5) for tens
// of thousands of render misses, so each is built once per farm and
// then shared read-only by every render that needs it. It fills
// lazily.
type pageHeaderTable struct {
	mu sync.RWMutex
	m  map[pageHeaderKey]http.Header
}

// pageHeaderKey is everything a page header depends on: pre "sess"
// cookies, then extra cookies named with extraPrefix.
type pageHeaderKey struct {
	extraPrefix string
	pre, extra  int
}

// get returns the interned header for k, building it on first use.
func (t *pageHeaderTable) get(k pageHeaderKey) http.Header {
	t.mu.RLock()
	h, ok := t.m[k]
	t.mu.RUnlock()
	if ok {
		return h
	}
	vals := appendFPCookies(make([]string, 0, k.pre+k.extra), "sess", k.pre)
	h = http.Header{
		"Content-Type": htmlContentType,
		"Set-Cookie":   appendFPCookies(vals, k.extraPrefix, k.extra),
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if first, ok := t.m[k]; ok {
		return first // built concurrently: every caller shares the first
	}
	if t.m == nil {
		t.m = make(map[pageHeaderKey]http.Header)
	}
	t.m[k] = h
	return h
}

// appendFPCookies appends the Set-Cookie values
// "<prefix>_<i as %02d>=1; Path=/; Max-Age=604800" for i = 0..n-1.
func appendFPCookies(vals []string, prefix string, n int) []string {
	pre := fpCookieVals[prefix]
	for i := 0; i < n; i++ {
		if i < len(pre) {
			vals = append(vals, pre[i])
			continue
		}
		vals = append(vals, fmt.Sprintf("%s_%02d=1; Path=/; Max-Age=604800", prefix, i))
	}
	return vals
}

// fpCookieVals precomputes the full Set-Cookie values for the indexed
// first-party cookies. The page headers of a study hold thousands of
// them (4 874 in the 206 headers at seed 42, scale 1, reps 5); sharing
// these strings saves formatting each one, two allocations apiece.
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
