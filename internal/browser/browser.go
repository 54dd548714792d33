// Package browser implements the emulated browser that replaces
// Chrome + Selenium + OpenWPM in the paper's measurement stack.
//
// For every page load it: sends the request with the jar's cookies and
// the vantage headers; parses the HTML into a DOM; materializes
// declarative shadow roots; executes the page's declarative script
// directives (the substitution for JavaScript, see DESIGN.md §5.6);
// loads iframe documents recursively — including frames hosted inside
// shadow roots; fetches cookie-setting subresources (images, scripts);
// applies the content blocker to every network fetch and cosmetic rule
// to the DOM; and records which URLs the blocker suppressed.
//
// Clicking a banner button performs the real HTTP flow: consent POSTs,
// SMP login POSTs, redirect following, then a fresh page load — so
// post-consent measurements observe exactly what the server serves a
// consenting user.
//
// Determinism invariant. What a visit OBSERVES is a pure function of
// the request and the (deterministic) server: the resilience layer —
// per-visit deadlines, bounded retries of transient transport
// failures with seeded backoff, the per-host limiter and breakers —
// only changes pacing and which attempt succeeds, never the bytes an
// eventually-successful fetch yields. Partial bodies from torn
// transfers never reach fingerprinting, retry exhaustion produces
// stable error text, and definitive errors (DNS, 4xx) are returned
// verbatim without retry — so campaign results are byte-identical
// whenever faults eventually clear, which CI's determinism job pins
// against the golden snapshot, with faults from internal/fault.
//
// Page lifetime. A Browser owns the memory of the pages it composes:
// the Page values come from a session slab, and their trees (nodes and
// attributes, frame documents and injected fragments included) from
// the session's parser arenas. A page and its nodes stay valid until
// the Browser's next Reset, which clears them all and hands the memory
// to the next visit; after it, a page composed before reads as empty.
// Any number of pages may be used together within one session, as the
// revocation flow (page, accept, revisit, revisit after deletion) and
// Click do. A result that must outlive the session has to be copied out
// of the page first; strings read from it (attribute values, text) stay
// valid, since they are not part of the recycled memory.
package browser

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"

	"cookiewalk/internal/adblock"
	"cookiewalk/internal/cookies"
	"cookiewalk/internal/dom"
	"cookiewalk/internal/strarena"
	"cookiewalk/internal/vantage"
	"cookiewalk/internal/xrand"
)

// Browser is an emulated browser session. It is NOT safe for
// concurrent use; crawls create one Browser per worker.
type Browser struct {
	// Transport performs HTTP. Usually webfarm.(*Farm).Transport() or,
	// in cmd/webfarm mode, a real http.Transport.
	Transport http.RoundTripper
	// Jar stores cookies; a fresh jar per site visit reproduces the
	// paper's stateless crawling.
	Jar *cookies.Jar
	// VP stamps requests with the vantage point (geo substitution).
	VP vantage.VP
	// Visit labels the repetition for server-side jitter ("" = none).
	Visit string
	// Blocker, when set, enforces network filter rules and cosmetic
	// hiding — the uBlock Origin stand-in for §4.5.
	Blocker *adblock.Engine
	// SMPToken authenticates subscription logins (§4.4).
	SMPToken string
	// UserAgent is sent on every request. The default imitates the
	// regular Firefox that OpenWPM drives — the paper's bot-detection
	// mitigation. Set a crawler-looking value to study how
	// bot-sensitive sites change behaviour (§3 limitation).
	UserAgent string
	// MaxFrameDepth bounds iframe recursion (default 3).
	MaxFrameDepth int
	// MaxRedirects bounds redirect chains (default 5).
	MaxRedirects int
	// Resilience configures deadlines, retries and the per-host gate
	// (see resilience.go). The zero value keeps the historical
	// fail-on-first-error behavior.
	Resilience Resilience

	// rtCalls numbers logical requests so retry jitter decorrelates
	// across calls, not just across attempts within one call.
	rtCalls uint64
	// composeErr records the first degraded subresource fetch (a
	// transient failure that survived the whole retry budget) during
	// the current composition; see ComposeErr.
	composeErr error
	// parser is the session-owned HTML parser: a Browser is
	// single-goroutine by contract, so its parse state (token stacks,
	// node and attribute arenas) lives as long as the session. Reset
	// recycles its arenas.
	parser dom.Parser
	// pages is the session's Page slab, allocated on first Compose;
	// npages of them were handed out since the last Reset.
	pages  []Page
	npages int
	// nodes and kids are Compose's node snapshots (see
	// runScriptDirectives): nodes for the outer loops, kids for the
	// fragment children nested in one of them. Both are cleared after
	// use, so neither pins a tree.
	nodes, kids []*dom.Node
	// scratch is the session's one reusable request; see request.
	scratch reqScratch
	// cookieBuf is the reusable Cookie-header assembly buffer, and
	// cookies the arena each request's Cookie header is copied into.
	cookieBuf []byte
	cookies   strarena.Arena
	// topURL backs FetchTopDomain's parsed URL. It is only ever handed
	// to request/fetch plumbing that drops every reference before
	// FetchTopDomain returns (redirects re-parse into fresh URLs, error
	// text stringifies it at once), so reusing it across visits is
	// invisible.
	topURL url.URL
	// subURL backs the plain absolute URLs that fetchBlockable and
	// Click resolve (see parsePlainURL). It lives for one fetch, by the
	// same argument as topURL: RoundTripBody may not keep the request,
	// the plain-RoundTripper path sends a clone, redirects parse into
	// fresh URLs, and every error stringifies it at once. Neither caller
	// returns it, so the next fetch may overwrite it.
	subURL url.URL
}

// DefaultUserAgent imitates OpenWPM's instrumented Firefox.
const DefaultUserAgent = "Mozilla/5.0 (X11; Linux x86_64; rv:102.0) Gecko/20100101 Firefox/102.0"

// CrawlerUserAgent is an honest, detectable crawler identity for the
// bot-sensitivity experiment.
const CrawlerUserAgent = "cookiewalk/1.0 (measurement; +https://bannerclick.github.io)"

// New returns a browser with a fresh cookie jar.
func New(rt http.RoundTripper, vp vantage.VP) *Browser {
	b := &Browser{}
	b.Reset(rt, vp)
	return b
}

// Reset reinitializes the session in place to the state New returns: a
// fresh profile (the jar is emptied, not reallocated) and default
// knobs. A crawl worker reuses one Browser across its visits this way
// while keeping the paper's fresh-profile-per-visit semantics.
//
// Reset ends the lifetime of every page composed since the last Reset:
// their Page values and trees are cleared, and the next visit reuses
// their memory (see the package doc). A session that composed nothing
// recycles nothing.
func (b *Browser) Reset(rt http.RoundTripper, vp vantage.VP) {
	b.parser.Recycle()
	clear(b.pages[:b.npages])
	b.npages = 0
	if b.Jar == nil {
		b.Jar = cookies.NewJar()
	} else {
		b.Jar.Clear()
	}
	b.Transport = rt
	b.VP = vp
	b.Visit = ""
	b.Blocker = nil
	b.SMPToken = ""
	b.UserAgent = DefaultUserAgent
	b.MaxFrameDepth = 3
	b.MaxRedirects = 5
	b.Resilience = Resilience{}
	b.rtCalls = 0
	b.composeErr = nil
}

// Page is a fully loaded page. It and its tree belong to the Browser
// that composed it and stay valid until that Browser's next Reset.
type Page struct {
	// URL is the final URL after redirects.
	URL *url.URL
	// Doc is the document tree with shadow roots attached, banner
	// fragments injected and iframe documents loaded.
	Doc *dom.Node
	// Status is the final HTTP status code.
	Status int
	// Blocked lists URLs the content blocker suppressed, in fetch
	// order. It is the only per-subresource record a page keeps: URLs
	// that went out are not listed, so an unblocked fetch never
	// stringifies its URL.
	Blocked []string
	// ScrollLocked reports the §4.5 promipool.de quirk: the page locked
	// scrolling because it detected the blocker.
	ScrollLocked bool
	// AdblockPlea reports the hausbau-forum.de quirk: the page asks the
	// user to disable the blocker.
	AdblockPlea bool
	// Fingerprint is the page's content token, carried over from the
	// FetchTop that produced it (see FetchResult.Fingerprint).
	Fingerprint uint64
}

// Host returns the page's host without port.
func (p *Page) Host() string { return p.URL.Hostname() }

// Open loads a page: fetch, parse, run directives, frames, resources.
// With resilience enabled, a composition whose subresource fetches
// exhausted their retry budget is an error — a degraded page must
// never be analyzed or memoized as if it were the page.
func (b *Browser) Open(rawurl string) (*Page, error) {
	return b.composeFetched(b.FetchTop(rawurl))
}

// OpenDomain is Open for "https://<domain>/", fetched through the
// session-owned URL of FetchTopDomain and under its rule: the page's
// URL is that session URL until the session's next FetchTopDomain or
// OpenDomain, so a caller that reads a page's URL after reopening a
// page in the same session must use Open.
func (b *Browser) OpenDomain(domain string) (*Page, error) {
	return b.composeFetched(b.FetchTopDomain(domain))
}

// composeFetched is the second half of Open: fr composed, with a failed
// fetch or a degraded composition as the error.
func (b *Browser) composeFetched(fr FetchResult, err error) (*Page, error) {
	if err != nil {
		return nil, err
	}
	page := b.Compose(fr)
	if err := b.ComposeErr(); err != nil {
		return nil, err
	}
	return page, nil
}

// FetchResult is a fetched-but-not-yet-composed top-level document:
// the first half of Open. It exists so callers that memoize page
// ANALYSIS by content can stop here on a fingerprint hit and skip
// parsing and composition entirely.
type FetchResult struct {
	// URL is the final URL after redirects.
	URL *url.URL
	// Status is the final HTTP status code.
	Status int
	// Body is the raw top-level document.
	Body string
	// Fingerprint is a stable content token for the page this fetch
	// composes into. It folds together the body's content hash (handed
	// back by fingerprint-aware transports, or hashed from the bytes on
	// the plain http.RoundTripper path), the final URL, the status, the
	// frame-depth limit and the blocker configuration — every input of
	// Compose that is not itself fetched through the transport.
	//
	// Equal fingerprints imply byte-identical composed pages and
	// analysis results PROVIDED the transport is deterministic (equal
	// subresource requests receive equal responses). That holds for the
	// synthetic webfarm in-process and over a real listener; a
	// live-Internet transport offers no such guarantee, and callers
	// there must not memoize by fingerprint.
	Fingerprint uint64
}

// FetchTop performs only the top-level document fetch of Open — no
// parsing, no frames, no subresources.
func (b *Browser) FetchTop(rawurl string) (FetchResult, error) {
	u, err := url.Parse(rawurl)
	if err != nil {
		return FetchResult{}, fmt.Errorf("browser: bad url %q: %w", rawurl, err)
	}
	return b.fetchTop(u)
}

// FetchTopDomain is FetchTop for the canonical crawl entry point
// "https://<domain>/", filling a session-owned url.URL instead of
// re-parsing (and first concatenating) the URL string on every visit.
// The reused URL never outlives the visit: redirects re-parse into
// fresh URLs, and composed pages are dropped before the session's next
// fetch. Callers that retain FetchResult.URL across visits of one
// session must use FetchTop.
func (b *Browser) FetchTopDomain(domain string) (FetchResult, error) {
	b.topURL = url.URL{Scheme: "https", Host: domain, Path: "/"}
	return b.fetchTop(&b.topURL)
}

// fetchTop is the top-level document fetch behind FetchTop and
// FetchTopDomain.
func (b *Browser) fetchTop(u *url.URL) (FetchResult, error) {
	resp, finalURL, err := b.fetch(http.MethodGet, u, "", b.MaxRedirects, maxPageBody)
	if err != nil {
		return FetchResult{}, err
	}
	return FetchResult{
		URL:         finalURL,
		Status:      resp.status,
		Body:        resp.body,
		Fingerprint: b.pageFingerprint(resp, finalURL),
	}, nil
}

// pageFingerprint folds every non-fetched Compose input into the
// body's content hash. The URL is mixed component-wise to avoid the
// URL.String allocation on the per-visit hot path.
func (b *Browser) pageFingerprint(resp response, u *url.URL) uint64 {
	fp := resp.fp
	if fp == 0 {
		// Fallback fingerprinting: plain transports (cmd/webfarm's real
		// listener, net/http) hand no token, so hash the bytes we read —
		// the same xrand.Hash64 the farm memoizes, so both paths agree
		// on identical content.
		fp = xrand.Hash64(resp.body)
	}
	h := xrand.Mix64(fp, uint64(resp.status))
	h = xrand.Mix64(h, xrand.Hash64(u.Scheme))
	h = xrand.Mix64(h, xrand.Hash64(u.Host))
	h = xrand.Mix64(h, xrand.Hash64(u.Path))
	h = xrand.Mix64(h, uint64(b.MaxFrameDepth))
	if b.Blocker != nil {
		h = xrand.Mix64(h, b.Blocker.Fingerprint())
	}
	return h
}

// Compose builds the fully loaded page from a fetched document: parse,
// script directives, frames, subresources, cosmetic filtering and
// anti-adblock detectors — the second half of Open.
//
// The page is valid until the session's next Reset (see Page).
func (b *Browser) Compose(fr FetchResult) *Page {
	b.composeErr = nil
	page := b.newPage()
	*page = Page{
		URL:         fr.URL,
		Doc:         b.parser.Parse(fr.Body),
		Status:      fr.Status,
		Fingerprint: fr.Fingerprint,
	}
	b.runScriptDirectives(page)
	b.loadFrames(page, page.Doc, b.MaxFrameDepth)
	b.fetchSubresources(page)
	b.applyCosmetics(page)
	b.applyAdblockDetectors(page)
	return page
}

// pageSlab is the number of pages a session takes from its slab before
// Reset: a revocation flow composes four. Further pages are allocated.
const pageSlab = 4

// newPage hands out a zero Page from the session's slab.
func (b *Browser) newPage() *Page {
	if b.pages == nil {
		b.pages = make([]Page, pageSlab)
	}
	if b.npages == len(b.pages) {
		return new(Page)
	}
	b.npages++
	return &b.pages[b.npages-1]
}

// ComposeErr reports whether the most recent Compose was degraded by
// transport failure: a subresource fetch (script directive, frame,
// cookie-setting resource) failed transiently even after the whole
// retry budget, so the composed page may be missing content a healthy
// transport would have delivered. Deterministic failures — blocked
// URLs, 404s, unknown hosts — never count: those ARE the page.
// Callers that memoize analysis by fingerprint must check this after
// Compose and treat a non-nil answer as a failed visit.
func (b *Browser) ComposeErr() error { return b.composeErr }

const (
	// maxPageBody bounds top-level document reads (4 MiB, like a
	// crawler's page-size cutoff).
	maxPageBody = 4 << 20
	// maxSubresourceBody bounds subresource reads.
	maxSubresourceBody = 1 << 20
)

// bodyTransport is the zero-copy dispatch fast path implemented by
// webfarm's in-process transport: the response body comes back as a
// string — along with its stable content fingerprint, memoized by the
// server's render cache — with no http.Response reconstruction and no
// io.ReadAll + string(bytes) double copy. Matching is structural, so
// the webfarm package needs no import of this one. Transports that do
// not implement it (cmd/webfarm's real net/http transport) take the
// http.RoundTripper path below, where the fingerprint is recomputed by
// hashing the downloaded bytes with the same function.
//
// RoundTripBody receives the session's reusable request itself, not a
// copy. An implementation must not keep the request, its header map or
// its body past the call: the next request of the session overwrites
// all three. The strings it returns, and the header values it receives
// and returns, are immutable and never recycled: either side may keep
// them, and the arena chunk a string is carved from lives as long as
// the string does. A wrapper (the fault injector) may expose RoundTripBody
// only when its base does, so the browser never mistakes a transport
// that forwards to a plain RoundTripper for one that honors this
// contract.
type bodyTransport interface {
	RoundTripBody(req *http.Request) (status int, header http.Header, body string, fp uint64, err error)
}

// response is one fetched HTTP response with the body fully read.
type response struct {
	status int
	header http.Header
	body   string
	// fp is the body's content hash as provided by a fingerprint-aware
	// transport (the farm's memoized value), or 0 when the transport
	// handed none — plain RoundTrippers, truncated reads. Only the
	// top-level document's fingerprint is ever consumed, so the
	// missing-hash case is resolved lazily in pageFingerprint instead
	// of hashing every subresource body on the compatibility path.
	fp uint64
}

// fetch performs one HTTP request with cookies, geo headers, blocker
// bypass (top-level documents are never blocked — blockers filter
// subresources), and redirect following. The body is read fully,
// truncated at limit bytes. form is a POST's url-encoded body, "" for
// none; a redirect drops it.
func (b *Browser) fetch(method string, u *url.URL, form string, redirectsLeft, limit int) (response, *url.URL, error) {
	for {
		resp, err := b.doRequest(method, u, form, limit)
		if err != nil {
			return response{}, nil, err
		}
		b.Jar.SetFromHeaders(u.Hostname(), resp.header.Values("Set-Cookie"))

		if isRedirect(resp.status) && redirectsLeft > 0 {
			loc := resp.header.Get("Location")
			if loc == "" {
				return response{}, nil, fmt.Errorf("browser: redirect without location from %s", u)
			}
			next, err := u.Parse(loc)
			if err != nil {
				return response{}, nil, fmt.Errorf("browser: bad redirect %q: %w", loc, err)
			}
			// 303 (and web convention for 301/302) switches to GET.
			method, u, form = http.MethodGet, next, ""
			redirectsLeft--
			continue
		}
		return resp, u, nil
	}
}

// roundTrip dispatches one attempt's request, preferring the zero-copy
// body path. A plain RoundTripper gets a copy of the reusable request:
// net/http may still read a request after RoundTrip returns.
func (b *Browser) roundTrip(req *http.Request, limit int) (response, error) {
	if bt, ok := b.Transport.(bodyTransport); ok {
		status, header, body, fp, err := bt.RoundTripBody(req)
		if err != nil {
			return response{}, err
		}
		if len(body) > limit {
			// The transport's fingerprint describes the full body; a
			// truncated read is re-hashed lazily if ever consumed.
			body = body[:limit]
			fp = 0
		}
		return response{status: status, header: header, body: body, fp: fp}, nil
	}
	resp, err := b.Transport.RoundTrip(req.Clone(req.Context()))
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	bodyBytes, err := io.ReadAll(io.LimitReader(resp.Body, int64(limit)))
	if err != nil {
		return response{}, fmt.Errorf("browser: read %s: %w", req.URL, err)
	}
	return response{status: resp.StatusCode, header: resp.Header, body: string(bodyBytes)}, nil
}

// reqScratch is the session's reusable request state: one
// http.Request, one header map, fixed single-value slices for each
// header the browser sets and a form body — so a steady-state request
// allocates nothing but a share of a Cookie-header arena chunk (and
// that only when the jar has cookies to send) and, for a form POST on
// a plain RoundTripper, its body reader.
type reqScratch struct {
	req    http.Request
	hdr    http.Header
	ua     [1]string
	geo    [1]string
	visit  [1]string
	cookie [1]string
	ctype  [1]string
	form   formBody
}

// formBody is a form POST's body on the RoundTripBody path, reset for
// every attempt. It is an io.ByteReader, which the farm reads its
// short forms with.
type formBody struct{ strings.Reader }

// Close does nothing: the body is the session's.
func (*formBody) Close() error { return nil }

// request assembles one attempt's request in the session's scratch
// request, for dispatch by roundTrip. Every field is rewritten on every
// call, so nothing of an earlier request — a form body, a parsed form,
// a Visit, Cookie or Content-Type header, a context — carries over.
// The Cookie header is copied into the session's arena, so no request
// shares or rewrites another's. form is the url-encoded POST body (""
// for none), read from the start on every attempt: from the session's
// form body on the RoundTripBody path, which may not keep it, and from
// a fresh reader on a plain RoundTripper, which may read it after
// RoundTrip returns. The header keys are written pre-canonicalized
// (http.Header is a plain map), so farm lookups via Header.Get match.
func (b *Browser) request(ctx context.Context, method string, u *url.URL, form string) *http.Request {
	s := &b.scratch
	if s.hdr == nil {
		s.hdr = http.Header{
			"User-Agent":      s.ua[:],
			vantage.GeoHeader: s.geo[:],
		}
	}
	s.ua[0] = b.UserAgent
	s.geo[0] = b.VP.Name
	setHeader(s.hdr, vantage.VisitHeader, s.visit[:], b.Visit)
	b.cookieBuf = b.Jar.AppendCookieHeader(b.cookieBuf[:0], u.Hostname(), u.Path, u.Scheme == "https")
	setHeader(s.hdr, "Cookie", s.cookie[:], b.cookies.Clone(b.cookieBuf)) // "" allocates nothing
	s.req = http.Request{Method: method, URL: u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: s.hdr, Host: u.Host}
	ctype := ""
	if form != "" {
		if _, ok := b.Transport.(bodyTransport); ok {
			s.form.Reset(form)
			s.req.Body = &s.form
		} else {
			s.req.Body = io.NopCloser(strings.NewReader(form))
		}
		s.req.ContentLength = int64(len(form))
		ctype = "application/x-www-form-urlencoded"
	}
	setHeader(s.hdr, "Content-Type", s.ctype[:], ctype)
	// WithContext is the only way to set the context in place; inlined,
	// its copy of the request stays on the stack.
	s.req = *s.req.WithContext(ctx)
	return &s.req
}

// setHeader points h[key] at slot holding v, or deletes key when v is
// empty.
func setHeader(h http.Header, key string, slot []string, v string) {
	if v == "" {
		delete(h, key)
		return
	}
	slot[0] = v
	h[key] = slot
}

func isRedirect(code int) bool {
	switch code {
	case http.StatusMovedPermanently, http.StatusFound, http.StatusSeeOther,
		http.StatusTemporaryRedirect, http.StatusPermanentRedirect:
		return true
	}
	return false
}

// fetchBlockable fetches a subresource URL unless the blocker vetoes
// it, and returns the body of a 200 reply. The URL is resolved once
// (see resolveSubresource) and the request goes out on the resolved URL
// itself. It is stringified only where a string is needed: for the
// blocker and the page's Blocked list when a blocker is set, and for
// the degraded-composition error.
func (b *Browser) fetchBlockable(page *Page, rawurl string) (string, bool) {
	abs, err := resolveSubresource(&b.subURL, page.URL, rawurl)
	if err != nil {
		return "", false
	}
	if b.Blocker != nil {
		if absStr := abs.String(); b.Blocker.ShouldBlock(page.Host(), absStr) {
			page.Blocked = append(page.Blocked, absStr)
			return "", false
		}
	}
	resp, _, err := b.fetch(http.MethodGet, abs, "", 2, maxSubresourceBody)
	if err != nil {
		// A transient failure that survived the whole retry budget (or a
		// breaker fail-fast) degrades the composition: record it so the
		// visit fails instead of analyzing a partial page. Deterministic
		// errors — unknown hosts, bad URLs — keep the historical
		// silently-skipped behavior; they are the page, not the weather.
		if b.composeErr == nil && (IsTransient(err) || isCircuitOpen(err)) {
			b.composeErr = fmt.Errorf("browser: subresource %s: %w", abs, err)
		}
		return "", false
	}
	if resp.status != http.StatusOK {
		return "", false
	}
	return resp.body, true
}

// resolveSubresource is base.Parse(ref), filled into dst when ref is
// plain enough for parsePlainURL or resolveRootPath: the farm's
// subresource URLs all are, and then nothing is allocated and the
// result is dst itself. A ref parsePlainURL accepts is absolute with no
// dot segment, so resolving it against base would only copy it.
// FuzzResolveSubresource pins the equivalence.
func resolveSubresource(dst, base *url.URL, ref string) (*url.URL, error) {
	if parsePlainURL(dst, ref) || resolveRootPath(dst, base, ref) {
		return dst, nil
	}
	return base.Parse(ref)
}

// resolveRootPath sets *dst to *base.Parse(ref) and reports true when
// ref is a root-relative path: '/' followed by unreserved bytes and
// '/'. Like parsePlainURL it declines "/." (a dot segment), and it
// declines a leading "//" (a scheme-relative host). Any other ref is
// declined with dst untouched. The result takes base's scheme, user
// and host, and ref as its path, aliasing both, so nothing is
// allocated.
func resolveRootPath(dst, base *url.URL, ref string) bool {
	if !strings.HasPrefix(ref, "/") || strings.HasPrefix(ref, "//") || strings.Contains(ref, "/.") {
		return false
	}
	for i := 1; i < len(ref); i++ {
		if c := ref[i]; !unreserved(c) && c != '/' {
			return false
		}
	}
	*dst = url.URL{Scheme: base.Scheme, User: base.User, Host: base.Host, Path: ref}
	return true
}

// parsePlainURL sets *dst to *url.Parse(ref) and reports true when ref
// is "http://" or "https://", a non-empty host, an optional path and an
// optional non-empty query, spelled only with bytes url.Parse keeps as
// they are: unreserved bytes (letters, digits, "-._~") in the host, those
// and '/' in the path, those and '=' and '&' in the query. A path with
// "/." is declined too. Any other ref is declined with dst untouched. The fields alias ref, so
// nothing is allocated.
func parsePlainURL(dst *url.URL, ref string) bool {
	var scheme, rest string
	switch {
	case strings.HasPrefix(ref, "https://"):
		scheme, rest = "https", ref[len("https://"):]
	case strings.HasPrefix(ref, "http://"):
		scheme, rest = "http", ref[len("http://"):]
	default:
		return false
	}
	i := 0
	for i < len(rest) && unreserved(rest[i]) {
		i++
	}
	host := rest[:i]
	j := i
	for j < len(rest) && (unreserved(rest[j]) || rest[j] == '/') {
		j++
	}
	path := rest[i:j]
	if host == "" || (path != "" && path[0] != '/') || strings.Contains(path, "/.") {
		return false
	}
	var query string
	if j < len(rest) {
		if rest[j] != '?' || j+1 == len(rest) {
			return false
		}
		query = rest[j+1:]
		for k := 0; k < len(query); k++ {
			if c := query[k]; !unreserved(c) && c != '=' && c != '&' {
				return false
			}
		}
	}
	*dst = url.URL{Scheme: scheme, Host: host, Path: path, RawQuery: query}
	return true
}

// unreserved reports whether c is an RFC 3986 unreserved byte.
func unreserved(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
		c == '-' || c == '.' || c == '_' || c == '~'
}

// scriptInjectSel finds declarative banner-loader scripts.
var scriptInjectSel = dom.MustCompileSelector("script[src][data-cw-inject]")

// injectTargetSels caches compiled data-cw-inject target selectors:
// provider loaders use a fixed slot selector, so every cookiewall page
// load was recompiling the same one. The cache is bounded because the
// selector strings come from page content.
var injectTargetSels struct {
	mu sync.RWMutex
	m  map[string]*dom.Selector
}

const maxInjectTargetSels = 1024

// compileInjectTarget returns the compiled selector for src, or nil
// when it does not compile (the directive is then skipped, exactly as
// an inline compile error was).
func compileInjectTarget(src string) *dom.Selector {
	injectTargetSels.mu.RLock()
	sel, ok := injectTargetSels.m[src]
	injectTargetSels.mu.RUnlock()
	if ok {
		return sel
	}
	sel, _ = dom.CompileSelector(src) // nil on error, cached too
	injectTargetSels.mu.Lock()
	if injectTargetSels.m == nil || len(injectTargetSels.m) >= maxInjectTargetSels {
		injectTargetSels.m = make(map[string]*dom.Selector, 8)
	}
	// Clone the key: src is an attribute value aliasing the source
	// page, and a cached key must not pin whole documents in memory.
	injectTargetSels.m[strings.Clone(src)] = sel
	injectTargetSels.mu.Unlock()
	return sel
}

// runScriptDirectives executes <script src data-cw-inject="#sel">: the
// response fragment is parsed and appended to the selector target.
// This models what the provider's JavaScript does in a real browser,
// and — critically for §4.5 — goes through the content blocker.
//
// The directives and each fragment's children are snapshots in the
// session's buffers, taken before the loops mutate the trees; the two
// loops nest, so they use two buffers.
func (b *Browser) runScriptDirectives(page *Page) {
	// A snapshot, not a walk: each directive appends to the tree the
	// loop iterates.
	scripts := page.Doc.AppendQueryAll(b.nodes[:0], scriptInjectSel)
	for _, script := range scripts {
		src, _ := script.Attr("src")
		targetSel, _ := script.Attr("data-cw-inject")
		sel := compileInjectTarget(targetSel)
		if sel == nil {
			continue
		}
		target := page.Doc.Query(sel)
		if target == nil {
			continue
		}
		frag, ok := b.fetchBlockable(page, src)
		if !ok {
			continue
		}
		kids := b.parser.ParseFragment(frag).AppendChildren(b.kids[:0])
		for _, child := range kids {
			child.Detach()
			target.AppendChild(child)
		}
		clear(kids)
		b.kids = kids[:0]
	}
	clear(scripts)
	b.nodes = scripts[:0]
}

// loadFrames loads iframe content documents recursively, in document
// order, piercing shadow roots at their host element (frames inside
// shadow trees are real frames). Loading a frame sets its FrameDoc and
// changes no tree, so root is walked in place, with no list of frames
// collected.
func (b *Browser) loadFrames(page *Page, root *dom.Node, depth int) {
	if depth <= 0 {
		return
	}
	root.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return true
		}
		if n.Tag == "iframe" && n.FrameDoc == nil {
			if src, ok := n.Attr("src"); ok && src != "" && !strings.HasPrefix(src, "about:") {
				if body, ok := b.fetchBlockable(page, src); ok {
					n.FrameDoc = b.parser.Parse(body)
					b.loadFrames(page, n.FrameDoc, depth-1)
				}
			}
		}
		if n.Shadow != nil {
			b.loadFrames(page, n.Shadow.Root, depth)
		}
		return true
	})
}

var subresourceSel = dom.MustCompileSelector("img[src], script[src], link[href]")

// fetchSubresources requests cookie-setting resources: images, plain
// scripts and stylesheets — across the main document, shadow roots and
// loaded frames, in that order and in document order within each.
// Fetching changes no tree, so the trees are walked in place, with no
// list of roots or elements collected.
func (b *Browser) fetchSubresources(page *Page) {
	b.fetchSubresourcesIn(page, page.Doc)
	page.Doc.EachShadowRoot(func(sr *dom.ShadowRoot) { b.fetchSubresourcesIn(page, sr.Root) })
	page.Doc.EachFrameDoc(func(fd *dom.Node) { b.fetchSubresourcesIn(page, fd) })
}

// fetchSubresourcesIn fetches the subresources of one tree.
func (b *Browser) fetchSubresourcesIn(page *Page, root *dom.Node) {
	root.Walk(func(el *dom.Node) bool {
		if el == root || !el.Matches(subresourceSel) {
			return true
		}
		if el.Tag == "script" {
			if _, isInject := el.Attr("data-cw-inject"); isInject {
				return true // already executed as a directive
			}
		}
		attr := "src"
		if el.Tag == "link" {
			attr = "href"
		}
		if u, _ := el.Attr(attr); u != "" && !strings.HasPrefix(u, "data:") {
			b.fetchBlockable(page, u)
		}
		return true
	})
}

// applyCosmetics removes elements matched by the blocker's cosmetic
// rules (element hiding). Selectors come precompiled from the engine —
// compiling per page load used to dominate the blocking profile.
func (b *Browser) applyCosmetics(page *Page) {
	if b.Blocker == nil {
		return
	}
	for _, sel := range b.Blocker.CompiledCosmetics(page.Host()) {
		// A snapshot, not a walk: detaching a node mid-walk would end
		// the walk at it.
		matched := page.Doc.AppendQueryAll(b.nodes[:0], sel)
		for _, n := range matched {
			n.Detach()
		}
		clear(matched)
		b.nodes = matched[:0]
	}
}

var (
	ifBlockedSel   = dom.MustCompileSelector("[data-cw-if-blocked]")
	scrollLockSel  = dom.MustCompileSelector("body[data-scroll-lock-if-blocked]")
	blockedAttrSel = "data-cw-if-blocked"
)

// applyAdblockDetectors emulates client-side anti-adblock scripts:
// elements guarded by data-cw-if-blocked become visible when their
// sentinel URL was blocked (and disappear otherwise); a body
// scroll-lock directive freezes scrolling.
//
// Sentinel lookups run against a sorted copy of the blocked-URL list:
// a prefix hit, if any exists, is the binary-search successor of the
// sentinel itself, so each check is O(log blocked) instead of a scan
// of the whole set in nondeterministic map order.
func (b *Browser) applyAdblockDetectors(page *Page) {
	var blocked []string
	if len(page.Blocked) > 0 {
		// Sort a copy: page.Blocked stays in fetch order for reports.
		blocked = append(make([]string, 0, len(page.Blocked)), page.Blocked...)
		sort.Strings(blocked)
	}
	wasBlocked := func(sentinel string) bool {
		i := sort.SearchStrings(blocked, sentinel)
		return i < len(blocked) && strings.HasPrefix(blocked[i], sentinel)
	}
	guarded := page.Doc.AppendQueryAll(b.nodes[:0], ifBlockedSel)
	for _, n := range guarded {
		sentinel, _ := n.Attr(blockedAttrSel)
		if wasBlocked(sentinel) {
			// Reveal the plea.
			var kept []struct{ k, v string }
			for _, a := range n.Attrs {
				if a.Key != "hidden" {
					kept = append(kept, struct{ k, v string }{a.Key, a.Val})
				}
			}
			n.Attrs = n.Attrs[:0]
			for _, a := range kept {
				n.SetAttr(a.k, a.v)
			}
			page.AdblockPlea = true
		} else {
			n.Detach()
		}
	}
	clear(guarded)
	b.nodes = guarded[:0]
	if body := page.Doc.Body(); body != nil {
		if sentinel, ok := body.Attr("data-scroll-lock-if-blocked"); ok && wasBlocked(sentinel) {
			body.SetAttr("data-scroll-locked", "true")
			page.ScrollLocked = true
		}
	}
}

// Click activates a banner button and returns the page that results.
// Supported data-action values:
//
//	consent-accept  — POST choice=accept to data-target, reload
//	consent-reject  — POST choice=reject to data-target, reload
//	smp-subscribe   — POST token=<SMPToken> to data-target, reload
//
// The button may live in the main DOM, a shadow root, or an iframe
// document; data-target is absolute, so the flow works from any of
// them (real CMP frames postMessage to the top window — the HTTP
// effect is the same).
func (b *Browser) Click(page *Page, button *dom.Node) (*Page, error) {
	if button == nil {
		return nil, fmt.Errorf("browser: nil button")
	}
	action, _ := button.Attr("data-action")
	target, _ := button.Attr("data-target")
	if target == "" {
		target = "/consent"
	}
	abs, err := resolveSubresource(&b.subURL, page.URL, target)
	if err != nil {
		return nil, fmt.Errorf("browser: bad target %q: %w", target, err)
	}
	// The bodies are url.Values{...}.Encode() of each form, written out:
	// the two consent choices are constants.
	var form string
	switch action {
	case "consent-accept":
		form = "choice=accept"
	case "consent-reject":
		form = "choice=reject"
	case "smp-subscribe":
		if b.SMPToken == "" {
			return nil, fmt.Errorf("browser: subscribe click without SMP token")
		}
		form = "token=" + url.QueryEscape(b.SMPToken)
	default:
		return nil, fmt.Errorf("browser: unsupported action %q", action)
	}
	resp, _, err := b.fetch(http.MethodPost, abs, form, b.MaxRedirects, maxPageBody)
	if err != nil {
		return nil, err
	}
	if resp.status >= 400 {
		return nil, fmt.Errorf("browser: %s returned %d", action, resp.status)
	}
	// Reload the top-level page to observe the post-interaction state.
	return b.composeFetched(b.fetchTop(page.URL))
}
