package webfarm

import (
	"strconv"
	"strings"

	"cookiewalk/internal/categorize"
	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/xrand"
)

// pageState is everything the renderer needs for one site request.
type pageState struct {
	site       *synthweb.Site
	vpName     string // visitor's vantage point ("" = unknown region)
	visit      string // jitter label ("" = no jitter)
	consented  bool
	rejected   bool
	subscribed bool
	// botUA marks crawler-looking user agents; bot-sensitive sites
	// hide their banner from them (§3 limitation).
	botUA bool
}

// showBanner decides whether this request gets a banner.
func (st pageState) showBanner() bool {
	if st.consented || st.rejected || st.subscribed {
		return false
	}
	if st.site.Banner == synthweb.BannerNone {
		return false
	}
	if st.site.BotSensitive && st.botUA {
		return false
	}
	if len(st.site.ShowToVPs) == 0 {
		return true
	}
	return st.site.ShowsBannerTo(st.vpName)
}

// botMarkers are the automation substrings of the farm's naive crawler
// fingerprint, matched case-insensitively.
var botMarkers = []string{"bot", "crawl", "spider", "headless", "measurement", "cookiewalk"}

// looksLikeBot is the farm's naive crawler fingerprint: empty UA or
// one containing the usual automation markers. OpenWPM mitigates this
// in the paper; our emulated browser can impersonate either side.
// Matching scans in place — strings.ToLower on every page request's UA
// was a per-visit allocation for nothing (the markers are ASCII).
func looksLikeBot(ua string) bool {
	if ua == "" {
		return true
	}
	for _, marker := range botMarkers {
		if containsFold(ua, marker) {
			return true
		}
	}
	return false
}

// containsFold reports whether s contains substr under ASCII
// case-folding. substr must be lower-case ASCII (the bot markers are).
func containsFold(s, substr string) bool {
	n := len(substr)
	if n == 0 {
		return true
	}
	for i := 0; i+n <= len(s); i++ {
		j := 0
		for j < n {
			c := s[i+j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != substr[j] {
				break
			}
			j++
		}
		if j == n {
			return true
		}
	}
	return false
}

// renderSitePage produces the full HTML document for a site visit,
// memoized per (site, banner visibility, consent state, jitter label):
// every request field the renderer reads is captured by that key, so
// the cached string is byte-identical to a fresh render. The returned
// entry carries the body's memoized content fingerprint for the
// transport to hand to analysis-memoizing clients.
func (f *Farm) renderSitePage(st pageState) render {
	key := pageKey(st)
	if page, ok := f.renders.get(key); ok {
		return page
	}
	w := docWriter{b: &f.renders.shard(key).arena}
	for w.next() {
		f.writeSitePage(&w, st)
	}
	return f.renders.put(key, w.String(), f.pageHeader(st))
}

// pageKey is the render key of st's page.
func pageKey(st pageState) renderKey {
	key := renderKey{domain: st.site.Domain, kind: kindPage}
	if st.showBanner() {
		key.flags |= flagBanner
	}
	if st.consented {
		key.flags |= flagConsented
	}
	if st.subscribed {
		key.flags |= flagSubscribed
	}
	if st.consented || st.subscribed {
		// Only consent/subscription pages embed jittered tracker counts;
		// everywhere else the visit label does not reach the renderer.
		key.visit = st.visit
	}
	return key
}

func (f *Farm) writeSitePage(w *docWriter, st pageState) {
	s := st.site
	t := textFor(s.Language)
	kw := keywordsFor(s)
	w.str("<!DOCTYPE html>\n<html lang=\"")
	w.str(s.Language)
	w.str("\">\n<head><meta charset=\"utf-8\"><title>")
	writeSiteTitle(w, s)
	w.str("</title></head>\n<body")
	if s.ScrollLock && s.Provider.Listed {
		// Declarative anti-adblock: the browser locks scrolling when the
		// referenced resource was blocked (promipool.de behaviour, §4.5).
		w.str(" data-scroll-lock-if-blocked=")
		w.quoted("https://", s.Provider.Host, "/cw.js") // listed providers all have a host
	}
	w.str(">\n<header><h1>")
	writeSiteTitle(w, s)
	w.str("</h1><nav><a href=\"/\">Home</a> <a href=\"/privacy\">Privacy</a></nav></header>\n<main>\n")

	// Article body: three language-typical paragraphs threaded with the
	// site's category keywords (classifier food).
	w.str("<article><h2>")
	w.text(kw[0])
	w.str("</h2>\n<p>")
	w.textf(t.intro, kw[0], kw[1])
	w.str("</p>\n<p>")
	w.textf(t.body1, kw[2])
	w.str("</p>\n<p>")
	w.textf(t.body2, kw[0])
	w.str("</p>\n</article>\n</main>\n")

	if st.subscribed {
		w.str(`<div id="sub-badge" class="subscription-active">✓</div>` + "\n")
	}

	if st.showBanner() {
		f.writeBanner(w, s)
	}
	if s.AntiAdblock && s.Provider.Listed {
		// hausbau-forum.de behaviour: a plea that the browser reveals
		// when the cookiewall resource was blocked.
		w.str(`<div id="adblock-plea" data-cw-if-blocked=`)
		w.quoted("https://", s.Provider.Host, "/cw.js")
		w.str(` hidden>Bitte deaktivieren Sie Ihren Werbeblocker, um diese Seite nutzen zu können.</div>` + "\n")
	}

	// Post-consent pages carry the ad/tracking load.
	if st.consented {
		f.writeTrackerEmbeds(w, st, false)
	}
	if st.subscribed {
		f.writeTrackerEmbeds(w, st, true)
	}

	w.str("<footer><p>© ")
	w.text(s.Domain)
	w.str("</p></footer>\n</body></html>\n")
}

// writeSiteTitle writes the stable human-ish title derived from the
// domain: its first label's "-"-separated words, capitalized.
func writeSiteTitle(w *docWriter, s *synthweb.Site) {
	name := s.Domain
	if i := strings.IndexByte(name, '.'); i > 0 {
		name = name[:i]
	}
	for sep := ""; ; sep = " " {
		word, rest, more := strings.Cut(name, "-")
		w.str(sep)
		if word != "" {
			if c := word[0]; 'a' <= c && c <= 'z' {
				w.str(string(rune(c - 'a' + 'A')))
			} else {
				w.text(strings.ToUpper(word[:1])) // no copy unless non-ASCII
			}
			w.text(word[1:])
		}
		if !more {
			return
		}
		name = rest
	}
}

// keywordsFor returns three deterministic category keywords for a site.
func keywordsFor(s *synthweb.Site) [3]string {
	h := int(xrand.Hash64(s.Domain))
	if h < 0 {
		h = -h
	}
	var out [3]string
	for i := range out {
		kw, ok := categorize.Keyword(s.Category, h+i)
		if !ok {
			kw = fallbackKeywords[(h+i)%len(fallbackKeywords)]
		}
		out[i] = kw
	}
	return out
}

// fallbackKeywords stand in for categories without keywords ("Others").
var fallbackKeywords = [...]string{"themen", "artikel", "beiträge"}

// writeBanner emits the banner in the site's configured embedding and
// delivery mode.
func (f *Farm) writeBanner(w *docWriter, s *synthweb.Site) {
	if s.Provider.Host != "" {
		// Third-party delivery: a slot plus a provider script. The
		// emulated browser fetches the script URL (subject to content
		// blocking) and injects the returned fragment into the slot.
		w.str("<div id=\"cw-slot\"></div>\n<script src=")
		w.quoted("https://", s.Provider.Host, "/cw.js?site=", s.Domain)
		w.str(" data-cw-inject=\"#cw-slot\" async></script>\n")
		return
	}
	// Local (first-party) delivery: the fragment is written in place,
	// not cached on its own. The page that embeds it is cached, and the
	// writing pass must not call the cache (see docWriter).
	writeBannerFragment(w, s, "")
	w.str("\n")
}

// bannerFragment renders the injectable banner markup a site's
// provider host serves at /cw.js, in the site's configured embedding,
// memoized per site.
func (f *Farm) bannerFragment(s *synthweb.Site) render {
	key := renderKey{domain: s.Domain, kind: kindFragment}
	if frag, ok := f.renders.get(key); ok {
		return frag
	}
	w := docWriter{b: &f.renders.shard(key).arena}
	for w.next() {
		writeBannerFragment(&w, s, s.Provider.Host)
	}
	return f.renders.put(key, w.String(), nil)
}

func writeBannerFragment(w *docWriter, s *synthweb.Site, providerHost string) {
	switch s.Embedding {
	case synthweb.EmbedIFrame:
		w.str(`<iframe id="cw-frame" src=`)
		if providerHost != "" {
			w.quoted("https://", providerHost, "/frame?site=", s.Domain)
		} else {
			w.quoted("/cw-frame.html")
		}
		w.str(` style="position:fixed;top:15%;left:10%;width:80%;height:60%;z-index:99999"></iframe>`)
	case synthweb.EmbedShadowOpen, synthweb.EmbedShadowClosed:
		mode := "open"
		if s.Embedding == synthweb.EmbedShadowClosed {
			mode = "closed"
		}
		w.str(`<div id="cw-host" class=`)
		w.quoted(overlayClass(s))
		w.str(`><template shadowrootmode=`)
		w.quoted(mode)
		w.str(`>`)
		writeBannerCore(w, s)
		w.str(`</template></div>`)
	default:
		writeBannerCore(w, s)
	}
}

// bannerDocument renders the standalone HTML document served to banner
// iframes, memoized per site.
func (f *Farm) bannerDocument(s *synthweb.Site) render {
	key := renderKey{domain: s.Domain, kind: kindBannerDoc}
	if doc, ok := f.renders.get(key); ok {
		return doc
	}
	w := docWriter{b: &f.renders.shard(key).arena}
	for w.next() {
		writeBannerDocument(&w, s)
	}
	return f.renders.put(key, w.String(), nil)
}

func writeBannerDocument(w *docWriter, s *synthweb.Site) {
	w.str("<!DOCTYPE html>\n<html lang=\"")
	w.str(s.Language)
	w.str("\"><head><meta charset=\"utf-8\"><title>Consent</title></head><body>\n")
	writeBannerCore(w, s)
	w.str("\n</body></html>\n")
}

// overlayClass picks the banner's CSS class. Only the well-known
// (filter-listed) platforms reuse the stock "cw-smp-overlay" markup
// that the Annoyances cosmetic rule targets; locally-served walls and
// lesser-known kits (nichewall, tinycmp) use bespoke markup and evade
// both network and cosmetic filtering — exactly the §4.5 population
// that survives uBlock Origin.
func overlayClass(s *synthweb.Site) string {
	if s.Provider.Listed {
		return "cw-smp-overlay"
	}
	return "cw-overlay"
}

// writeBannerCore writes the banner element itself: a cookiewall
// (accept or subscribe, no reject) or a regular banner (accept +
// reject).
func writeBannerCore(w *docWriter, s *synthweb.Site) {
	t := textFor(s.Language)
	if s.Banner == synthweb.BannerCookiewall {
		w.str(`<div id="cw-banner" class="`)
		w.str(overlayClass(s))
		w.str(` consent-layer" role="dialog" aria-modal="true" style="position:fixed;top:20%;left:10%;width:80%;z-index:99999"><h2>`)
		writeSiteTitle(w, s)
		w.str(`</h2><p class="cw-text">`)
		var price [32]byte
		w.textf(t.wallText, string(appendPricePhrase(price[:0], s)))
		w.str(`</p><div class="cw-actions">`)
		writeButton(w, `<button id="cw-accept" class="cw-btn cw-btn-accept" data-action="consent-accept" data-target=`, s, "/consent", t.accept)
		writeButton(w, `<button id="cw-subscribe" class="cw-btn cw-btn-sub" data-action="smp-subscribe" data-target=`, s, "/smp-login", t.subscribe)
		w.str(`</div>`)
		if s.Provider.SMP {
			w.str(`<p class="cw-footnote">powered by `)
			w.text(s.Provider.Name)
			w.str(`</p>`)
		}
		w.str(`</div>`)
		return
	}
	// Regular banner.
	w.str(`<div id="cmp-banner" class="cookie-banner consent-layer" role="dialog" style="position:fixed;bottom:0;left:0;width:100%;z-index:9999"><p class="cmp-text">`)
	w.text(t.consentText)
	if s.Decoy {
		w.str(" ")
		w.text(decoyPromoFor(s.Language))
	}
	w.str(`</p>`)
	writeButton(w, `<button id="cmp-accept" data-action="consent-accept" data-target=`, s, "/consent", t.accept)
	writeButton(w, `<button id="cmp-reject" data-action="consent-reject" data-target=`, s, "/consent", t.reject)
	w.str(`<a href="/settings">`)
	w.text(t.settings)
	w.str(`</a></div>`)
}

// writeButton writes a banner button: open, the quoted
// https://<site><path> target, and the escaped label.
func writeButton(w *docWriter, open string, s *synthweb.Site, path, label string) {
	w.str(open)
	w.quoted("https://", s.Domain, path)
	w.str(">")
	w.text(label)
	w.str("</button>")
}

// writeTrackerEmbeds emits the third-party resources for a consent or
// subscription page view: tracker pixels (blocklisted domains) and
// benign assets. Counts are the site's profile with per-visit jitter.
func (f *Farm) writeTrackerEmbeds(w *docWriter, st pageState, subscription bool) {
	s := st.site
	var tracking, benign int
	if subscription {
		tracking = 0
		benign = f.jitter(s.Cookies.SubBenignTP, s.Domain, st.visit, "sub-benign")
	} else {
		tracking = f.jitter(s.Cookies.PostTracking, s.Domain, st.visit, "tracking")
		benign = f.jitter(s.Cookies.PostBenignTP, s.Domain, st.visit, "benign")
	}

	writeSpread(w, f.trackerPool, tracking, 3, s.Domain, "p.gif", "img")
	writeSpread(w, f.benignPool, benign, 2, s.Domain, "tag.js", "script")
}

// writeSpread distributes `total` cookies over a domain pool, perDomain
// at a time, emitting one resource tag per (domain, chunk).
func writeSpread(w *docWriter, pool []string, total, perDomain int, site, path, tag string) {
	if total <= 0 {
		return
	}
	open, end := "<img src=", " width=\"1\" height=\"1\" alt=\"\">\n"
	if tag != "img" {
		open, end = "<script src=", "></script>\n"
	}
	start := int(xrand.Hash64(site) % uint64(len(pool)))
	var nbuf, obuf [20]byte
	offset := 0
	for total > 0 {
		n := min(perDomain, total)
		host := pool[(start+offset/perDomain)%len(pool)]
		w.str(open)
		w.quoted("https://", host, "/", path, "?site=", site,
			"&n=", string(strconv.AppendInt(nbuf[:0], int64(n), 10)),
			"&o=", string(strconv.AppendInt(obuf[:0], int64(offset), 10)))
		w.str(end)
		offset += n
		total -= n
	}
}

// jitter perturbs a baseline count by ±~7% deterministically per
// (domain, visit, kind); visit "" disables jitter.
func (f *Farm) jitter(base int, domain, visit, kind string) int {
	if base <= 0 || visit == "" {
		return base
	}
	rng := xrand.New(xrand.SubSeed(f.seed, domain, visit, kind))
	v := int(float64(base)*rng.LogNormal(0, 0.07) + 0.5)
	if v < 0 {
		v = 0
	}
	return v
}

// docWriter builds a render-miss document in two passes over the same
// writer code, driven by `for w.next() { ... }`: the first only adds up
// lengths, the second writes the document into arena b as one string
// of exactly that size, with no intermediate copy. Writer code must
// write the same bytes twice.
//
// The writing pass holds b's lock, so writer code must not call the
// render cache: a miss on the same shard would wait for that lock
// forever. A writer set up without an arena gets one of its own.
type docWriter struct {
	b    *shardArena
	n    int // bytes measured by the counting pass
	pass int // 1 counting, 2 writing
	doc  string
}

// next starts the next pass and reports whether one is due.
func (w *docWriter) next() bool {
	w.pass++
	switch w.pass {
	case 2:
		if w.b == nil {
			w.b = new(shardArena)
		}
		w.b.mu.Lock()
		w.b.Begin(w.n)
	case 3:
		w.doc = w.b.String()
		w.b.mu.Unlock()
	}
	return w.pass <= 2
}

// String returns the document the writing pass wrote.
func (w *docWriter) String() string { return w.doc }

// str writes s as is.
func (w *docWriter) str(s string) {
	if w.pass == 1 {
		w.n += len(s)
		return
	}
	w.b.WriteString(s)
}

// text writes s HTML-escaped, as htmlx.EscapeText does.
func (w *docWriter) text(s string) {
	for i := strings.IndexAny(s, "&<>"); i >= 0; i = strings.IndexAny(s, "&<>") {
		w.str(s[:i])
		w.str(htmlEntities[s[i]])
		s = s[i+1:]
	}
	w.str(s)
}

var htmlEntities = map[byte]string{'&': "&amp;", '<': "&lt;", '>': "&gt;"}

// textf writes tmpl with each "%s" replaced by the next arg, all
// HTML-escaped: htmlx.EscapeText(fmt.Sprintf(tmpl, args...)) for a
// template whose only verb is %s.
func (w *docWriter) textf(tmpl string, args ...string) {
	for _, a := range args {
		before, after, _ := strings.Cut(tmpl, "%s")
		w.text(before)
		w.text(a)
		tmpl = after
	}
	w.text(tmpl)
}

// quoted writes the concatenated parts quoted as fmt's %q does.
// Printable ASCII without quotes or backslashes, which covers every URL
// the farm renders, needs no escaping and is written as is.
func (w *docWriter) quoted(parts ...string) {
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			if c := p[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
				w.str(strconv.Quote(strings.Join(parts, "")))
				return
			}
		}
	}
	w.str(`"`)
	for _, p := range parts {
		w.str(p)
	}
	w.str(`"`)
}
