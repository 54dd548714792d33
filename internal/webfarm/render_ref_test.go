package webfarm

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"cookiewalk/internal/categorize"
	"cookiewalk/internal/currency"
	"cookiewalk/internal/htmlx"
	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/xrand"
)

// The fmt-based renderers and page-header builder that the two-pass
// docWriter builders replaced, kept verbatim (renamed ref*, calling
// each other uncached) as the byte-for-byte reference the production
// renderers are checked against.

func (f *Farm) refRenderSitePage(st pageState) string {
	s := st.site
	t := textFor(s.Language)
	kw := refKeywordsFor(s)
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html lang=\"")
	b.WriteString(s.Language)
	b.WriteString("\">\n<head><meta charset=\"utf-8\"><title>")
	b.WriteString(htmlx.EscapeText(refSiteTitle(s)))
	b.WriteString("</title></head>\n<body")
	if s.ScrollLock && s.Provider.Listed {
		fmt.Fprintf(&b, " data-scroll-lock-if-blocked=%q", s.Provider.ScriptURL())
	}
	b.WriteString(">\n<header><h1>")
	b.WriteString(htmlx.EscapeText(refSiteTitle(s)))
	b.WriteString("</h1><nav><a href=\"/\">Home</a> <a href=\"/privacy\">Privacy</a></nav></header>\n<main>\n")

	fmt.Fprintf(&b, "<article><h2>%s</h2>\n", htmlx.EscapeText(kw[0]))
	fmt.Fprintf(&b, "<p>%s</p>\n", htmlx.EscapeText(fmt.Sprintf(t.intro, kw[0], kw[1])))
	fmt.Fprintf(&b, "<p>%s</p>\n", htmlx.EscapeText(fmt.Sprintf(t.body1, kw[2])))
	fmt.Fprintf(&b, "<p>%s</p>\n", htmlx.EscapeText(fmt.Sprintf(t.body2, kw[0])))
	b.WriteString("</article>\n</main>\n")

	if st.subscribed {
		b.WriteString(`<div id="sub-badge" class="subscription-active">✓</div>` + "\n")
	}

	if st.showBanner() {
		f.refWriteBanner(&b, s)
	}
	if s.AntiAdblock && s.Provider.Listed {
		fmt.Fprintf(&b,
			`<div id="adblock-plea" data-cw-if-blocked=%q hidden>Bitte deaktivieren Sie Ihren Werbeblocker, um diese Seite nutzen zu können.</div>`+"\n",
			s.Provider.ScriptURL())
	}

	if st.consented {
		f.refWriteTrackerEmbeds(&b, st, false)
	}
	if st.subscribed {
		f.refWriteTrackerEmbeds(&b, st, true)
	}

	b.WriteString("<footer><p>© ")
	b.WriteString(htmlx.EscapeText(s.Domain))
	b.WriteString("</p></footer>\n</body></html>\n")
	return b.String()
}

func refSiteTitle(s *synthweb.Site) string {
	name := s.Domain
	if i := strings.IndexByte(name, '.'); i > 0 {
		name = name[:i]
	}
	words := strings.Split(name, "-")
	for i, w := range words {
		if w != "" {
			words[i] = strings.ToUpper(w[:1]) + w[1:]
		}
	}
	return strings.Join(words, " ")
}

func refKeywordsFor(s *synthweb.Site) [3]string {
	ks := categorize.Keywords(s.Category)
	if len(ks) == 0 {
		ks = []string{"themen", "artikel", "beiträge"}
	}
	h := int(xrand.Hash64(s.Domain))
	if h < 0 {
		h = -h
	}
	var out [3]string
	for i := 0; i < 3; i++ {
		out[i] = ks[(h+i)%len(ks)]
	}
	return out
}

func (f *Farm) refWriteBanner(b *strings.Builder, s *synthweb.Site) {
	if s.Provider.Host != "" {
		fmt.Fprintf(b,
			"<div id=\"cw-slot\"></div>\n<script src=%q data-cw-inject=\"#cw-slot\" async></script>\n",
			refProviderScriptURL(s))
		return
	}
	b.WriteString(f.refBannerFragment(s, ""))
	b.WriteString("\n")
}

func refProviderScriptURL(s *synthweb.Site) string {
	return s.Provider.ScriptURL() + "?site=" + s.Domain
}

func (f *Farm) refBannerFragment(s *synthweb.Site, providerHost string) string {
	switch s.Embedding {
	case synthweb.EmbedIFrame:
		src := "/cw-frame.html"
		if providerHost != "" {
			src = "https://" + providerHost + "/frame?site=" + s.Domain
		}
		return fmt.Sprintf(
			`<iframe id="cw-frame" src=%q style="position:fixed;top:15%%;left:10%%;width:80%%;height:60%%;z-index:99999"></iframe>`,
			src)
	case synthweb.EmbedShadowOpen, synthweb.EmbedShadowClosed:
		mode := "open"
		if s.Embedding == synthweb.EmbedShadowClosed {
			mode = "closed"
		}
		return fmt.Sprintf(
			`<div id="cw-host" class=%q><template shadowrootmode=%q>%s</template></div>`,
			overlayClass(s), mode, f.refBannerCore(s))
	default:
		return f.refBannerCore(s)
	}
}

func (f *Farm) refBannerDocument(s *synthweb.Site) string {
	return "<!DOCTYPE html>\n<html lang=\"" + s.Language +
		"\"><head><meta charset=\"utf-8\"><title>Consent</title></head><body>\n" +
		f.refBannerCore(s) + "\n</body></html>\n"
}

func (f *Farm) refBannerCore(s *synthweb.Site) string {
	t := textFor(s.Language)
	consentTarget := "https://" + s.Domain + "/consent"
	var b strings.Builder
	if s.Banner == synthweb.BannerCookiewall {
		loginTarget := "https://" + s.Domain + "/smp-login"
		fmt.Fprintf(&b, `<div id="cw-banner" class="%s consent-layer" role="dialog" aria-modal="true" style="position:fixed;top:20%%;left:10%%;width:80%%;z-index:99999">`,
			overlayClass(s))
		fmt.Fprintf(&b, `<h2>%s</h2>`, htmlx.EscapeText(refSiteTitle(s)))
		fmt.Fprintf(&b, `<p class="cw-text">%s</p>`,
			htmlx.EscapeText(fmt.Sprintf(t.wallText, refFormatPricePhrase(s))))
		b.WriteString(`<div class="cw-actions">`)
		fmt.Fprintf(&b, `<button id="cw-accept" class="cw-btn cw-btn-accept" data-action="consent-accept" data-target=%q>%s</button>`,
			consentTarget, htmlx.EscapeText(t.accept))
		fmt.Fprintf(&b, `<button id="cw-subscribe" class="cw-btn cw-btn-sub" data-action="smp-subscribe" data-target=%q>%s</button>`,
			loginTarget, htmlx.EscapeText(t.subscribe))
		b.WriteString(`</div>`)
		if s.Provider.SMP {
			fmt.Fprintf(&b, `<p class="cw-footnote">powered by %s</p>`,
				htmlx.EscapeText(s.Provider.Name))
		}
		b.WriteString(`</div>`)
		return b.String()
	}
	b.WriteString(`<div id="cmp-banner" class="cookie-banner consent-layer" role="dialog" style="position:fixed;bottom:0;left:0;width:100%;z-index:9999">`)
	text := t.consentText
	if s.Decoy {
		text += " " + decoyPromoFor(s.Language)
	}
	fmt.Fprintf(&b, `<p class="cmp-text">%s</p>`, htmlx.EscapeText(text))
	fmt.Fprintf(&b, `<button id="cmp-accept" data-action="consent-accept" data-target=%q>%s</button>`,
		consentTarget, htmlx.EscapeText(t.accept))
	fmt.Fprintf(&b, `<button id="cmp-reject" data-action="consent-reject" data-target=%q>%s</button>`,
		consentTarget, htmlx.EscapeText(t.reject))
	fmt.Fprintf(&b, `<a href="/settings">%s</a>`, htmlx.EscapeText(t.settings))
	b.WriteString(`</div>`)
	return b.String()
}

func (f *Farm) refWriteTrackerEmbeds(b *strings.Builder, st pageState, subscription bool) {
	s := st.site
	var tracking, benign int
	if subscription {
		tracking = 0
		benign = f.jitter(s.Cookies.SubBenignTP, s.Domain, st.visit, "sub-benign")
	} else {
		tracking = f.jitter(s.Cookies.PostTracking, s.Domain, st.visit, "tracking")
		benign = f.jitter(s.Cookies.PostBenignTP, s.Domain, st.visit, "benign")
	}

	refWriteSpread(b, f.trackerPool, tracking, 3, s.Domain, "p.gif", "img")
	refWriteSpread(b, f.benignPool, benign, 2, s.Domain, "tag.js", "script")
}

func refWriteSpread(b *strings.Builder, pool []string, total, perDomain int, site, path, tag string) {
	if total <= 0 {
		return
	}
	start := int(xrand.Hash64(site) % uint64(len(pool)))
	offset := 0
	for total > 0 {
		n := perDomain
		if total < n {
			n = total
		}
		host := pool[(start+offset/perDomain)%len(pool)]
		url := fmt.Sprintf("https://%s/%s?site=%s&n=%d&o=%d", host, path, site, n, offset)
		if tag == "img" {
			fmt.Fprintf(b, "<img src=%q width=\"1\" height=\"1\" alt=\"\">\n", url)
		} else {
			fmt.Fprintf(b, "<script src=%q></script>\n", url)
		}
		offset += n
		total -= n
	}
}

func (f *Farm) refPageHeader(st pageState) http.Header {
	h := http.Header{"Content-Type": {"text/html; charset=utf-8"}}
	f.refSetFirstPartyCookies(h, st)
	return h
}

func (f *Farm) refSetFirstPartyCookies(h http.Header, st pageState) {
	s := st.site
	set := func(prefix string, i int) {
		h.Add("Set-Cookie",
			fmt.Sprintf("%s_%02d=1; Path=/; Max-Age=604800", prefix, i))
	}
	for i := 0; i < s.Cookies.PreConsentFP; i++ {
		set("sess", i)
	}
	switch {
	case st.subscribed:
		extra := f.jitter(s.Cookies.SubFP, s.Domain, st.visit, "sub-fp") -
			s.Cookies.PreConsentFP - 1
		for i := 0; i < extra; i++ {
			set("subp", i)
		}
	case st.consented:
		extra := f.jitter(s.Cookies.PostFP, s.Domain, st.visit, "fp") -
			s.Cookies.PreConsentFP - 1
		for i := 0; i < extra; i++ {
			set("pref", i)
		}
	}
}

func refFormatPricePhrase(s *synthweb.Site) string {
	t := textFor(s.Language)
	period := t.monthWord
	if s.PricePeriod == currency.PeriodYear {
		period = t.yearWord
	}
	return refFormatAmount(s.PriceAmount, s.PriceCurrency, s.Language) + " " + period
}

func refFormatAmount(amount float64, code, lang string) string {
	var num string
	if amount == float64(int64(amount)) {
		num = fmt.Sprintf("%d", int64(amount))
	} else {
		num = fmt.Sprintf("%.2f", amount)
		if decimalCommaLangs[lang] {
			num = strings.Replace(num, ".", ",", 1)
		}
	}
	switch code {
	case "EUR":
		return num + " €"
	case "USD":
		return "$" + num
	case "GBP":
		return "£" + num
	case "AUD":
		return "A$" + num
	case "SEK":
		return num + " kr"
	case "BRL":
		return "R$" + num
	case "INR":
		return "Rs. " + num
	case "CHF":
		return "CHF " + num
	case "ZAR":
		return "R" + num
	case "CNY":
		return "¥" + num
	default:
		return num + " " + code
	}
}

// refStates covers every way a request reaches the page renderer:
// banner shown, hidden by vantage point, hidden from a bot UA, consented
// under two visit labels, rejected and subscribed.
func refStates(s *synthweb.Site) []pageState {
	return []pageState{
		{site: s, vpName: "Germany"},
		{site: s, vpName: "Brazil"},
		{site: s, vpName: "Germany", botUA: true},
		{site: s, vpName: "Germany", consented: true, visit: "Germany|0|accept"},
		{site: s, vpName: "Germany", consented: true, visit: "Germany|1|accept"},
		{site: s, vpName: "Germany", rejected: true},
		{site: s, vpName: "Germany", subscribed: true, visit: "Germany|0|sub"},
	}
}

// checkedRender drives one docWriter renderer through both passes and
// checks that the counting pass sized the buffer exactly.
func checkedRender(t *testing.T, what string, write func(w *docWriter)) string {
	t.Helper()
	var w docWriter
	for w.next() {
		write(&w)
	}
	if w.b.Len() != w.n {
		t.Errorf("%s: counting pass measured %d bytes, writing pass wrote %d", what, w.n, w.b.Len())
	}
	return w.String()
}

// firstDiff locates the first differing byte for a readable failure.
func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	return fmt.Sprintf("at byte %d: got %q, want %q", i, got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
}

// TestDocWriterMatchesLibrary checks the writer primitives against the
// library calls they replace, on inputs the registry never produces.
func TestDocWriterMatchesLibrary(t *testing.T) {
	for _, s := range []string{"", "plain", "a&b<c>d", "&&<<>>", "ü & <ß>", `q"u\o`, "tab\there", "\x00\x7f\xff"} {
		if got, want := checkedRender(t, "text", func(w *docWriter) { w.text(s) }), htmlx.EscapeText(s); got != want {
			t.Errorf("text(%q) = %q, want %q", s, got, want)
		}
		tmpl := "<%s|%s>"
		if got, want := checkedRender(t, "textf", func(w *docWriter) { w.textf(tmpl, s, s) }), htmlx.EscapeText(fmt.Sprintf(tmpl, s, s)); got != want {
			t.Errorf("textf(%q) = %q, want %q", s, got, want)
		}
		if got, want := checkedRender(t, "quoted", func(w *docWriter) { w.quoted("https://", s, "/x") }), fmt.Sprintf("%q", "https://"+s+"/x"); got != want {
			t.Errorf("quoted(%q) = %q, want %q", s, got, want)
		}
	}
}

// TestRendersMatchReference pins the two-pass builders to the fmt
// reference byte for byte: every registry site in every page state,
// both banner-fragment delivery kinds and the banner document, plus the
// page header.
func TestRendersMatchReference(t *testing.T) {
	farm := New(testReg)
	for _, s := range testReg.Sites() {
		for i, st := range refStates(s) {
			got := checkedRender(t, s.Domain+" page", func(w *docWriter) { farm.writeSitePage(w, st) })
			if want := farm.refRenderSitePage(st); got != want {
				t.Errorf("%s state %d: page %s", s.Domain, i, firstDiff(got, want))
			}
			if got, want := farm.pageHeader(st), farm.refPageHeader(st); !reflect.DeepEqual(got, want) {
				t.Errorf("%s state %d: header %q, want %q", s.Domain, i, got, want)
			}
		}
		if s.Banner == synthweb.BannerNone {
			continue
		}
		for _, host := range []string{"", s.Provider.Host} {
			got := checkedRender(t, s.Domain+" fragment", func(w *docWriter) { writeBannerFragment(w, s, host) })
			if want := farm.refBannerFragment(s, host); got != want {
				t.Errorf("%s: fragment (host %q) %s", s.Domain, host, firstDiff(got, want))
			}
		}
		got := checkedRender(t, s.Domain+" document", func(w *docWriter) { writeBannerDocument(w, s) })
		if want := farm.refBannerDocument(s); got != want {
			t.Errorf("%s: banner document %s", s.Domain, firstDiff(got, want))
		}
	}
}
