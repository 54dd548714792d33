package cookies

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"cookiewalk/internal/trackdb"
)

var t0 = time.Date(2023, 5, 1, 12, 0, 0, 0, time.UTC)

func fixedJar() *Jar {
	j := NewJar()
	j.Now = func() time.Time { return t0 }
	return j
}

// header is the Cookie header the browser sends on a request to
// host+path.
func header(j *Jar, host, path string, secure bool) string {
	return string(j.AppendCookieHeader(nil, host, path, secure))
}

func TestParseSetCookieBasic(t *testing.T) {
	c, ok := parseSetCookie("sid=abc123; Path=/; HttpOnly", "www.spiegel.de", t0)
	if !ok {
		t.Fatal("cookie rejected")
	}
	if c.Name != "sid" || c.Value != "abc123" || !c.HTTPOnly || !c.HostOnly {
		t.Fatalf("cookie = %+v", c)
	}
	if c.Domain != "www.spiegel.de" {
		t.Fatalf("domain = %q", c.Domain)
	}
}

func TestParseSetCookieDomainAttribute(t *testing.T) {
	c, ok := parseSetCookie("t=1; Domain=.spiegel.de", "www.spiegel.de", t0)
	if !ok || c.Domain != "spiegel.de" || c.HostOnly {
		t.Fatalf("cookie = %+v", c)
	}
}

func TestParseSetCookieRejectsForeignDomain(t *testing.T) {
	if c, ok := parseSetCookie("t=1; Domain=zeit.de", "www.spiegel.de", t0); ok {
		t.Fatalf("foreign domain accepted: %+v", c)
	}
}

func TestParseSetCookieRejectsPublicSuffixDomain(t *testing.T) {
	if c, ok := parseSetCookie("t=1; Domain=de", "www.spiegel.de", t0); ok {
		t.Fatalf("public suffix domain accepted: %+v", c)
	}
}

func TestParseSetCookieMalformed(t *testing.T) {
	for _, h := range []string{"", "noequals", "=value", "  =x; Path=/"} {
		if c, ok := parseSetCookie(h, "a.de", t0); ok {
			t.Errorf("parseSetCookie(%q) = %+v, want rejected", h, c)
		}
	}
}

func TestParseSetCookieMaxAge(t *testing.T) {
	c, _ := parseSetCookie("t=1; Max-Age=60", "a.de", t0)
	if c.Expires != t0.Add(60*time.Second) {
		t.Fatalf("expires = %v", c.Expires)
	}
	// Max-Age <= 0 expires immediately.
	c, _ = parseSetCookie("t=1; Max-Age=0", "a.de", t0)
	if !c.Expired(t0) {
		t.Fatal("Max-Age=0 not expired")
	}
}

func TestParseSetCookieExpires(t *testing.T) {
	h := "t=1; Expires=" + t0.Add(time.Hour).Format(time.RFC1123)
	c, _ := parseSetCookie(h, "a.de", t0)
	if c.Expired(t0) || !c.Expired(t0.Add(2*time.Hour)) {
		t.Fatalf("expires handling wrong: %+v", c)
	}
}

func TestJarStoreAndRetrieve(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("www.spiegel.de", []string{
		"sid=1; Path=/",
		"pref=dark; Domain=spiegel.de",
	})
	if got := header(j, "www.spiegel.de", "/article", false); got != "pref=dark; sid=1" {
		t.Fatalf("got %q", got)
	}
	// Host-only cookie must not match a sibling subdomain; domain
	// cookie must.
	if got := header(j, "abo.spiegel.de", "/", false); got != "pref=dark" {
		t.Fatalf("sibling got %q", got)
	}
}

// TestJarSendOrder pins the Cookie header order: longest path first,
// then name, then domain, so two cookies of one name sent to one host
// come out in a fixed order.
func TestJarSendOrder(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("www.site.de", []string{
		"b=1; Domain=site.de", "a=2", "k=host", "k=dom; Domain=site.de", "z=3; Path=/shop",
	})
	const want = "z=3; a=2; b=1; k=dom; k=host"
	if got := header(j, "www.site.de", "/shop/cart", false); got != want {
		t.Fatalf("header = %q, want %q", got, want)
	}
}

func TestJarPathMatching(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("a.de", []string{"p=1; Path=/shop"})
	if got := header(j, "a.de", "/shop/cart", false); got != "p=1" {
		t.Fatalf("/shop/cart: %q", got)
	}
	if got := header(j, "a.de", "/shopping", false); got != "" {
		t.Fatalf("/shopping must not match /shop: %q", got)
	}
	if got := header(j, "a.de", "/", false); got != "" {
		t.Fatalf("/: %q", got)
	}
}

func TestJarSecure(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("a.de", []string{"s=1; Secure"})
	if header(j, "a.de", "/", false) != "" {
		t.Fatal("secure cookie sent over insecure channel")
	}
	if header(j, "a.de", "/", true) != "s=1" {
		t.Fatal("secure cookie not sent over secure channel")
	}
}

func TestJarOverwrite(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("a.de", []string{"k=old"})
	j.SetFromHeaders("a.de", []string{"k=new"})
	if got := header(j, "a.de", "/", false); got != "k=new" || len(j.cookies) != 1 {
		t.Fatalf("header = %q with %d stored", got, len(j.cookies))
	}
}

func TestJarDeleteViaExpiry(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("a.de", []string{"k=v"})
	j.SetFromHeaders("a.de", []string{"k=; Max-Age=0"})
	if len(j.cookies) != 0 {
		t.Fatal("expired set must delete")
	}
}

func TestJarExpiryOnRead(t *testing.T) {
	j := NewJar()
	now := t0
	j.Now = func() time.Time { return now }
	j.SetFromHeaders("a.de", []string{"k=v; Max-Age=10"})
	if header(j, "a.de", "/", false) != "k=v" {
		t.Fatal("cookie missing")
	}
	now = t0.Add(time.Minute)
	if header(j, "a.de", "/", false) != "" {
		t.Fatal("expired cookie returned")
	}
}

func TestJarClear(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("a.de", []string{"k=v"})
	j.Clear()
	if len(j.cookies) != 0 {
		t.Fatal("clear failed")
	}
}

func TestJarDeterministicOrder(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("a.de", []string{"b=2", "a=1", "c=3"})
	for range 10 {
		if got := header(j, "a.de", "/", false); got != "a=1; b=2; c=3" {
			t.Fatalf("header = %q, want name order", got)
		}
	}
}

func TestClassify(t *testing.T) {
	fp := &Cookie{Domain: "abo.spiegel.de"}
	tp := &Cookie{Domain: "trackpix1.example"}
	if Classify(fp, "www.spiegel.de") != FirstParty {
		t.Fatal("same-site cookie must be first-party")
	}
	if Classify(tp, "www.spiegel.de") != ThirdParty {
		t.Fatal("tracker cookie must be third-party")
	}
}

func TestCount(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("www.site.de", []string{"own=1"})
	j.SetFromHeaders("cdn.assets.example", []string{"c=1"})
	j.SetFromHeaders("sync.trackpix1.example", []string{"tr=1"})
	isTracking := func(d string) bool { return strings.Contains(d, "trackpix") }
	tally := Count(j, "www.site.de", isTracking)
	if tally.FirstParty != 1 || tally.ThirdParty != 2 || tally.Tracking != 1 {
		t.Fatalf("tally = %+v", tally)
	}
}

// mixedJar holds host-only and domain cookies, first- and third-party,
// tracking and not, two of them expired by the time it is returned.
func mixedJar() *Jar {
	j := NewJar()
	now := t0
	j.Now = func() time.Time { return now }
	j.SetFromHeaders("www.site.de", []string{"own=1", "pref=2; Domain=site.de", "short=3; Max-Age=10"})
	j.SetFromHeaders("abo.site.de", []string{"abo=1; Path=/abo"})
	j.SetFromHeaders("cdn.assets.example", []string{"c=1", "gone=2; Max-Age=5"})
	j.SetFromHeaders("sync.trackpix1.example", []string{"tr=1; Domain=trackpix1.example", "tr2=2"})
	j.SetFromHeaders("pixel.adsync2.example", []string{"ad=1; Max-Age=3600"})
	now = t0.Add(time.Minute)
	return j
}

// Count walks the jar map in place; it must agree with the tally built
// over all live cookies, one by one, from Classify and the blocklist.
func TestCountMatchesAll(t *testing.T) {
	j := mixedJar()
	var live []Cookie
	for _, c := range j.cookies {
		if !c.Expired(j.Now()) {
			live = append(live, c)
		}
	}
	if len(j.cookies) != 9 || len(live) != 7 {
		t.Fatalf("jar holds %d cookies, %d live; want 9, 7", len(j.cookies), len(live))
	}
	for _, page := range []string{"www.site.de", "cdn.assets.example", "other.de", "de"} {
		var want Tally
		for i := range live {
			c := &live[i]
			if Classify(c, page) == FirstParty {
				want.FirstParty++
			} else {
				want.ThirdParty++
			}
			if trackdb.IsTracking(c.Domain) {
				want.Tracking++
			}
		}
		if got := Count(j, page, trackdb.IsTracking); got != want {
			t.Errorf("Count(%q) = %+v, tally from Classify = %+v", page, got, want)
		}
	}
	if got := Count(j, "www.site.de", nil); got.Tracking != 0 || got.FirstParty != 3 || got.ThirdParty != 4 {
		t.Errorf("Count without a blocklist = %+v", got)
	}
}

func TestCountDoesNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is exact; skip in -short/-race runs")
	}
	j := mixedJar()
	if n := testing.AllocsPerRun(100, func() { Count(j, "www.site.de", trackdb.IsTracking) }); n != 0 {
		t.Errorf("Count allocates %.1f per call", n)
	}
}

func TestClassString(t *testing.T) {
	if FirstParty.String() != "first-party" || ThirdParty.String() != "third-party" {
		t.Fatal("Class.String wrong")
	}
}

// Property: a stored, unexpired host cookie is always returned for its
// own host and path /.
func TestQuickRoundTrip(t *testing.T) {
	f := func(name, value string) bool {
		name = sanitizeToken(name)
		if name == "" {
			return true
		}
		value = sanitizeToken(value)
		j := fixedJar()
		j.SetFromHeaders("host.de", []string{name + "=" + value})
		return header(j, "host.de", "/", true) == name+"="+value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// sanitizeToken strips separators that the cookie grammar forbids.
func sanitizeToken(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r > ' ' && r < 127 && r != ';' && r != '=' && r != ',' {
			b.WriteRune(r)
		}
	}
	return b.String()
}
