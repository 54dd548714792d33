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

func TestParseSetCookieBasic(t *testing.T) {
	c := ParseSetCookie("sid=abc123; Path=/; HttpOnly", "www.spiegel.de", t0)
	if c == nil {
		t.Fatal("nil cookie")
	}
	if c.Name != "sid" || c.Value != "abc123" || !c.HTTPOnly || !c.HostOnly {
		t.Fatalf("cookie = %+v", c)
	}
	if c.Domain != "www.spiegel.de" {
		t.Fatalf("domain = %q", c.Domain)
	}
}

func TestParseSetCookieDomainAttribute(t *testing.T) {
	c := ParseSetCookie("t=1; Domain=.spiegel.de", "www.spiegel.de", t0)
	if c == nil || c.Domain != "spiegel.de" || c.HostOnly {
		t.Fatalf("cookie = %+v", c)
	}
}

func TestParseSetCookieRejectsForeignDomain(t *testing.T) {
	if c := ParseSetCookie("t=1; Domain=zeit.de", "www.spiegel.de", t0); c != nil {
		t.Fatalf("foreign domain accepted: %+v", c)
	}
}

func TestParseSetCookieRejectsPublicSuffixDomain(t *testing.T) {
	if c := ParseSetCookie("t=1; Domain=de", "www.spiegel.de", t0); c != nil {
		t.Fatalf("public suffix domain accepted: %+v", c)
	}
}

func TestParseSetCookieMalformed(t *testing.T) {
	for _, h := range []string{"", "noequals", "=value", "  =x; Path=/"} {
		if c := ParseSetCookie(h, "a.de", t0); c != nil {
			t.Errorf("ParseSetCookie(%q) = %+v, want nil", h, c)
		}
	}
}

func TestParseSetCookieMaxAge(t *testing.T) {
	c := ParseSetCookie("t=1; Max-Age=60", "a.de", t0)
	if c.Expires != t0.Add(60*time.Second) {
		t.Fatalf("expires = %v", c.Expires)
	}
	// Max-Age <= 0 expires immediately.
	c = ParseSetCookie("t=1; Max-Age=0", "a.de", t0)
	if !c.Expired(t0) {
		t.Fatal("Max-Age=0 not expired")
	}
}

func TestParseSetCookieExpires(t *testing.T) {
	h := "t=1; Expires=" + t0.Add(time.Hour).Format(time.RFC1123)
	c := ParseSetCookie(h, "a.de", t0)
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
	got := j.CookiesFor("www.spiegel.de", "/article", false)
	if len(got) != 2 {
		t.Fatalf("got %d cookies", len(got))
	}
	// Host-only cookie must not match a sibling subdomain; domain
	// cookie must.
	got = j.CookiesFor("abo.spiegel.de", "/", false)
	if len(got) != 1 || got[0].Name != "pref" {
		t.Fatalf("sibling got %v", names(got))
	}
}

func TestJarPathMatching(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("a.de", []string{"p=1; Path=/shop"})
	if n := len(j.CookiesFor("a.de", "/shop/cart", false)); n != 1 {
		t.Fatalf("/shop/cart: %d", n)
	}
	if n := len(j.CookiesFor("a.de", "/shopping", false)); n != 0 {
		t.Fatalf("/shopping must not match /shop: %d", n)
	}
	if n := len(j.CookiesFor("a.de", "/", false)); n != 0 {
		t.Fatalf("/: %d", n)
	}
}

func TestJarSecure(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("a.de", []string{"s=1; Secure"})
	if n := len(j.CookiesFor("a.de", "/", false)); n != 0 {
		t.Fatal("secure cookie sent over insecure channel")
	}
	if n := len(j.CookiesFor("a.de", "/", true)); n != 1 {
		t.Fatal("secure cookie not sent over secure channel")
	}
}

func TestJarOverwrite(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("a.de", []string{"k=old"})
	j.SetFromHeaders("a.de", []string{"k=new"})
	all := j.All()
	if len(all) != 1 || all[0].Value != "new" {
		t.Fatalf("all = %+v", all)
	}
}

func TestJarDeleteViaExpiry(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("a.de", []string{"k=v"})
	j.SetFromHeaders("a.de", []string{"k=; Max-Age=0"})
	if j.Len() != 0 {
		t.Fatal("expired set must delete")
	}
}

func TestJarExpiryOnRead(t *testing.T) {
	j := NewJar()
	now := t0
	j.Now = func() time.Time { return now }
	j.SetFromHeaders("a.de", []string{"k=v; Max-Age=10"})
	if len(j.All()) != 1 {
		t.Fatal("cookie missing")
	}
	now = t0.Add(time.Minute)
	if len(j.All()) != 0 {
		t.Fatal("expired cookie returned")
	}
}

func TestJarClear(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("a.de", []string{"k=v"})
	j.Clear()
	if j.Len() != 0 {
		t.Fatal("clear failed")
	}
}

func TestJarDeterministicOrder(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("a.de", []string{"b=2", "a=1", "c=3"})
	var prev string
	for _, c := range j.All() {
		if c.Name < prev {
			t.Fatal("All() not sorted")
		}
		prev = c.Name
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
// from the sorted live-cookie copy All returns.
func TestCountMatchesAll(t *testing.T) {
	j := mixedJar()
	if j.Len() != 9 || len(j.All()) != 7 {
		t.Fatalf("jar holds %d cookies, %d live; want 9, 7", j.Len(), len(j.All()))
	}
	for _, page := range []string{"www.site.de", "cdn.assets.example", "other.de", "de"} {
		var want Tally
		for _, c := range j.All() {
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
			t.Errorf("Count(%q) = %+v, tally from All = %+v", page, got, want)
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

func names(cs []*Cookie) []string {
	var out []string
	for _, c := range cs {
		out = append(out, c.Name)
	}
	return out
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
		cs := j.CookiesFor("host.de", "/", true)
		return len(cs) == 1 && cs[0].Name == name && cs[0].Value == value
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
