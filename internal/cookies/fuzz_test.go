package cookies

import (
	"testing"
	"time"
)

// FuzzParseSetCookie hardens the Set-Cookie parser: any header either
// parses into a well-formed cookie or is rejected, never panics.
func FuzzParseSetCookie(f *testing.F) {
	for _, s := range []string{
		"a=b",
		"sid=x; Path=/; HttpOnly; Secure",
		"t=1; Domain=.example.de; Max-Age=60",
		"t=1; Expires=Mon, 02 Jan 2034 15:04:05 UTC",
		"=novalue", "; ; ;", "a=b; Domain=", "a=b; Max-Age=notanumber",
		"a=b; Domain=de", "x=y; Path=relative",
	} {
		f.Add(s)
	}
	now := time.Date(2023, 5, 1, 0, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, header string) {
		c, ok := parseSetCookie(header, "www.example.de", now)
		if !ok {
			return
		}
		if c.Name == "" {
			t.Fatal("accepted cookie without name")
		}
		if c.Domain == "" {
			t.Fatal("accepted cookie without domain")
		}
		if c.Path == "" || c.Path[0] != '/' {
			t.Fatalf("bad path %q", c.Path)
		}
		// A stored cookie must round-trip through the jar: the browser
		// sends it back on a secure request to its own host and path.
		j := NewJar()
		j.Now = func() time.Time { return now }
		j.SetFromHeaders("www.example.de", []string{header})
		got := string(j.AppendCookieHeader(nil, "www.example.de", c.Path, true))
		if want := c.Name + "=" + c.Value; !c.Expired(now) && got != want {
			t.Fatalf("jar sent %q, want %q", got, want)
		}
	})
}
