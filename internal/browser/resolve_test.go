package browser

import (
	"net/url"
	"reflect"
	"testing"
)

// FuzzResolveSubresource pins resolveSubresource to base.Parse(ref): the
// same error outcome for every input and, for every accepted input, a
// URL equal field by field and in String(). It also
// pins parsePlainURL to url.Parse: a ref the splitter accepts parses
// without error into a URL equal field by field and in String(), and a
// declined ref leaves the destination untouched.
func FuzzResolveSubresource(f *testing.F) {
	for _, c := range [][2]string{
		{"https://a.de/", "https://trackpix1.example/p.gif?site=a.de&n=3&o=6"},
		{"https://a.de/", "https://cdn-static.example/tag.js?site=a.de&n=2&o=0"},
		{"https://a.de/", "https://cdn.contentpass.example/frame?site=a.de"},
		{"https://a.de/", "https://cdn.contentpass.example/cw.js?site=a.de"},
		{"https://a.de/", "https://a.de/cw-frame.html"},
		{"https://a.de/x/y", "https://b.de/a/./b/../c"},
		{"https://a.de/x/y", "https://b.de/.well-known/x"},
		{"https://a.de/x/y", "https://b.de/a/.."},
		{"https://a.de/x/y", "https://b.de/%2e%2e/x"},
		{"https://a.de/x/y", "https://b.de/a%2Fb/c"},
		{"https://a.de/x/y", "https://b.de/%41%20b?q=%zz#fr%20ag"},
		{"https://a.de/x/y", "https://b.de"},
		{"https://a.de/x/y", "https://b.de//double//slash"},
		{"https://a.de/x/y", "https:////b"},
		{"https://a.de/x/y", "https://user:pw@b.de:8443/p"},
		{"https://a.de/x/y", "//b.de/p.gif"},
		{"https://a.de/x/y", "/abs/path"},
		{"https://a.de/x/y", "rel/path?q"},
		{"https://a.de/x/y", "../up"},
		{"https://a.de/x/y", "mailto:x@a.de"},
		{"https://a.de/x/y", "https:opaque"},
		{"https://a.de/x/y", "https:?q"},
		{"https://a.de/x/y", "https:/p"},
		{"https://a.de/x/y", "data:image/gif;base64,R0lGOD"},
		{"https://a.de/x/y", "https://b.de/*"},
		{"https://a.de/x/y", "https://[::1]:80/p"},
		{"https://a.de/x/y", "?only=query"},
		{"https://a.de/x/y", "#frag"},
		{"https://a.de/x/y", ""},
		{"https://a.de/x/y", "http://b.de/a b"},
		{"https://a.de/x/y", "https://b.de/\x7f"},
		{"https://a.de/x/y", "http://b.de/p?a=1&b=2"},
		{"https://a.de/x/y", "https://b.de?q=1"},
		{"https://a.de/x/y", "https://b.de/p?"},
		{"https://a.de/x/y", "https://b.de/p?a=%41"},
		{"https://a.de/x/y", "HTTPS://B.DE/P"},
		{"https://a.de/x/y", "https://b.de:443/p"},
		{"https://a.de/x/y", "https://b.de/p#f"},
		{"https://a.de/x/y", "https://b_c.de~/p-q_r.s~t"},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, rawBase, ref string) {
		base, err := url.Parse(rawBase)
		if err != nil {
			return
		}
		sentinel := url.URL{Scheme: "sentinel"}
		split := sentinel
		if parsePlainURL(&split, ref) {
			parsed, err := url.Parse(ref)
			if err != nil {
				t.Fatalf("ref %q: splitter accepts what url.Parse rejects: %v", ref, err)
			}
			if !reflect.DeepEqual(&split, parsed) {
				t.Fatalf("ref %q: splitter %#v, url.Parse %#v", ref, split, parsed)
			}
			if split.String() != parsed.String() {
				t.Fatalf("ref %q: splitter %q, url.Parse %q", ref, split.String(), parsed)
			}
		} else if split != sentinel {
			t.Fatalf("ref %q: declined, but the destination changed to %#v", ref, split)
		}

		want, wantErr := base.Parse(ref)
		var scratch url.URL
		got, gotErr := resolveSubresource(&scratch, base, ref)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("base %q ref %q: error %v, base.Parse error %v", rawBase, ref, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("base %q ref %q: resolved %#v, base.Parse %#v", rawBase, ref, got, want)
		}
		if got.String() != want.String() {
			t.Fatalf("base %q ref %q: resolved %q, base.Parse %q", rawBase, ref, got, want)
		}
	})
}
