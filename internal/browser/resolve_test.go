package browser

import (
	"net/url"
	"reflect"
	"testing"
)

// FuzzResolveSubresource pins resolveSubresource to base.Parse(ref): the
// same error outcome for every input and, whenever the absolute-ref
// shortcut fires, a URL equal field by field and in String().
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
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, rawBase, ref string) {
		base, err := url.Parse(rawBase)
		if err != nil {
			return
		}
		want, wantErr := base.Parse(ref)
		got, gotErr := resolveSubresource(base, ref)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("base %q ref %q: error %v, base.Parse error %v", rawBase, ref, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		parsed, _ := url.Parse(ref)
		if !isPlainAbsolute(parsed) {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("base %q ref %q: shortcut %#v, base.Parse %#v", rawBase, ref, got, want)
		}
		if got.String() != want.String() {
			t.Fatalf("base %q ref %q: shortcut %q, base.Parse %q", rawBase, ref, got, want)
		}
	})
}
