package webfarm

import (
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// FuzzFormValue checks formValue against what it replaced, ParseForm
// and PostForm.Get, for every Content-Type, body and URL query: the
// same verdict on whether the form parses and, when it does, the same
// value for the consent and SMP-login keys.
func FuzzFormValue(f *testing.F) {
	const form = "application/x-www-form-urlencoded"
	for _, seed := range [][3]string{
		{form, "choice=reject", ""},
		{form, "choice=accept", ""},
		{form, "token=a+b%2Bc%41&choice=re%6Aect", ""},
		{form, "choice=accept&choice=reject", ""},
		{form, "=x&&choice&token=", ""},
		{form, "choice=%zz", ""},
		{form, "choice=reject%4", ""},
		{form, "choice=reject;x=1", ""},
		{form, strings.Repeat("x", formPeek-7) + "&choice=reject", ""},
		{form, strings.Repeat("x", formPeek) + "&choice=reject", ""},
		{form, "choice=reject", "a=%zz"},
		{form, "choice=reject", "choice=accept"},
		{form + "; charset=utf-8", "choice=reject", ""},
		{"Application/X-WWW-Form-Urlencoded", "choice=reject", ""},
		{form + ";;", "choice=reject", ""},
		{"multipart/form-data; boundary=x", "choice=reject", ""},
		{"text/plain", "choice=reject", ""},
		{"", "choice=reject", ""},
		{"", "", ""},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, ctype, body, query string) {
		for _, key := range []string{"choice", "token"} {
			req := func() *http.Request {
				r := &http.Request{
					Method: http.MethodPost,
					URL:    &url.URL{Scheme: "https", Host: "site.example", Path: "/consent", RawQuery: query},
					Header: http.Header{},
					Body:   io.NopCloser(strings.NewReader(body)),
				}
				if ctype != "" {
					r.Header.Set("Content-Type", ctype)
				}
				return r
			}
			got, ok := formValue(req(), key)
			want := req()
			err := want.ParseForm()
			if ok != (err == nil) {
				t.Fatalf("%q %q ?%q key %q: formValue ok = %v, ParseForm error %v", ctype, body, query, key, ok, err)
			}
			if ok && string(got) != want.PostForm.Get(key) {
				t.Fatalf("%q %q ?%q key %q: formValue = %q, PostForm.Get = %q", ctype, body, query, key, got, want.PostForm.Get(key))
			}
		}
	})
}
