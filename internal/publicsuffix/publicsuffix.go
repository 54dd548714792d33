// Package publicsuffix implements effective-TLD-plus-one (eTLD+1)
// computation over an embedded subset of the public suffix list.
//
// The paper classifies cookies as first- or third-party by comparing
// the registrable domain of the cookie with that of the visited site
// (the same rule OpenWPM applies). A full Mozilla PSL import would be
// thousands of entries; we embed the subset that covers every TLD the
// study (and our synthetic web) touches, including multi-label suffixes
// such as co.uk and com.br, so the matching logic is exercised
// identically.
//
// Every cookie of every measured page is labelled through here, so the
// lookups walk label boundaries in place. The strings ETLDPlusOne
// returns are substrings of the normalized input, which is the input
// itself when lower-casing leaves it unchanged (no upper-case letters,
// no invalid UTF-8) and it is port-free and trimmed: they alias it
// rather than copy it. A caller that keeps a result beyond a large
// input's lifetime should strings.Clone it.
package publicsuffix

import (
	"fmt"
	"strings"
	"unicode"
)

// suffixes is the embedded public-suffix subset. Keys are complete
// public suffixes; eTLD+1 is the suffix plus one label.
var suffixes = map[string]bool{
	// Generic TLDs.
	"com": true, "net": true, "org": true, "info": true, "biz": true,
	"news": true, "club": true, "online": true, "site": true, "app": true,
	"dev": true, "io": true, "blog": true, "shop": true, "media": true,
	// RFC 2606 / RFC 6761 reserved — the synthetic web lives here.
	"example": true, "test": true, "invalid": true, "localhost": true,
	// Country-code TLDs relevant to the study's vantage points and
	// detected cookiewalls.
	"de": true, "at": true, "ch": true, "fr": true, "it": true, "es": true,
	"se": true, "nl": true, "dk": true, "be": true, "pl": true, "pt": true,
	"us": true, "in": true, "br": true, "za": true, "au": true, "cn": true,
	"uk": true, "eu": true, "li": true, "lu": true,
	// Multi-label public suffixes.
	"co.uk": true, "org.uk": true, "ac.uk": true, "gov.uk": true,
	"com.au": true, "net.au": true, "org.au": true,
	"com.br": true, "net.br": true, "org.br": true,
	"co.za": true, "org.za": true, "web.za": true,
	"co.in": true, "org.in": true, "net.in": true, "ac.in": true,
	"com.cn": true, "net.cn": true, "org.cn": true,
}

// IsSuffix reports whether s (a lower-case domain without trailing dot)
// is a known public suffix.
func IsSuffix(s string) bool { return suffixes[s] }

// publicSuffix returns the longest known public suffix of the
// normalized domain d, and true when one was found. Unknown
// single-label TLDs are treated as suffixes so that eTLD+1 still
// behaves sensibly on unlisted TLDs. The candidates, longest first, are
// the tails of d after each dot.
func publicSuffix(d string) (string, bool) {
	if d == "" {
		return "", false
	}
	s := d
	for !suffixes[s] {
		i := strings.IndexByte(s, '.')
		if i < 0 {
			// Fallback: the final label acts as an (unlisted) suffix.
			return s, false
		}
		s = s[i+1:]
	}
	return s, true
}

// ETLDPlusOne returns the registrable domain (public suffix plus one
// label) for the given host. It returns an error when the host IS a
// public suffix (no registrable part) or is empty.
func ETLDPlusOne(host string) (string, error) {
	d := normalize(host)
	if d == "" {
		return "", fmt.Errorf("publicsuffix: empty host")
	}
	e, ok := etldPlusOne(d)
	if !ok {
		return "", fmt.Errorf("publicsuffix: %q is a public suffix", host)
	}
	return e, nil
}

// etldPlusOne is ETLDPlusOne on a normalized domain; ok is false when d
// is empty or itself a public suffix. The suffix is a tail of d that
// follows a dot, so the registrable domain is the tail that starts at
// the label before it.
func etldPlusOne(d string) (string, bool) {
	suffix, _ := publicSuffix(d)
	if len(suffix) == len(d) {
		return "", false
	}
	rest := d[:len(d)-len(suffix)-1]
	return d[strings.LastIndexByte(rest, '.')+1:], true
}

// SameSite reports whether two hosts share a registrable domain, i.e.
// whether a cookie from one is first-party on the other.
func SameSite(a, b string) bool {
	na, nb := normalize(a), normalize(b)
	ea, okA := etldPlusOne(na)
	eb, okB := etldPlusOne(nb)
	if !okA || !okB {
		return na == nb
	}
	return ea == eb
}

// normalize lower-cases host, strips its port, then trims surrounding
// whitespace and trailing dots. The port goes first, so the root dot of
// "example.com.:443" is trimmed too, and the trims run to a fixed point,
// so normalize is idempotent. It allocates only when lower-casing
// changes host, as on upper-case letters or invalid UTF-8 (which
// strings.ToLower replaces with U+FFFD).
func normalize(host string) string {
	h := strings.ToLower(host)
	if i := strings.IndexByte(h, ':'); i >= 0 {
		h = h[:i] // strip port
	}
	return strings.TrimLeftFunc(strings.TrimRightFunc(h, isSpaceOrDot), unicode.IsSpace)
}

func isSpaceOrDot(r rune) bool { return r == '.' || unicode.IsSpace(r) }
