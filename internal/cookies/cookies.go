// Package cookies implements the cookie model of the study: an
// RFC 6265-subset cookie jar for the emulated browser, and the
// first-party / third-party / tracking classification used in §4.3 and
// §4.4 of the paper.
//
// Classification rules (identical to the paper's):
//
//   - a cookie is FIRST-PARTY when its domain shares a registrable
//     domain (eTLD+1) with the visited page, THIRD-PARTY otherwise;
//   - a cookie is TRACKING when its domain matches an entry of the
//     justdomains-style blocklist (package trackdb) — matching the
//     domain itself or any parent registrable domain.
package cookies

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"cookiewalk/internal/publicsuffix"
)

// Cookie is a single stored cookie.
type Cookie struct {
	Name  string
	Value string
	// Domain is the cookie's domain attribute, lower-case, without a
	// leading dot. HostOnly marks cookies that had no Domain attribute.
	Domain   string
	Path     string
	Expires  time.Time // zero means session cookie
	Secure   bool
	HTTPOnly bool
	HostOnly bool
}

// Expired reports whether the cookie is expired at now.
func (c *Cookie) Expired(now time.Time) bool {
	return !c.Expires.IsZero() && !now.Before(c.Expires)
}

// parseSetCookie parses one Set-Cookie header value received from
// requestHost. ok is false for malformed or rejected cookies (empty
// name, domain not matching the request host). The cookie comes back
// by value: the jar stores values, so its header-ingest path never
// allocates a per-cookie box. Segments are walked with IndexByte and
// attribute names matched case-insensitively in place — every page
// view of every crawl parses a handful of these headers, so the old
// Split/SplitN/ToLower allocations added up.
func parseSetCookie(header, requestHost string, now time.Time) (Cookie, bool) {
	seg, rest, _ := strings.Cut(header, ";")
	eq := strings.IndexByte(seg, '=')
	if eq < 0 {
		return Cookie{}, false
	}
	name := strings.TrimSpace(seg[:eq])
	if name == "" {
		return Cookie{}, false
	}
	c := Cookie{
		Name:     name,
		Value:    strings.TrimSpace(seg[eq+1:]),
		Domain:   canonicalHost(requestHost),
		Path:     "/",
		HostOnly: true,
	}
	for rest != "" {
		var attr string
		attr, rest, _ = strings.Cut(rest, ";")
		key, val := attr, ""
		if eq := strings.IndexByte(attr, '='); eq >= 0 {
			key, val = attr[:eq], strings.TrimSpace(attr[eq+1:])
		}
		key = strings.TrimSpace(key)
		switch {
		case strings.EqualFold(key, "domain"):
			d := strings.TrimPrefix(strings.ToLower(val), ".")
			if d == "" {
				continue
			}
			// RFC 6265 §5.3: the request host must domain-match the
			// attribute, and the attribute must not be a public suffix.
			if !domainMatch(canonicalHost(requestHost), d) || publicsuffix.IsSuffix(d) {
				return Cookie{}, false
			}
			c.Domain = d
			c.HostOnly = false
		case strings.EqualFold(key, "path"):
			if strings.HasPrefix(val, "/") {
				c.Path = val
			}
		case strings.EqualFold(key, "max-age"):
			if secs, err := strconv.Atoi(val); err == nil {
				if secs <= 0 {
					c.Expires = now.Add(-time.Second)
				} else {
					c.Expires = now.Add(time.Duration(secs) * time.Second)
				}
			}
		case strings.EqualFold(key, "expires"):
			if c.Expires.IsZero() { // Max-Age wins over Expires
				if t, err := time.Parse(time.RFC1123, val); err == nil {
					c.Expires = t
				}
			}
		case strings.EqualFold(key, "secure"):
			c.Secure = true
		case strings.EqualFold(key, "httponly"):
			c.HTTPOnly = true
		}
	}
	return c, true
}

// domainMatch implements RFC 6265 §5.1.3: host domain-matches domain
// when they are equal or host ends with "." + domain.
func domainMatch(host, domain string) bool {
	if host == domain {
		return true
	}
	return strings.HasSuffix(host, "."+domain)
}

func canonicalHost(h string) string {
	h = strings.ToLower(strings.TrimSpace(h))
	if i := strings.IndexByte(h, ':'); i >= 0 {
		h = h[:i]
	}
	return strings.TrimSuffix(h, ".")
}

// defaultPath implements RFC 6265 §5.1.4.
func pathMatch(requestPath, cookiePath string) bool {
	if requestPath == cookiePath {
		return true
	}
	if !strings.HasPrefix(requestPath, cookiePath) {
		return false
	}
	return strings.HasSuffix(cookiePath, "/") ||
		requestPath[len(cookiePath)] == '/'
}

// Jar stores cookies for the emulated browser. It is safe for
// concurrent use. Expiry is evaluated against the Now function, which
// defaults to time.Now but is fixed in tests for determinism.
//
// Storage is by value under a struct key: the per-cookie box and the
// domain+";"+path+";"+name key concatenation used to cost two
// allocations per Set-Cookie header across millions of page views.
type Jar struct {
	mu      sync.Mutex
	cookies map[cookieKey]Cookie
	// scratch is the reusable candidate buffer behind
	// AppendCookieHeader; guarded by mu.
	scratch []Cookie
	Now     func() time.Time
}

// cookieKey identifies a cookie per RFC 6265 storage semantics.
type cookieKey struct {
	domain, path, name string
}

// NewJar returns an empty jar.
func NewJar() *Jar {
	return &Jar{cookies: make(map[cookieKey]Cookie), Now: time.Now}
}

func key(c *Cookie) cookieKey { return cookieKey{c.Domain, c.Path, c.Name} }

// SetFromHeaders stores cookies from Set-Cookie header values received
// in a response from host. Malformed cookies are dropped; expired
// cookies delete existing entries (the RFC deletion idiom).
func (j *Jar) SetFromHeaders(host string, headers []string) {
	now := j.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, h := range headers {
		c, ok := parseSetCookie(h, host, now)
		if !ok {
			continue
		}
		if c.Expired(now) {
			delete(j.cookies, key(&c))
			continue
		}
		j.cookies[key(&c)] = c
	}
}

// sendable reports whether c would be sent on a request to (h, path,
// secure) at now; h must already be canonical.
func (c *Cookie) sendable(h, path string, secure bool, now time.Time) bool {
	if c.Expired(now) {
		return false
	}
	if c.Secure && !secure {
		return false
	}
	if c.HostOnly {
		if h != c.Domain {
			return false
		}
	} else if !domainMatch(h, c.Domain) {
		return false
	}
	return pathMatch(path, c.Path)
}

// AppendCookieHeader appends the Cookie header value for a request to
// host+path over a connection that is secure when secure is true —
// "name1=v1; name2=v2", ordered by longest path, then name, then domain
// so the header is deterministic — onto dst and returns it. An empty
// jar (the stateless landscape crawl's steady state) and a reused dst
// make the whole call allocation-free; the emulated browser's request
// scratch path builds its Cookie header here instead of materializing
// a []*Cookie per request.
func (j *Jar) AppendCookieHeader(dst []byte, host, path string, secure bool) []byte {
	if path == "" {
		path = "/"
	}
	h := canonicalHost(host)
	now := j.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.cookies) == 0 {
		return dst
	}
	j.scratch = j.scratch[:0]
	for _, c := range j.cookies {
		if c.sendable(h, path, secure, now) {
			j.scratch = append(j.scratch, c)
		}
	}
	// slices.SortFunc, not sort.Slice: the reflection-based swapper
	// would allocate on every cookied request.
	slices.SortFunc(j.scratch, func(a, b Cookie) int {
		if d := len(b.Path) - len(a.Path); d != 0 {
			return d
		}
		if c := strings.Compare(a.Name, b.Name); c != 0 {
			return c
		}
		return strings.Compare(a.Domain, b.Domain)
	})
	for i := range j.scratch {
		if i > 0 {
			dst = append(dst, "; "...)
		}
		dst = append(dst, j.scratch[i].Name...)
		dst = append(dst, '=')
		dst = append(dst, j.scratch[i].Value...)
	}
	return dst
}

// Clear removes all cookies — the paper's §5 note that revoking a
// cookiewall "accept" requires deleting cookies and local storage.
func (j *Jar) Clear() {
	j.mu.Lock()
	defer j.mu.Unlock()
	clear(j.cookies)
}

// Class is the party classification of a cookie relative to a page.
type Class int

const (
	// FirstParty cookies share the page's registrable domain.
	FirstParty Class = iota
	// ThirdParty cookies come from another registrable domain.
	ThirdParty
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == FirstParty {
		return "first-party"
	}
	return "third-party"
}

// Classify returns the party class of cookie c for a page hosted at
// pageHost.
func Classify(c *Cookie, pageHost string) Class {
	if publicsuffix.SameSite(c.Domain, pageHost) {
		return FirstParty
	}
	return ThirdParty
}

// Tally is the per-page cookie count triple reported in Figures 4/5.
type Tally struct {
	FirstParty int
	ThirdParty int
	Tracking   int
}

// Count classifies every live cookie in the jar against pageHost.
// isTracking decides blocklist membership (normally trackdb.IsTracking);
// it runs with the jar locked, so it must not call back into j. A tally
// does not depend on order, so Count walks the jar map in place instead
// of copying and sorting All — every cookie-measurement visit ends here.
func Count(j *Jar, pageHost string, isTracking func(domain string) bool) Tally {
	now := j.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	var t Tally
	for _, c := range j.cookies {
		if c.Expired(now) {
			continue
		}
		if Classify(&c, pageHost) == FirstParty {
			t.FirstParty++
		} else {
			t.ThirdParty++
		}
		if isTracking != nil && isTracking(c.Domain) {
			t.Tracking++
		}
	}
	return t
}
