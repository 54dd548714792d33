// Package adblock implements an Adblock-Plus-syntax filter engine and
// the curated filter lists used for the §4.5 bypass experiment, where
// uBlock Origin with the (normally disabled) Annoyances lists blocks
// 70% of cookiewalls.
//
// Supported rule grammar (the subset that Easylist-style cookiewall
// rules actually use — including the patterns quoted in the paper's
// footnote 7, e.g. *cdn.opencmp.net/*, *consentmanager.net/*):
//
//	||domain^          — domain anchor: the URL's host is domain or a
//	                     subdomain of it
//	*substring*        — wildcard substring match on the full URL
//	plain/path         — substring match
//	@@||domain^        — exception rule (never block)
//	! comment          — ignored
//	##selector         — cosmetic (element-hiding) rule; collected but
//	                     applied by the browser, not the network layer
//	domain##selector   — cosmetic rule restricted to one site
//
// The engine answers ShouldBlock(pageHost, resourceURL) for network
// requests and CompiledCosmetics(pageHost) for element hiding.
package adblock

import (
	"strings"

	"cookiewalk/internal/dom"
	"cookiewalk/internal/publicsuffix"
	"cookiewalk/internal/xrand"
)

// Rule is one parsed network rule.
type Rule struct {
	Raw string
	// exception marks @@ rules.
	exception bool
	// domainAnchor is set for ||domain^ rules.
	domainAnchor string
	// substrings are the ordered fragments of a wildcard pattern; a URL
	// matches when all fragments occur left-to-right.
	substrings []string
}

// CosmeticRule hides elements matching Selector on matching sites.
type CosmeticRule struct {
	Raw string
	// Domain restricts the rule to one registrable domain; empty means
	// all sites.
	Domain   string
	Selector string
	// compiled is the parsed selector, built once at engine
	// construction; nil when the selector does not compile (such rules
	// are skipped at apply time, like real blockers do).
	compiled *dom.Selector
}

// Engine evaluates filter rules. Build one with NewEngine; it is
// immutable afterwards and safe for concurrent use.
type Engine struct {
	block      []Rule
	exceptions []Rule
	cosmetic   []CosmeticRule
	// globalCosmetics is the precompiled selector list of the
	// unscoped cosmetic rules, in rule order — the no-allocation answer
	// for the (overwhelmingly common) hosts with no scoped rules.
	globalCosmetics []*dom.Selector
	// hasScopedCosmetics records whether any rule is domain-scoped.
	hasScopedCosmetics bool
	// fp is the content hash of the engine's lists, computed once at
	// construction (see Fingerprint).
	fp uint64
}

// NewEngine parses filter-list text (one rule per line) into an engine.
// Unparseable lines are skipped, like real ad blockers do.
func NewEngine(lists ...string) *Engine {
	e := &Engine{fp: xrand.Hash64("adblock.Engine")}
	for _, list := range lists {
		e.fp = xrand.Mix64(e.fp, xrand.Hash64(list))
		for _, line := range strings.Split(list, "\n") {
			e.addLine(strings.TrimSpace(line))
		}
	}
	return e
}

// Fingerprint returns a stable content hash of the engine's filter
// lists (order-sensitive, computed once at construction). Two engines
// built from identical list text share a fingerprint even across
// separate NewEngine calls — which lets page-analysis memoization key
// on blocker CONFIGURATION rather than engine identity.
func (e *Engine) Fingerprint() uint64 { return e.fp }

func (e *Engine) addLine(line string) {
	if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "[") {
		return
	}
	// Cosmetic rules.
	if idx := strings.Index(line, "##"); idx >= 0 {
		cr := CosmeticRule{
			Raw:      line,
			Domain:   strings.ToLower(strings.TrimSpace(line[:idx])),
			Selector: strings.TrimSpace(line[idx+2:]),
		}
		// Compile once here instead of on every page load.
		cr.compiled, _ = dom.CompileSelector(cr.Selector)
		e.cosmetic = append(e.cosmetic, cr)
		if cr.Domain == "" {
			if cr.compiled != nil {
				e.globalCosmetics = append(e.globalCosmetics, cr.compiled)
			}
		} else {
			e.hasScopedCosmetics = true
		}
		return
	}
	rule := Rule{Raw: line}
	body := line
	if strings.HasPrefix(body, "@@") {
		rule.exception = true
		body = body[2:]
	}
	// Strip option suffix ($third-party etc.) — we block regardless of
	// options, which is conservative and matches how the cookiewall
	// rules behave in practice.
	if idx := strings.LastIndex(body, "$"); idx > 0 {
		body = body[:idx]
	}
	if strings.HasPrefix(body, "||") {
		d := strings.TrimPrefix(body, "||")
		d = strings.TrimSuffix(d, "^")
		d = strings.TrimSuffix(d, "/")
		if d == "" {
			return
		}
		if strings.ContainsAny(d, "/*") {
			// ||domain/path anchors degrade to substring matching:
			// close enough for the path-scoped exception rules in use.
			rule.substrings = splitWildcards(d)
		} else {
			rule.domainAnchor = strings.ToLower(d)
		}
	} else {
		frags := splitWildcards(body)
		if len(frags) == 0 {
			return
		}
		rule.substrings = frags
	}
	if rule.exception {
		e.exceptions = append(e.exceptions, rule)
	} else {
		e.block = append(e.block, rule)
	}
}

func splitWildcards(pattern string) []string {
	var frags []string
	for _, f := range strings.Split(pattern, "*") {
		if f != "" {
			frags = append(frags, strings.ToLower(f))
		}
	}
	return frags
}

// matches reports whether the rule matches the resource URL (lowercase).
func (r *Rule) matches(host, url string) bool {
	if r.domainAnchor != "" {
		return host == r.domainAnchor || strings.HasSuffix(host, "."+r.domainAnchor)
	}
	pos := 0
	for _, frag := range r.substrings {
		idx := strings.Index(url[pos:], frag)
		if idx < 0 {
			return false
		}
		pos += idx + len(frag)
	}
	return true
}

// ShouldBlock reports whether a request from a page on pageHost to
// resourceURL must be blocked. Exception rules override block rules.
func (e *Engine) ShouldBlock(pageHost, resourceURL string) bool {
	url := strings.ToLower(resourceURL)
	host := hostOf(url)
	blocked := false
	for i := range e.block {
		if e.block[i].matches(host, url) {
			blocked = true
			break
		}
	}
	if !blocked {
		return false
	}
	for i := range e.exceptions {
		if e.exceptions[i].matches(host, url) {
			return false
		}
	}
	return true
}

// CompiledCosmetics returns the precompiled element-hiding selectors
// that apply on pageHost, in rule order: global rules plus rules scoped
// to the page's host or registrable domain, minus any whose selector
// does not compile. Hosts without scoped rules share one precompiled
// slice; callers must not mutate the result.
func (e *Engine) CompiledCosmetics(pageHost string) []*dom.Selector {
	if !e.hasScopedCosmetics {
		return e.globalCosmetics
	}
	site, _ := publicsuffix.ETLDPlusOne(pageHost)
	host := strings.ToLower(pageHost)
	scoped := false
	for i := range e.cosmetic {
		if d := e.cosmetic[i].Domain; d != "" && (d == host || d == site) {
			scoped = true
			break
		}
	}
	if !scoped {
		return e.globalCosmetics
	}
	out := make([]*dom.Selector, 0, len(e.globalCosmetics)+4)
	for i := range e.cosmetic {
		c := &e.cosmetic[i]
		if c.compiled == nil {
			continue
		}
		if c.Domain == "" || c.Domain == host || c.Domain == site {
			out = append(out, c.compiled)
		}
	}
	return out
}

func hostOf(url string) string {
	s := url
	if idx := strings.Index(s, "://"); idx >= 0 {
		s = s[idx+3:]
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '/', '?', '#', ':':
			return s[:i]
		}
	}
	return s
}
