// Package smp models Subscription Management Platforms (§4.4): services
// such as contentpass and freechoice that host accept-or-pay cookiewalls
// for partner websites. One subscription (2.99 €/month in the paper)
// unlocks ad- and tracking-free access to every partner site.
//
// The synthetic platforms live under the reserved .example TLD
// (contentpass.example, freechoice.example) and deliver their cookiewall
// markup from CDN subdomains — exactly the deployment shape that makes
// 70% of cookiewalls blockable by domain filter rules in §4.5.
package smp

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"cookiewalk/internal/xrand"
)

// Platform describes one Subscription Management Platform.
type Platform struct {
	// Name is the platform identifier ("contentpass", "freechoice").
	Name string
	// Domain is the platform's apex domain.
	Domain string
	// CDNDomain serves the cookiewall script/markup on partner pages.
	CDNDomain string
	// MonthlyPriceEUR is the all-partner subscription price.
	MonthlyPriceEUR float64
}

// Platforms returns the two SMPs of the study, contentpass-like first.
func Platforms() []Platform {
	return []Platform{
		{
			Name:            "contentpass",
			Domain:          "contentpass.example",
			CDNDomain:       "cdn.contentpass.example",
			MonthlyPriceEUR: 2.99,
		},
		{
			Name:            "freechoice",
			Domain:          "freechoice.example",
			CDNDomain:       "cdn.freechoice.example",
			MonthlyPriceEUR: 2.99,
		},
	}
}

// PlatformByName returns the named platform.
func PlatformByName(name string) (Platform, bool) {
	for _, p := range Platforms() {
		if p.Name == name {
			return p, true
		}
	}
	return Platform{}, false
}

// Account is a paid subscription account on a platform.
type Account struct {
	Platform string
	Email    string
	// Token authenticates the subscriber on partner sites; it is
	// deterministic so crawls are reproducible.
	Token string
}

// Registry tracks partner sites and subscription accounts. It is safe
// for concurrent use (the farm consults it on every request).
type Registry struct {
	mu       sync.RWMutex
	partners map[string]string  // site domain -> platform name
	accounts map[string]Account // token -> account
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		partners: make(map[string]string),
		accounts: make(map[string]Account),
	}
}

// RegisterPartner records that site's cookiewall is hosted by platform.
func (r *Registry) RegisterPartner(site, platform string) error {
	if _, ok := PlatformByName(platform); !ok {
		return fmt.Errorf("smp: unknown platform %q", platform)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.partners[strings.ToLower(site)] = platform
	return nil
}

// PlatformOf returns the platform hosting site's cookiewall, if any.
func (r *Registry) PlatformOf(site string) (Platform, bool) {
	r.mu.RLock()
	name, ok := r.partners[strings.ToLower(site)]
	r.mu.RUnlock()
	if !ok {
		return Platform{}, false
	}
	return PlatformByName(name)
}

// Partners returns the sorted partner sites of a platform. The paper
// reports 219 partners for contentpass and 167 for freechoice.
func (r *Registry) Partners(platform string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for site, p := range r.partners {
		if p == platform {
			out = append(out, site)
		}
	}
	sort.Strings(out)
	return out
}

// PartnerCount returns the number of partners of a platform.
func (r *Registry) PartnerCount(platform string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, p := range r.partners {
		if p == platform {
			n++
		}
	}
	return n
}

// Subscribe creates (or returns) a subscription account for email on
// platform — the §4.4 step "we create a contentpass account and buy a
// one-month subscription". The token is a stable function of platform
// and email.
func (r *Registry) Subscribe(platform, email string) (Account, error) {
	if _, ok := PlatformByName(platform); !ok {
		return Account{}, fmt.Errorf("smp: unknown platform %q", platform)
	}
	token := fmt.Sprintf("%s-%016x", platform, xrand.Hash64(platform+"|"+email))
	acct := Account{Platform: platform, Email: email, Token: token}
	r.mu.Lock()
	r.accounts[token] = acct
	r.mu.Unlock()
	return acct, nil
}

// ValidateToken checks a subscriber token presented on a partner site
// of the given platform.
func (r *Registry) ValidateToken(platform, token string) bool {
	r.mu.RLock()
	acct, ok := r.accounts[token]
	r.mu.RUnlock()
	return ok && acct.Platform == platform
}

// SubscriptionCookieName is the first-party cookie a partner site sets
// after a successful subscriber login.
const SubscriptionCookieName = "smp_subscription"
