package fault

import (
	"context"
	"net/http"
	"time"

	"cookiewalk/internal/browser"
	"cookiewalk/internal/xrand"
)

// VisitProfile sets per-mille probabilities for each visit fault kind.
// The zero VisitProfile injects nothing.
type VisitProfile struct {
	// Timeout‰ of requests fail with a transient timeout error.
	Timeout int
	// Reset‰ fail with a transient connection-reset error.
	Reset int
	// Err503‰ return a synthesized 503 response.
	Err503 int
	// Truncate‰ tear the response body mid-read (plain path) or fail
	// the body transfer outright (fast path) with a transient error.
	Truncate int
	// Stall‰ hang for StallFor (honoring the request context) and then
	// fail transiently — the slow-then-dead connection.
	Stall int
	// StallFor is how long a stall hangs (default 10ms; tests shrink it).
	StallFor time.Duration
	// MaxPerRequest caps how many leading retry attempts of one request
	// may be faulted: attempts >= MaxPerRequest are always clean, so a
	// retry budget of at least MaxPerRequest guarantees every request
	// eventually succeeds. 0 means the default of 2; negative means NO
	// cap — every attempt of an eligible request faults, which is how
	// tests build hosts that are down for good.
	MaxPerRequest int
}

func (p VisitProfile) pick(roll uint64) kind {
	return pick(roll, rate{timeout, p.Timeout}, rate{reset, p.Reset}, rate{err503, p.Err503},
		rate{truncate, p.Truncate}, rate{stall, p.Stall})
}

func (p VisitProfile) maxPerRequest() int {
	switch {
	case p.MaxPerRequest > 0:
		return p.MaxPerRequest
	case p.MaxPerRequest < 0:
		return int(^uint(0) >> 1) // no cap
	}
	return 2
}

// Counters are running totals of injected visit faults by kind.
type Counters struct {
	Timeouts, Resets, Err503s, Truncates, Stalls uint64
}

// Total sums all kinds.
func (c Counters) Total() uint64 {
	return c.Timeouts + c.Resets + c.Err503s + c.Truncates + c.Stalls
}

// VisitTransport injects visit faults in front of a plain
// http.RoundTripper. Use Wrap to construct one — it picks the seam
// matching the base.
//
// Each decision is a pure function of (Seed, method + URL, retry
// attempt): the browser threads each request's attempt ordinal through
// the request context (browser.WithAttempt), so the schedule is immune
// to goroutine interleaving, worker counts and shard geometry.
type VisitTransport struct {
	// Base is the real transport.
	Base http.RoundTripper
	// Seed drives the fault schedule deterministically.
	Seed uint64
	// Profile sets the fault mix.
	Profile VisitProfile
	// Hosts, when non-nil, restricts injection to hosts it returns
	// true for — composable: wrap an always-fail injector scoped to
	// one victim host around a background-noise injector for the rest.
	Hosts func(host string) bool

	tally
}

// Injected returns the fault totals so far.
func (t *VisitTransport) Injected() Counters {
	return Counters{
		Timeouts:  t.n[timeout].Load(),
		Resets:    t.n[reset].Load(),
		Err503s:   t.n[err503].Load(),
		Truncates: t.n[truncate].Load(),
		Stalls:    t.n[stall].Load(),
	}
}

// decide returns the fault kind for this (request, attempt).
func (t *VisitTransport) decide(req *http.Request) kind {
	if t.Hosts != nil && !t.Hosts(req.URL.Hostname()) {
		return clean
	}
	attempt := browser.AttemptFromContext(req.Context())
	if attempt >= t.Profile.maxPerRequest() {
		return clean
	}
	key := xrand.Hash64(req.Method + " " + req.URL.String())
	return t.Profile.pick(xrand.Mix64(xrand.Mix64(t.Seed, key), uint64(attempt)) % 1000)
}

// inject decides and counts req's fault and returns the error for the
// kinds that fail a request the same way on both seams — a stall after
// hanging for the profile's stall duration.
func (t *VisitTransport) inject(req *http.Request) (kind, error) {
	k := t.decide(req)
	if k == clean {
		return clean, nil
	}
	t.add(k, nil, "")
	switch k {
	case stall:
		d := t.Profile.StallFor
		if d <= 0 {
			d = 10 * time.Millisecond
		}
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-req.Context().Done():
			return k, context.Cause(req.Context())
		}
		return k, &faultError{kind: k, url: req.URL.String()}
	case timeout, reset:
		return k, &faultError{kind: k, url: req.URL.String()}
	}
	return k, nil
}

// RoundTrip implements http.RoundTripper (the compatibility seam).
func (t *VisitTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	k, err := t.inject(req)
	switch {
	case err != nil:
		return nil, err
	case k == err503:
		return resp503(req), nil
	case k == truncate:
		resp, err := t.Base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		// Deliver a real prefix, then tear the connection: readers see
		// partial bytes followed by a transient error, never a clean EOF
		// — exercising exactly the poisoning path the browser must
		// refuse to fingerprint.
		resp.Body = &tornBody{rc: resp.Body, remaining: 1024, err: &faultError{kind: k, url: req.URL.String()}}
		resp.ContentLength = -1
		return resp, nil
	}
	return t.Base.RoundTrip(req)
}

// bodyRoundTripper mirrors the browser's structural fast-path probe.
type bodyRoundTripper interface {
	RoundTripBody(req *http.Request) (status int, header http.Header, body string, fp uint64, err error)
}

// bodyTransport is a VisitTransport whose base implements the zero-copy
// RoundTripBody seam; it injects the same faults there so the browser
// keeps its fast path under chaos.
type bodyTransport struct {
	*VisitTransport
	base bodyRoundTripper
}

// RoundTripBody implements the fast-path seam.
func (t *bodyTransport) RoundTripBody(req *http.Request) (status int, header http.Header, body string, fp uint64, err error) {
	k, err := t.inject(req)
	switch {
	case err != nil:
		return 0, nil, "", 0, err
	case k == err503:
		return http.StatusServiceUnavailable, http.Header{}, text503 + "\n", 0, nil
	case k == truncate:
		// The fast path hands bodies over whole, so a torn transfer is
		// an error with no bytes: there is no partial string to leak
		// into fingerprinting.
		return 0, nil, "", 0, &faultError{kind: k, url: req.URL.String()}
	}
	return t.base.RoundTripBody(req)
}

// Wrap puts a visit fault injector in front of base, picking the seam
// that matches: a base with the RoundTripBody fast path gets a wrapper
// that preserves it. The returned *VisitTransport carries the counters
// and the Hosts filter (and is the object the RoundTripper wraps).
func Wrap(base http.RoundTripper, seed uint64, profile VisitProfile) (http.RoundTripper, *VisitTransport) {
	t := &VisitTransport{Base: base, Seed: seed, Profile: profile}
	if bt, ok := base.(bodyRoundTripper); ok {
		return &bodyTransport{VisitTransport: t, base: bt}, t
	}
	return t, t
}
