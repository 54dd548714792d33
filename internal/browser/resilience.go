package browser

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"time"

	"cookiewalk/internal/xrand"
)

// Resilience configures the browser's fault tolerance for flaky
// transports: bounded per-request retries with seeded decorrelated
// jitter backoff (xrand.Backoff, the fleet client's schedule), an
// optional per-host circuit breaker, and a context that carries the
// per-visit deadline into every request. Every request takes the same
// path whatever is armed: the same reusable request, the same retry
// loop. The zero value makes
// that loop a single attempt whose outcome — response or error —
// returns verbatim, and no field costs an allocation on a request that
// succeeds at its first attempt.
type Resilience struct {
	// Ctx, when non-nil, is attached to every outgoing request — the
	// per-visit deadline and cancellation reach the transport (real
	// network transports honor it; the fault injector's stalls do too).
	Ctx context.Context
	// Retries bounds retry attempts per request after a transient
	// failure (0 disables retrying).
	Retries int
	// Backoff is the initial retry delay, doubled per attempt and
	// capped at 2s (default 100ms). Each delay is jittered into
	// [base/2, base] from Seed — see xrand.Backoff.
	Backoff time.Duration
	// Seed drives the backoff jitter deterministically.
	Seed uint64
	// Gate, when non-nil, is consulted once per logical request for
	// breaker admission and settled with exactly one Report or Abandon
	// on every exit path.
	Gate HostGate
	// Meter, when non-nil, receives retry/breaker events for campaign
	// accounting.
	Meter Meter
	// Sleep overrides how retry delays are waited out (tests inject a
	// fake sleeper). nil means a real timer honoring Ctx.
	Sleep func(ctx context.Context, d time.Duration) error
}

// HostGate is the per-host circuit breaker the browser consults
// around each logical request. Matching is structural so this package
// needs no import of internal/hostgate. Admit checks the breaker once
// per request — it either admits (possibly claiming the host's single
// half-open probe slot) or fails fast with a circuit-open error — and
// every admitted request is settled with exactly one terminal call:
// Report when its final post-retry outcome is a verdict on transport
// health (returning true when the report tripped a breaker open),
// Abandon when it is not — so a claimed probe slot can never outlive
// the request that holds it.
type HostGate interface {
	Admit(host string) error
	Report(host string, failed bool) bool
	Abandon(host string)
}

// Meter receives resilience events. Calls come from the goroutine
// running the request; a campaign gives each of its workers its own
// Meter, so one Meter sees one visit at a time.
type Meter interface {
	// VisitRetry counts one retried request attempt.
	VisitRetry()
	// BreakerTrip counts one breaker open transition.
	BreakerTrip()
	// BreakerDenial counts one request refused by an open breaker.
	BreakerDenial()
}

// IsTransient reports whether err is marked retryable by the
// transport — structurally, via an `interface{ Transient() bool }`
// anywhere in its wrap chain. The fault injector and real network
// transports mark timeouts, resets, torn bodies and stalls this way;
// definitive failures (webfarm's "no such host", bad URLs, HTTP
// status codes) are not marked and are never retried, which keeps a
// clean run's error strings byte-identical with resilience enabled.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// exhaustedError reports a request that burned its whole retry
// budget on transient failures. It stays transient-marked (the
// underlying cause was) so composition degradation detection and
// callers' classification see through it, and its text is
// deterministic — a pure function of the attempt budget and the last
// transport error.
type exhaustedError struct {
	url      string
	attempts int
	err      error
}

func (e *exhaustedError) Error() string {
	return fmt.Sprintf("browser: %s: giving up after %d attempts: %v", e.url, e.attempts, e.err)
}
func (e *exhaustedError) Unwrap() error   { return e.err }
func (e *exhaustedError) Transient() bool { return true }

// statusError is the retry loop's internal representation of a 5xx
// response: retryable while budget remains, and — with retries
// enabled — an error on exhaustion, so an injected 503 body can never
// masquerade as page content in the analysis memo.
type statusError struct {
	url    string
	status int
}

func (e *statusError) Error() string {
	return fmt.Sprintf("browser: %s returned status %d", e.url, e.status)
}
func (e *statusError) Transient() bool { return true }

// isCircuitOpen matches hostgate's fail-fast structurally.
func isCircuitOpen(err error) bool {
	var c interface{ CircuitOpen() bool }
	return errors.As(err, &c) && c.CircuitOpen()
}

// attemptKey threads the retry-attempt ordinal through the request
// context to the fault injector, which keys its fault schedule on
// (URL, attempt) — a pure function of the seed, so injected faults
// are immune to goroutine interleaving.
type attemptKey struct{}

// WithAttempt returns a context carrying a request retry-attempt
// ordinal (0 = first try).
func WithAttempt(ctx context.Context, attempt int) context.Context {
	return context.WithValue(ctx, attemptKey{}, attempt)
}

// AttemptFromContext extracts the retry-attempt ordinal stamped by
// WithAttempt, or 0.
func AttemptFromContext(ctx context.Context) int {
	if v, ok := ctx.Value(attemptKey{}).(int); ok {
		return v
	}
	return 0
}

func (r *Resilience) ctx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

func (r *Resilience) sleep(d time.Duration) error {
	if r.Sleep != nil {
		return r.Sleep(r.ctx(), d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-r.ctx().Done():
		return context.Cause(r.ctx())
	}
}

// doRequest performs one logical request under the Resilience policy:
// breaker admission once per request, then attemptRequest's bounded
// retry loop, then exactly one terminal gate call (Report or Abandon)
// on every exit path. Every request takes this one path; with the zero
// Resilience it is a single attempt whose outcome returns verbatim.
func (b *Browser) doRequest(method string, u *url.URL, form string, limit int) (response, error) {
	res := &b.Resilience
	host := u.Hostname()
	if res.Gate != nil {
		// Breaker admission is per logical request, not per attempt:
		// the breaker judges final outcomes, and a half-open probe slot
		// belongs to the whole request — an in-request retry re-checking
		// the breaker would collide with its own probe and deny the very
		// request it was admitted to perform. A fail-fast here is
		// deliberately NOT reported back — denials must not feed the
		// failure streak.
		if err := res.Gate.Admit(host); err != nil {
			if isCircuitOpen(err) && res.Meter != nil {
				res.Meter.BreakerDenial()
			}
			return response{}, err
		}
	}
	resp, err := b.attemptRequest(res, method, u, form, limit)
	if res.Gate != nil {
		// Settle the admission with exactly one terminal call. A final
		// success or a post-retry transient failure is the breaker's
		// signal; everything else — ctx cancellation (including a
		// transient fault overtaken by the visit deadline), errors that
		// are deterministic web content rather than transport weather —
		// abandons the admission, so a claimed probe slot is always
		// released and the breaker can never wedge past its cooldown.
		switch {
		case err == nil:
			res.Gate.Report(host, false)
		case IsTransient(err) && res.ctx().Err() == nil:
			if res.Gate.Report(host, true) && res.Meter != nil {
				res.Meter.BreakerTrip()
			}
		default:
			res.Gate.Abandon(host)
		}
	}
	return resp, err
}

// attemptRequest runs the bounded retry loop for one admitted request:
// a freshly assembled request per attempt, xrand.Backoff between
// attempts, and classification of each attempt's outcome. It never
// talks to the gate — doRequest settles the admission from its return
// value. Error text stringifies u only when an error is made, so a
// successful request never does.
func (b *Browser) attemptRequest(res *Resilience, method string, u *url.URL, form string, limit int) (response, error) {
	b.rtCalls++
	call := b.rtCalls
	ctx := res.ctx()
	var lastErr error
	for attempt := 0; ; attempt++ {
		actx := ctx
		if attempt > 0 {
			actx = WithAttempt(ctx, attempt)
		}
		resp, err := b.roundTrip(b.request(actx, method, u, form), limit)
		switch {
		case err == nil && (resp.status < 500 || res.Retries <= 0):
			// Success — including 4xx (deterministic web content) and,
			// without a retry budget, 5xx: both are the pre-resilience
			// behavior.
			return resp, nil
		case err == nil:
			lastErr = &statusError{url: u.String(), status: resp.status}
		case IsTransient(err) && ctx.Err() == nil:
			lastErr = err
		default:
			// Definitive transport error ("no such host", a canceled
			// deadline): returned verbatim so clean-run error strings are
			// unchanged by resilience.
			return response{}, err
		}
		if attempt >= res.Retries {
			if res.Retries <= 0 {
				// No retry budget: the transient error returns verbatim,
				// exactly as the pre-resilience browser surfaced it — no
				// "giving up after 1 attempts" rewrap.
				return response{}, lastErr
			}
			return response{}, &exhaustedError{url: u.String(), attempts: attempt + 1, err: lastErr}
		}
		if res.Meter != nil {
			res.Meter.VisitRetry()
		}
		if err := res.sleep(xrand.Backoff(res.Seed, call, attempt, res.Backoff)); err != nil {
			return response{}, err
		}
	}
}
