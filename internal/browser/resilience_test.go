package browser

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cookiewalk/internal/hostgate"
	"cookiewalk/internal/vantage"
)

// transientErr is a transport failure marked retryable, the way the
// fault injector and real network transports mark timeouts and resets.
type transientErr struct{ msg string }

func (e *transientErr) Error() string   { return e.msg }
func (e *transientErr) Transient() bool { return true }

// countingGate records the browser's gate protocol so tests can assert
// the pairing invariant doRequest guarantees: every admission is
// settled by exactly one Report or Abandon.
type countingGate struct {
	deny     bool
	admits   int
	waits    int
	reports  int
	failures int
	abandons int
}

type deniedErr struct{}

func (e *deniedErr) Error() string     { return "countingGate: circuit open" }
func (e *deniedErr) CircuitOpen() bool { return true }

func (g *countingGate) Admit(host string) error {
	if g.deny {
		return &deniedErr{}
	}
	g.admits++
	return nil
}

func (g *countingGate) Wait(ctx context.Context, host string) error {
	g.waits++
	return ctx.Err()
}

func (g *countingGate) Report(host string, failed bool) bool {
	g.reports++
	if failed {
		g.failures++
	}
	return false
}

func (g *countingGate) Abandon(host string) { g.abandons++ }

func (g *countingGate) settled(t *testing.T) {
	t.Helper()
	if g.reports+g.abandons != g.admits {
		t.Fatalf("gate protocol violated: %d admissions settled by %d reports + %d abandons",
			g.admits, g.reports, g.abandons)
	}
}

// noSleep makes retry backoff free for tests.
func noSleep(context.Context, time.Duration) error { return nil }

// flakyTransport fails the first fails[url] attempts per URL with a
// transient error, then delegates.
type flakyTransport struct {
	rt    http.RoundTripper
	fails map[string]int
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	url := req.URL.String()
	if f.fails[url] > 0 {
		f.fails[url]--
		return nil, &transientErr{msg: "injected reset: " + url}
	}
	return f.rt.RoundTrip(req)
}

// TestRetryErasesTransientFaults: a request that fails transiently
// within the retry budget succeeds, and the gate sees one admission
// settled by one success report — retries never multiply admissions.
func TestRetryErasesTransientFaults(t *testing.T) {
	b, st := scriptedBrowser(map[string]scripted{
		"https://a.de/": {status: 200, body: "<p>ok</p>"},
	})
	b.Transport = &flakyTransport{rt: st, fails: map[string]int{"https://a.de/": 2}}
	gate := &countingGate{}
	b.Resilience = Resilience{Retries: 3, Gate: gate, Sleep: noSleep}

	page, err := b.Open("https://a.de/")
	if err != nil {
		t.Fatal(err)
	}
	if page.Status != 200 {
		t.Fatalf("status = %d", page.Status)
	}
	gate.settled(t)
	if gate.admits != 1 || gate.failures != 0 {
		t.Fatalf("admits = %d, failed reports = %d; want 1 admission, 0 failures", gate.admits, gate.failures)
	}
	if gate.waits != 3 {
		t.Fatalf("waits = %d, want 3 (one politeness token per attempt)", gate.waits)
	}
}

// TestNoRetryBudgetReturnsTransientErrorVerbatim: with a gate armed but
// VisitRetries=0 (only -per-host set), a transient transport error must
// surface exactly as the pre-resilience browser surfaced it — no
// "giving up after 1 attempts" rewrap — while still counting as a
// failed final outcome for the breaker.
func TestNoRetryBudgetReturnsTransientErrorVerbatim(t *testing.T) {
	sentinel := &transientErr{msg: "injected reset: one-shot"}
	b, _ := scriptedBrowser(map[string]scripted{
		"https://a.de/": {err: sentinel},
	})
	gate := &countingGate{}
	b.Resilience = Resilience{Retries: 0, Gate: gate, Sleep: noSleep}

	_, err := b.Open("https://a.de/")
	if err != sentinel {
		t.Fatalf("error rewrapped: got %v, want the transport's error verbatim", err)
	}
	gate.settled(t)
	if gate.failures != 1 {
		t.Fatalf("failed reports = %d, want 1 (a final failure feeds the breaker)", gate.failures)
	}
}

// TestDefinitiveErrorAbandonsAdmission: a definitive transport error is
// no verdict on transport health — the admission is abandoned, not
// reported, so it neither feeds the failure streak nor leaks a probe.
func TestDefinitiveErrorAbandonsAdmission(t *testing.T) {
	b, _ := scriptedBrowser(map[string]scripted{
		"https://a.de/": {err: errors.New("no such host a.de")},
	})
	gate := &countingGate{}
	b.Resilience = Resilience{Retries: 2, Gate: gate, Sleep: noSleep}

	_, err := b.Open("https://a.de/")
	if err == nil || !strings.Contains(err.Error(), "no such host") {
		t.Fatalf("err = %v, want the definitive error verbatim", err)
	}
	gate.settled(t)
	if gate.abandons != 1 || gate.reports != 0 {
		t.Fatalf("abandons = %d, reports = %d; want the admission abandoned", gate.abandons, gate.reports)
	}
}

// TestCanceledBackoffAbandonsAdmission: ctx cancellation between
// attempts exits through the backoff sleep — the admission must still
// be settled (abandoned), or a claimed probe slot would leak.
func TestCanceledBackoffAbandonsAdmission(t *testing.T) {
	b, _ := scriptedBrowser(map[string]scripted{
		"https://a.de/": {err: &transientErr{msg: "injected reset"}},
	})
	gate := &countingGate{}
	b.Resilience = Resilience{
		Retries: 3,
		Gate:    gate,
		Sleep:   func(context.Context, time.Duration) error { return context.Canceled },
	}

	if _, err := b.Open("https://a.de/"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	gate.settled(t)
	if gate.abandons != 1 || gate.reports != 0 {
		t.Fatalf("abandons = %d, reports = %d; cancellation must not feed the breaker", gate.abandons, gate.reports)
	}
}

// TestBreakerDenialNeedsNoSettling: a fail-fast from Admit leaves the
// caller holding nothing — no Report, no Abandon, and the denial is
// metered.
func TestBreakerDenialNeedsNoSettling(t *testing.T) {
	b, _ := scriptedBrowser(map[string]scripted{
		"https://a.de/": {status: 200, body: "<p>ok</p>"},
	})
	gate := &countingGate{deny: true}
	b.Resilience = Resilience{Retries: 2, Gate: gate, Sleep: noSleep}

	_, err := b.Open("https://a.de/")
	if err == nil || !isCircuitOpen(err) {
		t.Fatalf("err = %v, want circuit-open", err)
	}
	gate.settled(t)
	if gate.admits != 0 || gate.waits != 0 {
		t.Fatalf("denied request still touched the gate: %d admits, %d waits", gate.admits, gate.waits)
	}
}

// downTransport serves a page while up and fails transiently while
// down — the half-open probe scenarios' toggleable host.
type downTransport struct {
	mu   sync.Mutex
	down bool
	rt   http.RoundTripper
}

func (d *downTransport) setDown(v bool) {
	d.mu.Lock()
	d.down = v
	d.mu.Unlock()
}

func (d *downTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	d.mu.Lock()
	down := d.down
	d.mu.Unlock()
	if down {
		return nil, &transientErr{msg: "injected reset: " + req.URL.String()}
	}
	return d.rt.RoundTrip(req)
}

// TestHalfOpenProbeRetriesDoNotBrickHost is the regression for the
// probe/retry deadlock: with retries armed, the half-open probe request
// must be able to RETRY inside its own admission. The buggy per-attempt
// admission denied the probe's second attempt against its own claimed
// slot and returned without ever settling it — permanently denying the
// host. The fixed protocol keeps the slot for the whole request: a
// probe that exhausts its retries re-opens the breaker (cooldown
// restarts), and a probe against a healed host closes it.
func TestHalfOpenProbeRetriesDoNotBrickHost(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	st := &scriptedTransport{
		responses: map[string]scripted{"https://h.example/": {status: 200, body: "<p>ok</p>"}},
		hits:      map[string]int{},
	}
	dt := &downTransport{down: true, rt: st}
	g := hostgate.New(hostgate.Config{BreakerThreshold: 1, BreakerCooldown: time.Second, Now: clock})

	vp, _ := vantage.ByName("Germany")
	meter := &countingMeter{}
	open := func() error {
		b := New(dt, vp)
		b.Resilience = Resilience{Retries: 2, Gate: g, Meter: meter, Sleep: noSleep}
		_, err := b.Open("https://h.example/")
		return err
	}

	// Visit 1: down host, retries exhaust, breaker (threshold 1) trips.
	if err := open(); err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("visit 1 = %v, want retry exhaustion", err)
	}
	// Visit 2, cooldown not elapsed: fail fast.
	if err := open(); !isCircuitOpen(err) {
		t.Fatalf("visit 2 = %v, want circuit-open", err)
	}

	// Visit 3, cooldown elapsed, host still down: the probe request owns
	// the slot across ALL its attempts — it must exhaust its retries
	// ("giving up"), not collide with itself ("circuit open").
	advance(time.Second)
	if err := open(); err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("visit 3 (probe) = %v, want retry exhaustion, not a self-denial", err)
	}
	// The failed probe re-opened the breaker: fail fast again.
	if err := open(); !isCircuitOpen(err) {
		t.Fatalf("visit 4 = %v, want circuit-open after failed probe", err)
	}

	// Host heals; the next probe closes the breaker and traffic flows.
	advance(time.Second)
	dt.setDown(false)
	if err := open(); err != nil {
		t.Fatalf("visit 5 (probe against healed host) = %v", err)
	}
	if err := open(); err != nil {
		t.Fatalf("visit 6 (closed breaker) = %v", err)
	}
	if trips := meter.trips.Load(); trips != 2 {
		t.Fatalf("trips = %d, want 2 (initial open + failed probe)", trips)
	}
	if denials := meter.denials.Load(); denials != 2 {
		t.Fatalf("denials = %d, want 2 (visits 2 and 4)", denials)
	}
}

// countingMeter is a Meter that counts each resilience event.
type countingMeter struct {
	retries, trips, denials atomic.Int64
}

func (m *countingMeter) VisitRetry()    { m.retries.Add(1) }
func (m *countingMeter) BreakerTrip()   { m.trips.Add(1) }
func (m *countingMeter) BreakerDenial() { m.denials.Add(1) }
