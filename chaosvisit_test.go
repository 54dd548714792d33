package cookiewalk_test

import (
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cookiewalk"
	"cookiewalk/internal/fault"
)

// TestExhaustedRetriesSurfaceAsErrors covers the other half of the
// contract: a host that is down for good (every attempt faulted, no
// per-request cap) exhausts its retry budget and surfaces as an
// ordinary visit error — the campaign completes, nothing wedges, no
// corrupted result — and once the host's breaker trips, further visits
// fail fast with a circuit-open error while other hosts stay reachable.
func TestExhaustedRetriesSurfaceAsErrors(t *testing.T) {
	// The shared golden study (same seed/scale) supplies the
	// deterministic target list so the victim host is known before the
	// real study is built.
	targets := cookiewalk.GoldenStudy().Targets()
	victim, healthy := targets[5], targets[6]

	cfg := cookiewalk.Config{
		Seed: 42, Scale: 0.02, Reps: 2,
		VisitRetries:      2,
		VisitRetryBackoff: time.Millisecond,
		BreakerThreshold:  2,
		BreakerCooldown:   time.Hour,
		WrapTransport: func(base http.RoundTripper) http.RoundTripper {
			rt, inj := fault.Wrap(base, 99, fault.VisitProfile{
				Reset: 1000, MaxPerRequest: -1,
			})
			inj.Hosts = func(host string) bool { return host == victim }
			return rt
		},
	}
	study := cookiewalk.New(cfg)

	// Visits 1 and 2: retries exhaust, the error names the injected
	// fault and the give-up, and each exhaustion feeds the breaker.
	for i := 0; i < 2; i++ {
		_, err := study.Analyze("Germany", victim)
		if err == nil {
			t.Fatalf("visit %d of always-down host succeeded", i+1)
		}
		if !strings.Contains(err.Error(), "giving up after 3 attempts") ||
			!strings.Contains(err.Error(), "injected reset") {
			t.Fatalf("visit %d error does not surface the exhausted retry: %v", i+1, err)
		}
	}

	// Visit 3: the breaker (threshold 2) is open — fail fast.
	if _, err := study.Analyze("Germany", victim); err == nil {
		t.Fatal("visit through an open breaker succeeded")
	} else if !strings.Contains(err.Error(), "circuit open") {
		t.Fatalf("expected a circuit-open error, got: %v", err)
	}

	// Other hosts are untouched by the victim's breaker.
	rep, err := study.Analyze("Germany", healthy)
	if err != nil {
		t.Fatalf("healthy host failed alongside the victim: %v", err)
	}
	if rep.Domain != healthy {
		t.Fatalf("healthy report for %q, want %q", rep.Domain, healthy)
	}
}

// TestBreakerRecoversThroughHalfOpenProbe drives the breaker's full
// lifecycle end to end with retries armed: trip on exhausted retries,
// half-open probe after the cooldown whose OWN retries run inside the
// probe admission (a probe attempt must never be denied against its
// own claimed slot), re-open on probe failure, and recovery once the
// host heals. Regression for the probe/retry deadlock that permanently
// denied a host whenever a half-open probe failed transiently.
func TestBreakerRecoversThroughHalfOpenProbe(t *testing.T) {
	victim := cookiewalk.GoldenStudy().Targets()[5]

	const cooldown = 20 * time.Millisecond
	var down atomic.Bool
	down.Store(true)
	cfg := cookiewalk.Config{
		Seed: 42, Scale: 0.02, Reps: 2,
		VisitRetries:      2,
		VisitRetryBackoff: time.Millisecond,
		BreakerThreshold:  2,
		BreakerCooldown:   cooldown,
		WrapTransport: func(base http.RoundTripper) http.RoundTripper {
			rt, inj := fault.Wrap(base, 99, fault.VisitProfile{
				Reset: 1000, MaxPerRequest: -1,
			})
			inj.Hosts = func(host string) bool { return host == victim && down.Load() }
			return rt
		},
	}
	study := cookiewalk.New(cfg)

	// Two exhausted-retry visits trip the breaker (threshold 2).
	for i := 0; i < 2; i++ {
		if _, err := study.Analyze("Germany", victim); err == nil ||
			!strings.Contains(err.Error(), "giving up after 3 attempts") {
			t.Fatalf("visit %d = %v, want retry exhaustion", i+1, err)
		}
	}

	// Cooldown elapsed, host still down: the half-open probe retries
	// within its own admission and exhausts — it must NOT fail fast
	// against its own probe slot, and the breaker must re-open, not
	// wedge.
	time.Sleep(2 * cooldown)
	if _, err := study.Analyze("Germany", victim); err == nil ||
		!strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("probe visit = %v, want retry exhaustion, not a self-denial", err)
	}

	// Host heals: after another cooldown the next probe succeeds, the
	// breaker closes, and the host stays reachable.
	down.Store(false)
	time.Sleep(2 * cooldown)
	for i := 0; i < 2; i++ {
		rep, err := study.Analyze("Germany", victim)
		if err != nil {
			t.Fatalf("post-recovery visit %d: %v", i+1, err)
		}
		if rep.Domain != victim {
			t.Fatalf("post-recovery report for %q, want %q", rep.Domain, victim)
		}
	}
}
