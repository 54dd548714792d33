package cookiewalk_test

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cookiewalk"
	"cookiewalk/internal/fault"
)

// visitChaosProfile is the background fault mix for the golden gates:
// every fault kind fires, at rates that hit thousands of requests per
// run, with the per-request cap left at its default of 2 — so a retry
// budget of 3 guarantees every request eventually succeeds.
func visitChaosProfile() fault.VisitProfile {
	return fault.VisitProfile{
		Timeout:  8,
		Reset:    8,
		Err503:   8,
		Truncate: 8,
		Stall:    4,
		StallFor: time.Millisecond,
	}
}

// visitChaosConfig arms the full resilience stack on the golden-test
// study: retries sized to out-last the injector's per-request cap,
// per-visit deadlines, a per-host limiter generous enough never to
// bind, and breakers that can only trip on retry exhaustion (which the
// cap makes impossible) — so every knob is active and none may change
// a single output byte.
func visitChaosConfig() cookiewalk.Config {
	return cookiewalk.Config{
		Seed: 42, Scale: 0.02, Reps: 2,
		VisitTimeout:      time.Minute,
		VisitRetries:      3,
		VisitRetryBackoff: time.Millisecond,
		PerHostRPS:        5000,
		PerHostBurst:      64,
		BreakerThreshold:  8,
	}
}

// TestGoldenFlakyTransport is the tentpole invariant of the resilient
// visit layer: the COMPLETE experiment report, produced over transport
// that injects timeouts, connection resets, 503s, truncated bodies and
// stalls into both transport seams, is byte-identical to
// testdata/golden_all.txt — the same snapshot the clean-transport
// golden test pins. Retries absorb every fault (the injector's
// per-request cap guarantees eventual success), the limiter and
// breakers stay out of the way, and the only admissible difference
// from a clean run is timing. COOKIEWALK_SEED picks the fault schedule
// (default 1); the universe seed stays 42, so every fault seed must
// reproduce the same golden bytes.
func TestGoldenFlakyTransport(t *testing.T) {
	seed := fault.Seeds(t, 1)[0]
	want, err := os.ReadFile("testdata/golden_all.txt")
	if err != nil {
		t.Fatal(err)
	}

	var ft *fault.VisitTransport
	var retries atomic.Int64
	cfg := visitChaosConfig()
	cfg.WrapTransport = func(base http.RoundTripper) http.RoundTripper {
		rt, inj := fault.Wrap(base, seed, visitChaosProfile())
		ft = inj
		return rt
	}
	cfg.Progress = func(p cookiewalk.Progress) {
		if p.Retries > retries.Load() {
			retries.Store(p.Retries)
		}
		if p.BreakerTrips > 0 || p.BreakerDenials > 0 {
			t.Errorf("%s: breaker activity (%d trips, %d denials) on a run where every request eventually succeeds",
				p.Label, p.BreakerTrips, p.BreakerDenials)
		}
	}

	study := cookiewalk.New(cfg)
	got, err := study.Report(cookiewalk.ExpAll)
	if err != nil {
		t.Fatal(err)
	}
	if inj := ft.Injected(); inj.Total() == 0 {
		t.Fatal("injector never fired — the chaos gate is vacuous")
	} else {
		t.Logf("seed %d: injected %d faults (%d timeouts, %d resets, %d 503s, %d truncates, %d stalls), %d retries observed",
			seed, inj.Total(), inj.Timeouts, inj.Resets, inj.Err503s, inj.Truncates, inj.Stalls, retries.Load())
	}
	if retries.Load() == 0 {
		t.Error("no retries surfaced in Progress despite injected faults")
	}
	firstDiff(t, "flaky-transport report", got, string(want))
}

// TestGoldenFlakyCheckpointResume extends the gate across the
// journaling layer: a chaos run journals every campaign to a
// checkpoint dir and reports golden bytes; a second study then REPLAYS
// those journals over clean transport and must report the same bytes
// with zero fresh visits — records written under transport faults are
// exactly the records a clean run would have written.
func TestGoldenFlakyCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full scale-0.02 experiment suite twice")
	}
	seed := fault.Seeds(t, 1)[0]
	want, err := os.ReadFile("testdata/golden_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "chaos-ck")
	t.Cleanup(func() {
		if t.Failed() {
			fault.SaveArtifacts(t, fmt.Sprintf("visit-chaos-seed-%d", seed), dir, nil)
		}
	})

	cfg := visitChaosConfig()
	cfg.CheckpointDir = dir
	cfg.WrapTransport = func(base http.RoundTripper) http.RoundTripper {
		rt, _ := fault.Wrap(base, seed, visitChaosProfile())
		return rt
	}
	got, err := cookiewalk.New(cfg).Report(cookiewalk.ExpAll)
	if err != nil {
		t.Fatal(err)
	}
	firstDiff(t, "flaky-transport report", got, string(want))

	var replayed, fresh atomic.Int64
	rcfg := cookiewalk.Config{
		Seed: 42, Scale: 0.02, Reps: 2,
		CheckpointDir: dir,
		Resume:        true,
		Progress: func(p cookiewalk.Progress) {
			if p.Replayed > replayed.Load() {
				replayed.Store(p.Replayed)
			}
			if f := p.Done - p.Replayed; f > fresh.Load() {
				fresh.Store(f)
			}
		},
	}
	resumed, err := cookiewalk.New(rcfg).Report(cookiewalk.ExpAll)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Load() == 0 {
		t.Error("resume replayed nothing — the journals were not exercised")
	}
	if f := fresh.Load(); f != 0 {
		t.Errorf("resume crawled %d fresh visits; chaos-run journals should cover everything", f)
	}
	firstDiff(t, "clean-transport resume", resumed, string(want))
}

// TestExhaustedRetriesSurfaceAsErrors covers the other half of the
// contract: a host that is down for good (every attempt faulted, no
// per-request cap) exhausts its retry budget and surfaces as an
// ordinary visit error — the campaign completes, nothing wedges, no
// corrupted result — and once the host's breaker trips, further visits
// fail fast with a circuit-open error while other hosts stay reachable.
func TestExhaustedRetriesSurfaceAsErrors(t *testing.T) {
	// A probe study (same seed/scale) supplies the deterministic target
	// list so the victim host is known before the real study is built.
	probe := cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.02, Reps: 2})
	targets := probe.Targets()
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
	probe := cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.02, Reps: 2})
	victim := probe.Targets()[5]

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
