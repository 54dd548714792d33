package hostgate

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock shared by Now and Sleep so
// rate-limiter tests never wait on real time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := context.Cause(ctx); err != nil {
		return err
	}
	c.Advance(d)
	return nil
}

// circuitOpen matches a breaker fail-fast structurally, the way the
// browser classifies the errors Admit returns.
func circuitOpen(err error) bool {
	var c interface{ CircuitOpen() bool }
	return errors.As(err, &c) && c.CircuitOpen()
}

// request runs one logical request through the gate the way the
// browser does: Admit once, Wait for a token, and settle a failed
// Wait with Abandon. A nil return leaves the caller admitted, owing
// one Report or Abandon.
func request(ctx context.Context, g *Gate, host string) error {
	if err := g.Admit(host); err != nil {
		return err
	}
	if err := g.Wait(ctx, host); err != nil {
		g.Abandon(host)
		return err
	}
	return nil
}

func TestNewNilWhenDisabled(t *testing.T) {
	if g := New(Config{}); g != nil {
		t.Fatalf("New with zero config = %v, want nil", g)
	}
	var g *Gate
	if err := g.Admit("a.example"); err != nil {
		t.Fatalf("nil gate Admit: %v", err)
	}
	if err := g.Wait(context.Background(), "a.example"); err != nil {
		t.Fatalf("nil gate Wait: %v", err)
	}
	if g.Report("a.example", true) {
		t.Fatal("nil gate Report tripped")
	}
	g.Abandon("a.example")
}

func TestRateLimiterPacesRequests(t *testing.T) {
	clk := newFakeClock()
	g := New(Config{PerHostRPS: 10, Burst: 2, Now: clk.Now, Sleep: clk.Sleep})
	ctx := context.Background()
	start := clk.Now()
	// Burst of 2 goes through instantly; the next 8 must each wait for
	// a 100ms refill.
	for i := 0; i < 10; i++ {
		if err := g.Wait(ctx, "a.example"); err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
	}
	elapsed := clk.Now().Sub(start)
	want := 800 * time.Millisecond
	if elapsed < want || elapsed > want+50*time.Millisecond {
		t.Fatalf("10 waits at 10 rps burst 2 took %v, want ~%v", elapsed, want)
	}
	// A different host has its own bucket: no waiting.
	before := clk.Now()
	if err := g.Wait(ctx, "b.example"); err != nil {
		t.Fatalf("Wait other host: %v", err)
	}
	if d := clk.Now().Sub(before); d != 0 {
		t.Fatalf("fresh host waited %v, want 0", d)
	}
}

func TestRateLimiterHonorsContext(t *testing.T) {
	clk := newFakeClock()
	g := New(Config{PerHostRPS: 1, Burst: 1, Now: clk.Now, Sleep: func(ctx context.Context, d time.Duration) error {
		return context.Canceled
	}})
	ctx := context.Background()
	if err := g.Wait(ctx, "a.example"); err != nil {
		t.Fatalf("first Wait: %v", err)
	}
	if err := g.Wait(ctx, "a.example"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after cancel = %v, want context.Canceled", err)
	}
}

func TestBreakerOpensHalfOpensAndCloses(t *testing.T) {
	clk := newFakeClock()
	g := New(Config{BreakerThreshold: 3, BreakerCooldown: time.Second, Now: clk.Now, Sleep: clk.Sleep})
	host := "dead.example"
	trips, denials := 0, 0
	admit := func() error {
		err := g.Admit(host)
		if circuitOpen(err) {
			denials++
		}
		return err
	}
	report := func(failed bool) bool {
		tripped := g.Report(host, failed)
		if tripped {
			trips++
		}
		return tripped
	}

	// Two failures: still closed.
	for i := 0; i < 2; i++ {
		if err := admit(); err != nil {
			t.Fatalf("Admit %d: %v", i, err)
		}
		if report(true) {
			t.Fatalf("Report %d tripped early", i)
		}
	}
	// Third consecutive failure trips it.
	if err := admit(); err != nil {
		t.Fatalf("Admit 3: %v", err)
	}
	if !report(true) {
		t.Fatal("threshold-th failure did not trip the breaker")
	}
	// Open: fail fast.
	err := admit()
	if !circuitOpen(err) {
		t.Fatalf("Admit while open = %v, want circuit-open", err)
	}
	if circuitOpen(fmt.Errorf("wrapped: %w", errors.New("other"))) {
		t.Fatal("circuitOpen misclassified an unrelated error")
	}
	if !circuitOpen(fmt.Errorf("visit: %w", err)) {
		t.Fatal("circuitOpen failed to see through wrapping")
	}

	// After the cooldown a single probe is admitted; a second caller
	// still fails fast while the probe is in flight.
	clk.Advance(time.Second)
	if err := admit(); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	if err := admit(); !circuitOpen(err) {
		t.Fatalf("second caller during probe = %v, want circuit-open", err)
	}
	// Probe fails: straight back to open, cooldown restarted.
	if !report(true) {
		t.Fatal("failed probe did not re-trip")
	}
	if err := admit(); !circuitOpen(err) {
		t.Fatalf("after failed probe = %v, want circuit-open", err)
	}

	// Next probe succeeds: breaker closes, traffic flows again.
	clk.Advance(time.Second)
	if err := admit(); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	if report(false) {
		t.Fatal("successful probe reported as trip")
	}
	if err := admit(); err != nil {
		t.Fatalf("post-recovery Admit: %v", err)
	}

	if trips != 2 {
		t.Fatalf("trips = %d, want 2", trips)
	}
	if denials != 3 {
		t.Fatalf("denials = %d, want 3", denials)
	}
}

// TestAbandonReleasesProbe: an admitted half-open probe whose request
// resolves without a health verdict (ctx canceled, deterministic web
// content error) must free the probe slot via Abandon — otherwise the
// host is denied forever.
func TestAbandonReleasesProbe(t *testing.T) {
	clk := newFakeClock()
	g := New(Config{BreakerThreshold: 1, BreakerCooldown: time.Second, Now: clk.Now, Sleep: clk.Sleep})
	host := "probe.example"

	if err := g.Admit(host); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if !g.Report(host, true) {
		t.Fatal("threshold-1 failure did not trip")
	}
	clk.Advance(time.Second)
	if err := g.Admit(host); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	// The probe's request dies without an outcome (say, its visit
	// deadline expired mid-flight): abandon, don't report.
	g.Abandon(host)
	// The slot is free again — the next caller becomes the probe
	// instead of being denied until the end of time.
	if err := g.Admit(host); err != nil {
		t.Fatalf("probe slot leaked after Abandon: %v", err)
	}
	if g.Report(host, false) {
		t.Fatal("successful probe reported as trip")
	}
	if err := g.Admit(host); err != nil {
		t.Fatalf("post-recovery Admit: %v", err)
	}
	g.Report(host, false)
}

// TestCanceledWaitHoldsProbeUntilAbandon: when the rate-limiter wait
// fails AFTER breaker admission claimed the probe slot, the caller
// still holds the slot — other callers are denied — until it settles
// the admission with Abandon.
func TestCanceledWaitHoldsProbeUntilAbandon(t *testing.T) {
	clk := newFakeClock()
	canceled := false
	g := New(Config{
		// A refill rate this slow guarantees the probe attempt must
		// sleep for a token (the burst token is spent up front).
		PerHostRPS:       0.001,
		Burst:            1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Second,
		Now:              clk.Now,
		Sleep: func(ctx context.Context, d time.Duration) error {
			if canceled {
				return context.Canceled
			}
			clk.Advance(d)
			return nil
		},
	})
	ctx := context.Background()
	host := "slow.example"

	if err := request(ctx, g, host); err != nil {
		t.Fatalf("first request: %v", err)
	}
	g.Report(host, true) // trips (threshold 1)
	clk.Advance(time.Second)
	canceled = true
	// Admission claims the probe; the limiter wait then dies.
	if err := g.Admit(host); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	if err := g.Wait(ctx, host); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait with canceled sleep = %v, want context.Canceled", err)
	}
	if err := g.Admit(host); !circuitOpen(err) {
		t.Fatalf("Admit while the probe is held = %v, want circuit-open", err)
	}
	g.Abandon(host)
	// The settled slot is free for the next probe.
	if err := g.Admit(host); err != nil {
		t.Fatalf("probe slot leaked after canceled wait: %v", err)
	}
	g.Abandon(host)
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	g := New(Config{BreakerThreshold: 2})
	host := "flaky.example"
	g.Report(host, true)
	g.Report(host, false) // streak reset
	if g.Report(host, true) {
		t.Fatal("tripped without threshold consecutive failures")
	}
	if !g.Report(host, true) {
		t.Fatal("did not trip after threshold consecutive failures")
	}
}

// TestGateHammer drives one Gate from many goroutines across a few
// hosts with mixed outcomes — the -race gate for the shared mutable
// state (buckets, breakers). Invariants checked at the end: requests
// were admitted, the always-failing host tripped, and the gate never
// deadlocks.
func TestGateHammer(t *testing.T) {
	clk := newFakeClock()
	g := New(Config{
		PerHostRPS:       1000,
		Burst:            4,
		BreakerThreshold: 5,
		BreakerCooldown:  10 * time.Millisecond,
		Now:              clk.Now,
		Sleep:            clk.Sleep,
	})
	ctx := context.Background()
	hosts := []string{"a.example", "b.example", "c.example", "d.example"}
	var wg sync.WaitGroup
	var ok, trips atomic.Int64
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				host := hosts[(w+i)%len(hosts)]
				err := request(ctx, g, host)
				if circuitOpen(err) {
					continue
				}
				if err != nil {
					t.Errorf("request: %v", err)
					return
				}
				ok.Add(1)
				// host "d.example" always fails; the rest always succeed.
				if g.Report(host, host == "d.example") {
					trips.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatal("no request ever admitted")
	}
	if trips.Load() == 0 {
		t.Fatal("always-failing host never tripped its breaker")
	}
}
