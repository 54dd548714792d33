package dist_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cookiewalk/internal/campaign"
	"cookiewalk/internal/campaign/dist"
)

// TestClientRetryClassification is the table the fleet's survival
// depends on: transient failures (network errors, 5xx — what a
// coordinator crash or restart looks like) are retried and surface as
// transient; definitive refusals (401 auth, 410 fencing, 422
// validation) are returned after exactly one request, because no retry
// can change the answer.
func TestClientRetryClassification(t *testing.T) {
	newClient := func(url string) (*dist.Client, *atomic.Int64) {
		var hits atomic.Int64
		return &dist.Client{BaseURL: url, MaxRetries: 3, Backoff: time.Millisecond,
			Sleep: func(time.Duration) {}}, &hits
	}
	call := func(c *dist.Client, op string) error {
		ctx := context.Background()
		switch op {
		case "lease":
			_, err := c.Lease(ctx, "w")
			return err
		case "heartbeat":
			return c.Heartbeat(ctx, "L01-000001")
		case "ship":
			return c.ShipJournal(ctx, "L01-000001", []byte("payload"))
		}
		t.Fatalf("unknown op %q", op)
		return nil
	}

	tests := []struct {
		name      string
		op        string
		status    int // 0 = close the connection (network error)
		body      string
		wantHits  int64 // requests the server must see
		transient bool
		wantErr   error // errors.Is target, nil = only classify
	}{
		{name: "network error retries then transient", op: "lease", status: 0, wantHits: 4, transient: true},
		{name: "502 retries then transient", op: "lease", status: http.StatusBadGateway, wantHits: 4, transient: true},
		{name: "503 retries then transient", op: "heartbeat", status: http.StatusServiceUnavailable, wantHits: 4, transient: true},
		{name: "401 definitive no retry", op: "lease", status: http.StatusUnauthorized, wantHits: 1, wantErr: dist.ErrUnauthorized},
		{name: "410 heartbeat fence definitive", op: "heartbeat", status: http.StatusGone, wantHits: 1, wantErr: dist.ErrLeaseLost},
		{name: "410 ship fence definitive", op: "ship", status: http.StatusGone, wantHits: 1, wantErr: dist.ErrLeaseLost},
		{name: "422 validation reject definitive", op: "ship", status: http.StatusUnprocessableEntity, body: "journal rejected", wantHits: 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var hits *atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				if tc.status == 0 {
					if hj, ok := w.(http.Hijacker); ok {
						if conn, _, err := hj.Hijack(); err == nil {
							conn.Close()
						}
					}
					return
				}
				http.Error(w, tc.body, tc.status)
			}))
			defer srv.Close()
			var c *dist.Client
			c, hits = newClient(srv.URL)

			err := call(c, tc.op)
			if err == nil {
				t.Fatal("call succeeded, want failure")
			}
			if got := hits.Load(); got != tc.wantHits {
				t.Fatalf("server saw %d requests, want %d", got, tc.wantHits)
			}
			if dist.IsTransient(err) != tc.transient {
				t.Fatalf("IsTransient = %v, want %v (err: %v)", dist.IsTransient(err), tc.transient, err)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestClientPostRecoveryFencing covers the new 410 path: a lease ID
// minted by a dead incarnation is unknown to the recovered
// coordinator, so its heartbeats and uploads hit the fence exactly
// like an ordinary expiry — definitive, no retry.
func TestClientPostRecoveryFencing(t *testing.T) {
	targets := testTargets(20)
	dir := t.TempDir()
	spec := dist.Spec{Label: "camp alpha", Targets: len(targets),
		TargetsHash: campaign.HashTargets(targets), Shards: 2}

	co1 := mustCoordinator(t, dir, spec)
	srv := httptest.NewServer(co1.Handler())
	client := &dist.Client{BaseURL: srv.URL, MaxRetries: 1, Backoff: time.Millisecond,
		Sleep: func(time.Duration) {}}
	reply, err := client.Lease(context.Background(), "w1")
	if err != nil || reply.Lease == nil {
		t.Fatalf("lease: %+v, %v", reply, err)
	}
	stale := reply.Lease.ID
	srv.Close() // coordinator "crashes" holding one granted lease

	co2 := mustCoordinator(t, dir, spec)
	srv2 := httptest.NewServer(co2.Handler())
	defer srv2.Close()
	client.BaseURL = srv2.URL

	if err := client.Heartbeat(context.Background(), stale); !errors.Is(err, dist.ErrLeaseLost) {
		t.Fatalf("stale heartbeat after recovery: %v", err)
	}
	journal := rangeJournal(t, "camp alpha", targets, 0, 2)
	if err := client.ShipJournal(context.Background(), stale, journal); !errors.Is(err, dist.ErrLeaseLost) {
		t.Fatalf("stale ship after recovery: %v", err)
	}
	// The recovered coordinator leases the same range out fresh, with a
	// second-incarnation lease ID.
	reply, err = client.Lease(context.Background(), "w2")
	if err != nil || reply.Lease == nil {
		t.Fatalf("post-recovery lease: %+v, %v", reply, err)
	}
	if reply.Lease.ID == stale {
		t.Fatalf("recovered coordinator reissued stale lease ID %s", stale)
	}
	if err := client.ShipJournal(context.Background(), reply.Lease.ID, journal); err != nil {
		t.Fatalf("fresh ship after recovery: %v", err)
	}
}

// TestClientSeededBackoffSchedule is the thundering-herd regression
// test: with a fake sleeper, the retry schedule is fully reproducible
// from the seed, every delay is jittered into [base/2, base] of the
// doubling envelope, and two workers with different seeds do not march
// in lockstep.
func TestClientSeededBackoffSchedule(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	schedule := func(seed uint64) []time.Duration {
		var delays []time.Duration
		c := &dist.Client{BaseURL: srv.URL, MaxRetries: 4, Backoff: 80 * time.Millisecond,
			Seed:  seed,
			Sleep: func(d time.Duration) { delays = append(delays, d) }}
		if _, err := c.Lease(context.Background(), "w"); !dist.IsTransient(err) {
			t.Fatalf("expected transient exhaustion, got %v", err)
		}
		return delays
	}

	s1, s1again, s2 := schedule(1), schedule(1), schedule(2)
	if len(s1) != 4 {
		t.Fatalf("4 retries should sleep 4 times, slept %d: %v", len(s1), s1)
	}
	// Deterministic: same seed, same schedule.
	for i := range s1 {
		if s1[i] != s1again[i] {
			t.Fatalf("sleep %d: %v then %v from the same seed", i, s1[i], s1again[i])
		}
	}
	// Jittered within the doubling envelope: attempt k's base is
	// min(80ms<<k, 2s), delay in [base/2, base].
	base := 80 * time.Millisecond
	for i, d := range s1 {
		if d < base/2 || d > base {
			t.Fatalf("sleep %d = %v outside [%v, %v]", i, d, base/2, base)
		}
		if base *= 2; base > 2*time.Second {
			base = 2 * time.Second
		}
	}
	// Decorrelated: different seeds must not produce an identical
	// 4-delay schedule.
	identical := true
	for i := range s1 {
		if s1[i] != s2[i] {
			identical = false
			break
		}
	}
	if identical {
		t.Fatalf("seeds 1 and 2 share the schedule %v — jitter is not seeded", s1)
	}
}

// TestClientBoundsResponseBody: a response longer than the client's
// 1 MiB cap is a definitive error after one request — never buffered
// whole, never retried.
func TestClientBoundsResponseBody(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write(bytes.Repeat([]byte(" "), 2<<20))
	}))
	defer srv.Close()
	c := &dist.Client{BaseURL: srv.URL, MaxRetries: 3, Backoff: time.Millisecond, Sleep: func(time.Duration) {}}
	_, err := c.Campaigns(context.Background())
	if err == nil || !strings.Contains(err.Error(), "response body exceeds 1048576 bytes") {
		t.Fatalf("err = %v, want the response-size error", err)
	}
	if dist.IsTransient(err) {
		t.Fatalf("oversized response classified transient: %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (no retry)", got)
	}
}
