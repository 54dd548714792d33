package dist_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cookiewalk/internal/campaign"
	"cookiewalk/internal/campaign/dist"
)

// TestOversizedRequestRefused pins the coordinator's request-body cap:
// a lease or heartbeat body past 64 KiB is answered 413 and changes no
// lease state, even when its JSON would otherwise be a valid request.
func TestOversizedRequestRefused(t *testing.T) {
	targets := testTargets(20)
	clock := &fakeClock{t: time.Unix(1000, 0)}
	co, client, _ := newTestCoordinator(t, targets, 2, time.Minute, clock.now)
	pad := strings.Repeat("x", 64<<10)
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(client.BaseURL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("/v1/lease", `{"worker":"w1","pad":"`+pad+`"}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized lease request: status %d, want 413", code)
	}
	if st := co.Status(); st.Leased != 0 || st.Pending != 2 {
		t.Fatalf("status after oversized lease request = %+v, want nothing leased", st)
	}

	reply, err := client.Lease(context.Background(), "w1")
	if err != nil || reply.Lease == nil {
		t.Fatalf("lease: %+v, %v", reply, err)
	}
	// Past two thirds of the TTL, an oversized heartbeat naming the live
	// lease must not extend it: the lease still expires at its first
	// deadline.
	clock.advance(40 * time.Second)
	if code := post("/v1/heartbeat", `{"lease_id":"`+reply.Lease.ID+`","pad":"`+pad+`"}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized heartbeat: status %d, want 413", code)
	}
	clock.advance(30 * time.Second)
	if st := co.Status(); st.Expired != 1 || st.Leased != 0 {
		t.Fatalf("status after oversized heartbeat = %+v, want the lease expired unextended", st)
	}
}

// zeros is an endless body of zero bytes, so a test can send an
// oversized PUT without holding it in memory.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestOversizedJournalRefused pins the journal PUT cap: a body past
// 32 MiB is answered 413 before the coordinator looks at any lease, so
// the range stays leased — neither merged nor fenced — and its holder
// can still ship the real journal.
func TestOversizedJournalRefused(t *testing.T) {
	targets := testTargets(20)
	clock := &fakeClock{t: time.Unix(1000, 0)}
	co, client, dir := newTestCoordinator(t, targets, 2, time.Minute, clock.now)
	ctx := context.Background()
	reply, err := client.Lease(ctx, "w1")
	if err != nil || reply.Lease == nil {
		t.Fatalf("lease: %+v, %v", reply, err)
	}
	lease := *reply.Lease

	req, err := http.NewRequest(http.MethodPut, client.BaseURL+"/v1/journal?lease="+lease.ID,
		io.LimitReader(zeros{}, 32<<20+1))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized journal: status %d, want 413", resp.StatusCode)
	}
	if st := co.Status(); st.Leased != 1 || st.Done != 0 || st.Expired != 0 {
		t.Fatalf("status after oversized journal = %+v, want the range still leased", st)
	}
	merged := filepath.Join(dir, campaign.PathLabel("camp alpha"), campaign.ShardFilename(lease.Shard))
	if _, err := os.Stat(merged); !os.IsNotExist(err) {
		t.Fatalf("oversized journal merged: %v", err)
	}

	// The lease is not fenced: it still heartbeats and ships.
	if err := client.Heartbeat(ctx, lease.ID); err != nil {
		t.Fatalf("heartbeat after oversized journal: %v", err)
	}
	if err := client.ShipJournal(ctx, lease.ID, rangeJournal(t, "camp alpha", targets, lease.Shard, 2)); err != nil {
		t.Fatalf("ship after oversized journal: %v", err)
	}
	if st := co.Status(); st.Done != 1 || st.Leased != 0 {
		t.Fatalf("status after ship = %+v, want the range merged", st)
	}
}

// TestWorkerStopsOnOversizedJournal: a journal PUT answered 413 is
// final. Every fresh upload would be the same over-cap file, so the
// worker ships it exactly once and exits with the refusal instead of
// spending its ship retries on it.
func TestWorkerStopsOnOversizedJournal(t *testing.T) {
	targets := testTargets(20)
	spec := dist.Spec{Label: "camp alpha", Targets: len(targets),
		TargetsHash: campaign.HashTargets(targets), Shards: 1}
	co := mustCoordinator(t, t.TempDir(), spec)
	var puts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && r.URL.Path == "/v1/journal" {
			puts.Add(1)
			http.Error(w, "journal too large", http.StatusRequestEntityTooLarge)
			return
		}
		co.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()

	client := &dist.Client{BaseURL: srv.URL, MaxRetries: 1, Backoff: time.Millisecond,
		Sleep: func(time.Duration) {}}
	runner := func(ctx context.Context, lease dist.Lease, scratch string) (string, error) {
		path := filepath.Join(scratch, campaign.ShardFilename(lease.Shard))
		return path, os.WriteFile(path, []byte("a journal the coordinator refuses"), 0o644)
	}
	w := &dist.Worker{Client: client, Name: "w-oversized", Runner: runner,
		ShipRetries: 3, Poll: 5 * time.Millisecond, Logf: t.Logf}
	err := w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "413") {
		t.Fatalf("worker Run = %v, want a fatal 413", err)
	}
	if got := puts.Load(); got != 1 {
		t.Fatalf("the worker sent %d journal PUTs, want exactly 1", got)
	}
}
