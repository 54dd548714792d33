package dist_test

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cookiewalk/internal/campaign"
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
