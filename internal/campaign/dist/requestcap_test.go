package dist_test

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"
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
