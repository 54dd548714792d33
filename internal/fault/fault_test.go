package fault_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"cookiewalk/internal/browser"
	"cookiewalk/internal/fault"
)

// TestMaxPerRequest pins the per-request cap: attempts at or past
// MaxPerRequest are clean, 0 means 2, and a negative cap faults every
// attempt.
func TestMaxPerRequest(t *testing.T) {
	for _, tc := range []struct{ max, faulted int }{{0, 2}, {1, 1}, {3, 3}, {-1, 10}} {
		rt, inj := fault.Wrap(plainOnly{&okBase{body: "ok"}}, 1, fault.VisitProfile{Reset: 1000, MaxPerRequest: tc.max})
		var got strings.Builder
		for attempt := 0; attempt < 10; attempt++ {
			req, _ := http.NewRequestWithContext(browser.WithAttempt(context.Background(), attempt),
				http.MethodGet, "http://down.example/", nil)
			got.WriteByte(visitDecision(rt, inj, req, false))
		}
		want := strings.Repeat("R", tc.faulted) + strings.Repeat(".", 10-tc.faulted)
		if got.String() != want {
			t.Errorf("MaxPerRequest %d: attempts %q, want %q", tc.max, got.String(), want)
		}
	}
}

// TestSeamsAgree checks that the plain RoundTrip seam and the
// RoundTripBody fast path make the same decision for the same request.
func TestSeamsAgree(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		rt, inj := fault.Wrap(&okBase{body: "visit reply"}, seed, visitMix)
		for _, req := range visitRequests() {
			plain, fast := visitDecision(rt, inj, req, false), visitDecision(rt, inj, req, true)
			if plain != fast {
				t.Errorf("seed %d %s %s attempt %d: RoundTrip %c, RoundTripBody %c",
					seed, req.Method, req.URL, browser.AttemptFromContext(req.Context()), plain, fast)
			}
		}
	}
}

// TestNegativeRateNeverFires: a rate ≤ 0 neither fires nor shifts the
// thresholds of the kinds after it, on either seam.
func TestNegativeRateNeverFires(t *testing.T) {
	fleet, _ := fleetDecisions(t, 1, fault.FleetProfile{Drop: -1000, Err503: 1000}, 64)
	if want := strings.Repeat("5", 64); fleet != want {
		t.Errorf("fleet with Drop -1000, Err503 1000: %q, want %q", fleet, want)
	}
	rt, inj := fault.Wrap(plainOnly{&okBase{body: "ok"}}, 1, fault.VisitProfile{Timeout: -1000, Reset: 1000})
	for _, req := range visitRequests() {
		want := byte('R')
		if browser.AttemptFromContext(req.Context()) >= 2 {
			want = '.'
		}
		if got := visitDecision(rt, inj, req, false); got != want {
			t.Errorf("visit with Timeout -1000, Reset 1000: %s attempt %d = %c, want %c",
				req.URL, browser.AttemptFromContext(req.Context()), got, want)
		}
	}
}

// TestShortReadTearsTinyBodies: a short-read fault ends the body in the
// injected error even when the response is shorter than the tear
// point, so a counted fault is always a delivered one.
func TestShortReadTearsTinyBodies(t *testing.T) {
	for _, size := range []int{0, 2} {
		tr := &fault.Transport{Base: &okBase{body: strings.Repeat("x", size)}, Seed: 1, Profile: fault.FleetProfile{ShortRead: 1000}}
		req, _ := http.NewRequest(http.MethodGet, "http://coord.test/v1/status", nil)
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatalf("%d-byte body: %v", size, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !errors.Is(err, fault.ErrInjected) {
			t.Errorf("%d-byte body: read %q with error %v, want the injected tear", size, data, err)
		}
		if tr.Injected() != 1 {
			t.Errorf("%d-byte body: Injected() = %d, want 1", size, tr.Injected())
		}
	}
}

// TestSeedsFromEnv covers the one seed knob: unset runs the defaults,
// a set value runs that seed alone.
func TestSeedsFromEnv(t *testing.T) {
	t.Setenv("COOKIEWALK_SEED", "")
	if got := fault.Seeds(t, 1, 2, 3); fmt.Sprint(got) != "[1 2 3]" {
		t.Errorf("unset: %v, want [1 2 3]", got)
	}
	t.Setenv("COOKIEWALK_SEED", "7")
	if got := fault.Seeds(t, 1, 2, 3); fmt.Sprint(got) != "[7]" {
		t.Errorf("COOKIEWALK_SEED=7: %v, want [7]", got)
	}
}
