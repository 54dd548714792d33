package fault

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cookiewalk/internal/xrand"
)

// FleetProfile sets per-mille injection rates (out of 1000 requests),
// at most one fault per request. A rate whose fault does not apply to
// a given request (TornPut outside journal PUTs, StallHB outside
// heartbeats) passes the request through clean — the roll is still
// consumed, keeping the decision sequence deterministic regardless of
// request mix.
type FleetProfile struct {
	TornPut   int // PUT /v1/journal only: body truncated in flight
	StallHB   int // POST /v1/heartbeat only: never delivered
	Drop      int // server handled it, response lost
	ShortRead int // response body torn mid-read
	Err503    int // synthesized 503, server never reached
	Dup       int // request delivered twice
}

// DefaultFleetProfile is a noisy-but-survivable mix: roughly one
// request in four suffers a fault.
func DefaultFleetProfile() FleetProfile {
	return FleetProfile{TornPut: 60, StallHB: 50, Drop: 40, ShortRead: 40, Err503: 40, Dup: 30}
}

func (p FleetProfile) pick(roll uint64) kind {
	return pick(roll, rate{tornPut, p.TornPut}, rate{stallHB, p.StallHB}, rate{drop, p.Drop},
		rate{shortRead, p.ShortRead}, rate{err503, p.Err503}, rate{dup, p.Dup})
}

// Transport is a fault-injecting http.RoundTripper for fleet worker
// clients; each decision is a pure function of (Seed, request number).
// The invariants it probes are the fleet's real ones: a torn PUT must
// surface as a validation reject and be re-shipped fresh; a dropped
// lease response must expire into a re-lease; a duplicated upload must
// hit the lease fence, never a double merge. Safe for concurrent use.
type Transport struct {
	// Base performs the real requests (default http.DefaultTransport).
	Base http.RoundTripper
	// Seed drives every injection decision.
	Seed uint64
	// Profile sets the fault mix (zero value injects nothing; use
	// DefaultFleetProfile for the standard chaos mix).
	Profile FleetProfile
	// Logf, when non-nil, receives one line per injected fault.
	Logf func(format string, args ...any)

	n atomic.Uint64
	tally
}

// Injected reports how many faults this transport has injected.
func (t *Transport) Injected() uint64 { return t.total() }

func (t *Transport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

// RoundTrip buffers the request body, rolls one fault decision from
// (Seed, request number) and applies it. Fault kinds that do not fit
// the request pass it through untouched.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	send := func(b []byte) (*http.Response, error) {
		r := req.Clone(req.Context())
		r.Body = io.NopCloser(bytes.NewReader(b))
		r.ContentLength = int64(len(b))
		return t.base().RoundTrip(r)
	}
	discard := func(resp *http.Response) {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	h := xrand.Mix64(t.Seed, t.n.Add(1))
	k := t.Profile.pick(h % 1000)
	isJournalPut := req.Method == http.MethodPut && strings.HasPrefix(req.URL.Path, "/v1/journal")
	isHeartbeat := strings.HasSuffix(req.URL.Path, "/v1/heartbeat")
	injected := &faultError{kind: k, url: req.URL.String()}

	switch {
	case k == tornPut && isJournalPut && len(body) > 0:
		cut := int(xrand.Mix64(h, 1) % uint64(len(body)))
		t.add(k, t.Logf, "%s %s: cut %d of %d bytes", req.Method, req.URL.Path, cut, len(body))
		return send(body[:cut])

	case k == stallHB && isHeartbeat:
		t.add(k, t.Logf, "%s %s: heartbeat swallowed", req.Method, req.URL.Path)
		// A stalled heartbeat is one that never lands: burn a little
		// real time (so TTLs can lapse) and fail without sending.
		time.Sleep(2 * time.Millisecond)
		return nil, injected

	case k == drop:
		t.add(k, t.Logf, "%s %s: response dropped after delivery", req.Method, req.URL.Path)
		// The server fully handles the request; the worker never hears
		// about it.
		if resp, err := send(body); err == nil {
			discard(resp)
		}
		return nil, injected

	case k == shortRead:
		resp, err := send(body)
		if err != nil {
			return resp, err
		}
		t.add(k, t.Logf, "%s %s: response body torn", req.Method, req.URL.Path)
		resp.Body = &tornBody{rc: resp.Body, remaining: 3, err: injected}
		return resp, nil

	case k == err503:
		t.add(k, t.Logf, "%s %s: synthesized 503", req.Method, req.URL.Path)
		return resp503(req), nil

	case k == dup:
		t.add(k, t.Logf, "%s %s: request duplicated", req.Method, req.URL.Path)
		if first, err := send(body); err == nil {
			discard(first)
		}
		return send(body)
	}
	return send(body)
}

// Handler wraps the coordinator's handler with seeded 5xx bursts: with
// per-mille probability Burst a request opens a burst of 1–3
// consecutive further 503s (the burst length is also seed-derived),
// modeling a coordinator briefly overwhelmed or mid-restart behind a
// proxy.
type Handler struct {
	Inner http.Handler
	Seed  uint64
	// Burst is the per-mille chance a request starts a 503 burst
	// (0 disables injection).
	Burst int
	// Logf, when non-nil, receives one line per injected burst.
	Logf func(format string, args ...any)

	mu        sync.Mutex
	n         uint64
	burstLeft int
	tally
}

// Injected reports how many requests this handler has refused with an
// injected 503.
func (h *Handler) Injected() uint64 { return h.total() }

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	h.n++
	n, inject, started := h.n, false, 0
	if h.burstLeft > 0 {
		h.burstLeft--
		inject = true
	} else if h.Burst > 0 {
		roll := xrand.Mix64(h.Seed+1, h.n)
		if roll%1000 < uint64(h.Burst) {
			h.burstLeft = int(roll>>32%3) + 1
			inject, started = true, h.burstLeft+1
		}
	}
	h.mu.Unlock()
	if !inject {
		h.Inner.ServeHTTP(w, r)
		return
	}
	if started > 0 {
		h.add(err503, h.Logf, "burst of %d starting at request %d", started, n)
	} else {
		h.add(err503, nil, "")
	}
	http.Error(w, text503, http.StatusServiceUnavailable)
}
