// Package fault is the one seeded fault injector of the determinism
// harness. Its core — a per-mille pick, a torn body, a synthesized 503
// and one count/log path — serves two seams:
//
//   - visit (visit.go): Wrap puts a VisitTransport in front of the
//     browser's transport, on the zero-copy RoundTripBody fast path and
//     the plain http.RoundTripper path alike, and injects timeouts,
//     connection resets, 503s, truncated bodies and stalls.
//   - fleet (fleet.go): Transport sits in a fleet worker's HTTP client
//     (torn journal PUTs, stalled heartbeats, dropped responses, torn
//     reads, 503s, duplicated requests) and Handler in front of the
//     coordinator (503 bursts).
//
// Determinism contract. Every decision is a pure function of the seed
// and a request key: (method, URL, retry attempt) on the visit seam, a
// request counter on the fleet seam. A failing chaos run therefore
// replays exactly from its seed. The injector only does to requests
// what networks and crashes do — fail, truncate, delay, drop, repeat,
// refuse — and never forges protocol messages.
//
// The package also holds the harness's two environment knobs (env.go):
// COOKIEWALK_SEED picks the seed a determinism test runs, and
// COOKIEWALK_ARTIFACTS names where a failing test copies its state.
package fault

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
)

// kind is one fault kind; clean means no fault.
type kind uint8

const (
	clean kind = iota
	timeout
	reset
	err503
	truncate
	stall
	tornPut
	stallHB
	drop
	shortRead
	dup
	numKinds
)

var kindNames = [numKinds]string{"clean", "timeout", "reset", "503", "truncate", "stall",
	"torn-put", "stall-hb", "drop", "short-read", "dup"}

func (k kind) String() string { return kindNames[k] }

// rate is one fault kind's per-mille share of requests.
type rate struct {
	kind kind
	pm   int
}

// pick maps a roll in [0, 1000) to a fault kind by walking cumulative
// per-mille thresholds in order. A rate ≤ 0 is skipped: it never fires
// and never shifts the thresholds of the kinds after it.
func pick(roll uint64, rates ...rate) kind {
	cum := uint64(0)
	for _, r := range rates {
		if r.pm <= 0 {
			continue
		}
		cum += uint64(r.pm)
		if roll < cum {
			return r.kind
		}
	}
	return clean
}

// ErrInjected is wrapped by every injected failure, so tests can tell
// injected faults from real transport errors with errors.Is.
var ErrInjected = errors.New("fault: injected")

// faultError is every injected failure: transient (the browser's retry
// loop classifies it structurally; the fleet client retries any
// transport error), wrapping ErrInjected, with deterministic text — no
// attempt numbers, so an exhausted-retry error journaled by a campaign
// has stable bytes.
type faultError struct {
	kind kind
	url  string
}

func (e *faultError) Error() string   { return fmt.Sprintf("fault: injected %s: %s", e.kind, e.url) }
func (e *faultError) Unwrap() error   { return ErrInjected }
func (e *faultError) Transient() bool { return true }
func (e *faultError) Timeout() bool   { return e.kind == timeout }

// text503 is the body of every synthesized 503.
const text503 = "injected 503: service unavailable"

// resp503 is a 503 response synthesized without reaching the server.
func resp503(req *http.Request) *http.Response {
	const body = text503 + "\n"
	return &http.Response{
		Status:        "503 Service Unavailable",
		StatusCode:    http.StatusServiceUnavailable,
		Header:        http.Header{},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// tornBody yields at most remaining bytes of rc and then fails with
// err instead of EOF — also when rc ends sooner, so a tear fires
// whatever the body's size and a reader never mistakes partial bytes
// for a whole body.
type tornBody struct {
	rc        io.ReadCloser
	remaining int
	err       error
}

func (b *tornBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, b.err
	}
	if len(p) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.rc.Read(p)
	b.remaining -= n
	if err == io.EOF {
		return n, b.err
	}
	return n, err
}

func (b *tornBody) Close() error { return b.rc.Close() }

// tally counts injected faults by kind. Safe for concurrent use.
type tally struct{ n [numKinds]atomic.Uint64 }

// add counts one injected k and, when logf is non-nil, logs it.
func (t *tally) add(k kind, logf func(format string, args ...any), format string, args ...any) {
	t.n[k].Add(1)
	if logf != nil {
		logf("fault: %s: %s", k, fmt.Sprintf(format, args...))
	}
}

func (t *tally) total() uint64 {
	sum := uint64(0)
	for i := range t.n {
		sum += t.n[i].Load()
	}
	return sum
}
