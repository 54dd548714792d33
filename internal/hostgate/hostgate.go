// Package hostgate enforces per-host circuit breaking for a crawl: a
// host's breaker opens after N consecutive request-level failures and
// admits a single half-open probe after a cooldown. One Gate is shared
// by every worker goroutine and every shard of a campaign, so a host
// judged down stays down for the whole process no matter how the crawl
// is parallelized.
//
// Protocol. Admit is called once per LOGICAL request — in-request
// retries are not re-admitted — and may claim the host's single
// half-open probe slot. An admitted request owes the gate exactly one
// terminal call on every exit path: Report when its final outcome is a
// verdict on transport health, or Abandon when it is not (ctx
// cancellation, deterministic web-content failures). A claimed probe
// slot that is never settled would deny the host forever, so the
// pairing is an invariant, not a courtesy.
//
// Determinism contract. The breaker counts only *final* request
// outcomes — a request that succeeds after in-request retries reports
// success — so on a transport whose every target eventually succeeds
// within the retry budget the breaker never accumulates a failure and
// never opens: the gate is provably inert and cannot perturb
// byte-identical golden runs.
package hostgate

import (
	"fmt"
	"sync"
	"time"
)

// Config tunes a Gate. BreakerThreshold <= 0 disables circuit
// breaking, and with it the Gate.
type Config struct {
	// BreakerThreshold opens a host's breaker after this many
	// consecutive failed requests (final outcomes, post-retry).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker blocks a host before
	// admitting a half-open probe (default 30s).
	BreakerCooldown time.Duration

	// Now is injectable for tests. Nil means real time.
	Now func() time.Time
}

// circuitOpenError is returned by Admit while a host's breaker is open.
// It is definitive for the current request: retrying immediately
// cannot help, the visit should fail fast and be accounted as a visit
// error.
type circuitOpenError struct{ host string }

func (e *circuitOpenError) Error() string {
	return fmt.Sprintf("hostgate: circuit open for host %q", e.host)
}

// CircuitOpen marks the error structurally so callers can classify it
// without importing this package.
func (e *circuitOpenError) CircuitOpen() bool { return true }

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

type hostState struct {
	mu sync.Mutex

	state    breakerState
	failures int       // consecutive final failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
}

// Gate is the shared per-host admission controller. The zero Gate is
// not usable; construct with New.
type Gate struct {
	cfg   Config
	mu    sync.Mutex // guards hosts map only
	hosts map[string]*hostState
}

// New returns a Gate for cfg. A nil return means cfg enables nothing —
// callers can skip the gate entirely.
func New(cfg Config) *Gate {
	if cfg.BreakerThreshold <= 0 {
		return nil
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 30 * time.Second
	}
	return &Gate{cfg: cfg, hosts: make(map[string]*hostState)}
}

func (g *Gate) now() time.Time {
	if g.cfg.Now != nil {
		return g.cfg.Now()
	}
	return time.Now()
}

func (g *Gate) host(host string) *hostState {
	g.mu.Lock()
	defer g.mu.Unlock()
	h := g.hosts[host]
	if h == nil {
		h = &hostState{}
		g.hosts[host] = h
	}
	return h
}

// Admit checks host's breaker and admits or refuses one logical
// request: it fails fast with a circuit-open error while the breaker is
// open, and admits a single half-open probe when the cooldown has
// elapsed. Call it once per logical request — the breaker judges final
// outcomes, and the probe slot belongs to the whole request including
// its in-request retries. An admitted caller MUST settle the admission
// with exactly one Report or Abandon on every exit path.
func (g *Gate) Admit(host string) error {
	if g == nil || g.cfg.BreakerThreshold <= 0 {
		return nil
	}
	h := g.host(host)
	h.mu.Lock()
	switch h.state {
	case breakerOpen:
		if g.now().Sub(h.openedAt) >= g.cfg.BreakerCooldown {
			// Cooldown elapsed: admit exactly one probe.
			h.state = breakerHalfOpen
			h.probing = true
		} else {
			h.mu.Unlock()
			return &circuitOpenError{host: host}
		}
	case breakerHalfOpen:
		if h.probing {
			// Another request owns the probe; fail fast rather than
			// pile onto a host we believe is down.
			h.mu.Unlock()
			return &circuitOpenError{host: host}
		}
		h.probing = true
	}
	h.mu.Unlock()
	return nil
}

// Report records a request's FINAL outcome for host (after the
// browser's in-request retries resolved it) and returns true when this
// report tripped the breaker open. Success closes a half-open breaker
// and clears the failure streak; failure in half-open re-opens
// immediately; BreakerThreshold consecutive failures open a closed
// breaker.
func (g *Gate) Report(host string, failed bool) bool {
	if g == nil || g.cfg.BreakerThreshold <= 0 {
		return false
	}
	h := g.host(host)
	h.mu.Lock()
	tripped := false
	switch h.state {
	case breakerClosed:
		if failed {
			h.failures++
			if h.failures >= g.cfg.BreakerThreshold {
				h.state = breakerOpen
				h.openedAt = g.now()
				tripped = true
			}
		} else {
			h.failures = 0
		}
	case breakerHalfOpen:
		h.probing = false
		if failed {
			// The probe failed: back to open, restart the cooldown.
			h.state = breakerOpen
			h.openedAt = g.now()
			h.failures = g.cfg.BreakerThreshold
			tripped = true
		} else {
			h.state = breakerClosed
			h.failures = 0
		}
	case breakerOpen:
		// A straggler request admitted before the breaker opened is
		// still informative: success heals the host early.
		if !failed {
			h.state = breakerClosed
			h.failures = 0
		}
	}
	h.mu.Unlock()
	return tripped
}

// Abandon settles an admission without a verdict on transport health:
// it releases the half-open probe slot (when the host is mid-probe)
// and leaves failure streaks, breaker state and the cooldown clock
// untouched. Use it when an admitted request ends in ctx cancellation
// or a failure that is deterministic web content rather than weather —
// outcomes the breaker must not count, but whose claimed probe slot
// must not outlive the request.
func (g *Gate) Abandon(host string) {
	if g == nil || g.cfg.BreakerThreshold <= 0 {
		return
	}
	h := g.host(host)
	h.mu.Lock()
	if h.state == breakerHalfOpen {
		h.probing = false
	}
	h.mu.Unlock()
}
