// Package dist distributes campaigns across machines on top of the
// journal substrate: a coordinator serves shard-range leases over
// HTTP, workers claim a lease, run the range through campaign.RunRange
// with a local checkpoint journal, and ship the finished journal back;
// the coordinator validates each shipment and assembles it into a
// standard checkpoint directory that campaign.Resume replays into a
// byte-identical single-machine result.
//
// The protocol is deliberately thin — four JSON/bytes endpoints:
//
//	GET  /v1/campaigns               campaign identities (label, size, hash, shards)
//	POST /v1/lease                   claim the next pending shard range
//	POST /v1/heartbeat               keep a lease alive
//	PUT  /v1/journal?lease=ID        ship a finished shard journal
//	GET  /v1/status                  coordinator counters
//
// Robustness model. A lease carries a TTL; workers heartbeat at TTL/3
// while crawling, and a worker silent past the TTL is presumed dead —
// its range returns to the pending queue and is re-leased to the next
// asker. Lease IDs fence: once a lease expires, its heartbeats and
// journal uploads are refused (HTTP 410), so a worker that was merely
// slow can never complete a range that has been re-leased out from
// under it. Shipped journals are validated frame by frame
// (campaign.CheckJournal: checksums intact, complete in-order coverage
// of exactly the leased range) before the atomic rename into the
// assembly directory, and the assembled directory carries the PR-4
// manifest identity guard (campaign.InitCheckpointDir), so a journal
// can never merge into — or later replay onto — the wrong campaign.
//
// The coordinator itself is crash-safe: every lease-ledger transition
// is appended to a durable checksummed log in the assembly dir (see
// ledger.go), and a coordinator restarted on the same directory
// recovers — merged ranges stay merged, unmerged ranges are re-leased,
// and leases from the dead incarnation are fenced with the same 410
// path. Workers classify failures accordingly: network errors and 5xx
// are transient (retry — the coordinator may be mid-restart), while
// 401, 410 and validation rejects are definitive.
//
// Determinism. Visits are pure functions of the universe seed, so a
// range journal has identical bytes no matter which worker produced it
// or how often a range was re-leased; the merge replays records in
// global index order through the existing Resume path, making the
// assembled report byte-identical to an uninterrupted local run's.
package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"cookiewalk/internal/xrand"
)

// Spec describes one distributable campaign: enough identity for a
// worker to verify it is crawling the same universe the coordinator is
// assembling (label + target count + campaign.HashTargets), plus the
// shard partitioning the coordinator leases out.
type Spec struct {
	Label       string `json:"label"`
	Targets     int    `json:"targets"`
	TargetsHash uint64 `json:"targets_hash"`
	Shards      int    `json:"shards"`
}

// Lease is one granted shard range: campaign identity, the global
// [Lo, Hi) target range to run as shard Shard of Shards, and the TTL
// the worker must heartbeat within.
type Lease struct {
	ID          string `json:"id"`
	Label       string `json:"label"`
	Shard       int    `json:"shard"`
	Shards      int    `json:"shards"`
	Lo          int    `json:"lo"`
	Hi          int    `json:"hi"`
	Targets     int    `json:"targets"`
	TargetsHash uint64 `json:"targets_hash"`
	TTLMillis   int64  `json:"ttl_ms"`
}

// TTL returns the lease's lifetime as a duration.
func (l Lease) TTL() time.Duration { return time.Duration(l.TTLMillis) * time.Millisecond }

// Status is a point-in-time snapshot of coordinator state.
type Status struct {
	Units   int `json:"units"`
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
	// Expired counts leases revoked after missing their TTL; each
	// revocation put its shard range back in the pending queue.
	Expired int `json:"expired"`
	// Incarnation counts coordinator starts over this assembly dir:
	// 1 for a fresh fleet, +1 per ledger recovery.
	Incarnation int `json:"incarnation"`
	// Recovered counts ranges found already merged (and re-verified)
	// when this incarnation replayed the lease ledger.
	Recovered int `json:"recovered"`
}

// Wire messages.
type campaignsReply struct {
	TTLMillis int64  `json:"ttl_ms"`
	Campaigns []Spec `json:"campaigns"`
}

type leaseRequest struct {
	Worker string `json:"worker"`
}

type leaseReply struct {
	Status  string `json:"status"` // "lease", "wait" or "done"
	Lease   *Lease `json:"lease,omitempty"`
	RetryMS int64  `json:"retry_ms,omitempty"`
}

type heartbeatRequest struct {
	LeaseID string `json:"lease_id"`
}

// LeaseReply is a worker-facing lease response: either a granted
// Lease, a Done campaign, or neither (every range currently leased —
// retry after Retry).
type LeaseReply struct {
	Done  bool
	Retry time.Duration
	Lease *Lease
}

// ErrLeaseLost reports a heartbeat or journal upload refused because
// the lease expired and its range went back to the pending queue (the
// coordinator's 410) — the worker holding it must abandon the range.
// Definitive: retrying the same lease ID can only ever yield another
// 410, including against a restarted coordinator (a recovery never
// resurrects the previous incarnation's leases).
var ErrLeaseLost = errors.New("dist: lease lost (expired and re-leased)")

// ErrUnauthorized reports a request refused by the coordinator's
// bearer-token check (HTTP 401). Definitive: the worker's token is
// wrong or missing, and no amount of retrying fixes credentials — the
// worker must exit rather than hammer a fleet it cannot join.
var ErrUnauthorized = errors.New("dist: unauthorized (missing or invalid fleet token)")

// TransientError marks a failure worth retrying at a higher level:
// the client exhausted its bounded retries against network errors, 5xx
// responses or torn response bodies — exactly what a coordinator
// restart looks like from outside. Workers keep polling through these
// (see Worker) instead of dying while the control plane is down.
type TransientError struct{ Err error }

func (e *TransientError) Error() string { return e.Err.Error() }
func (e *TransientError) Unwrap() error { return e.Err }

// IsTransient reports whether err is a retryable fleet failure, as
// opposed to a definitive refusal (ErrLeaseLost, ErrUnauthorized, a
// validation reject, a malformed reply).
func IsTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}

// Client speaks the coordinator protocol, transparently retrying
// transient failures (network errors, 5xx) with seeded-jitter bounded
// exponential backoff. Definitive answers — a lease, a 401, a 410
// fence, a validation reject — are never retried; exhausted transient
// retries surface as a *TransientError so callers can keep waiting out
// a coordinator restart.
type Client struct {
	// BaseURL locates the coordinator ("http://host:port").
	BaseURL string
	// Token, when non-empty, is sent as "Authorization: Bearer <Token>"
	// on every request (must match the coordinator's configured token).
	Token string
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries bounds retries of transient failures per call
	// (default 4).
	MaxRetries int
	// Backoff is the initial retry delay, doubled per attempt and
	// capped at 2s (default 100ms; see xrand.Backoff). Each delay is
	// jittered into [base/2, base] from Seed, so a fleet of workers
	// that lost the coordinator at the same instant does not return as
	// a synchronized thundering herd when it comes back.
	Backoff time.Duration
	// Seed drives the backoff jitter deterministically (0 is a valid
	// seed). Give each worker a distinct seed.
	Seed uint64
	// Sleep overrides how retry delays are waited out (tests inject a
	// fake sleeper to assert the schedule). nil means a real timer
	// honoring ctx cancellation.
	Sleep func(d time.Duration)

	// calls numbers do() invocations so jitter differs across calls,
	// not just across attempts within one call.
	calls atomic.Uint64
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// maxResponseBytes caps how much of one coordinator response the
// client reads. The largest reply, /v1/campaigns, is a few KiB even for
// the paper-scale study, so 1 MiB only ever cuts off a broken or
// hostile peer, which could otherwise make the worker buffer without
// bound.
const maxResponseBytes = 1 << 20

// maxRequestBytes caps the lease and heartbeat request bodies the
// coordinator reads. Both are one short JSON object, so 64 KiB only
// ever cuts off a broken or hostile peer, which could otherwise make
// the coordinator buffer without bound.
const maxRequestBytes = 64 << 10

// maxJournalBytes caps the journal PUT body the coordinator reads. The
// largest journal a paper-scale (scale 1) fleet ships is 326 707 bytes
// at the default 12 shards and 3 895 996 bytes with one shard per
// campaign, so 32 MiB only ever cuts off a broken or hostile peer,
// which could otherwise make the coordinator buffer without bound.
const maxJournalBytes = 32 << 20

// do issues one request with bounded-backoff retries of transient
// failures and returns the final response body and status code. A 401
// is definitive and returned as ErrUnauthorized, and so is a response
// body longer than maxResponseBytes; exhausted retries are returned as
// *TransientError.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte) ([]byte, int, error) {
	maxRetries := c.MaxRetries
	if maxRetries <= 0 {
		maxRetries = 4
	}
	call := c.calls.Add(1)
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if c.Token != "" {
			req.Header.Set("Authorization", "Bearer "+c.Token)
		}
		resp, err := c.httpClient().Do(req)
		if err == nil {
			data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
			resp.Body.Close()
			if rerr == nil && len(data) > maxResponseBytes {
				return nil, resp.StatusCode, fmt.Errorf("%s %s: response body exceeds %d bytes", method, path, maxResponseBytes)
			}
			if rerr == nil && resp.StatusCode == http.StatusUnauthorized {
				return nil, resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, ErrUnauthorized)
			}
			if rerr == nil && resp.StatusCode < 500 {
				return data, resp.StatusCode, nil
			}
			if rerr != nil {
				lastErr = fmt.Errorf("%s %s: read response: %w", method, path, rerr)
			} else {
				lastErr = fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
			}
		} else {
			lastErr = err
		}
		if attempt >= maxRetries {
			return nil, 0, &TransientError{Err: lastErr}
		}
		delay := xrand.Backoff(c.Seed, call, attempt, c.Backoff)
		if c.Sleep != nil {
			c.Sleep(delay)
		} else {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, 0, context.Cause(ctx)
			}
		}
	}
}

// Campaigns fetches the coordinator's campaign specs — the worker-side
// identity check before any lease is claimed.
func (c *Client) Campaigns(ctx context.Context) ([]Spec, error) {
	data, code, err := c.do(ctx, http.MethodGet, "/v1/campaigns", "", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("dist: campaigns: status %d: %s", code, bytes.TrimSpace(data))
	}
	var reply campaignsReply
	if err := json.Unmarshal(data, &reply); err != nil {
		return nil, fmt.Errorf("dist: campaigns: %w", err)
	}
	return reply.Campaigns, nil
}

// Lease asks for the next pending shard range.
func (c *Client) Lease(ctx context.Context, worker string) (LeaseReply, error) {
	body, _ := json.Marshal(leaseRequest{Worker: worker})
	data, code, err := c.do(ctx, http.MethodPost, "/v1/lease", "application/json", body)
	if err != nil {
		return LeaseReply{}, err
	}
	if code != http.StatusOK {
		return LeaseReply{}, fmt.Errorf("dist: lease: status %d: %s", code, bytes.TrimSpace(data))
	}
	var reply leaseReply
	if err := json.Unmarshal(data, &reply); err != nil {
		return LeaseReply{}, fmt.Errorf("dist: lease: %w", err)
	}
	switch reply.Status {
	case "done":
		return LeaseReply{Done: true}, nil
	case "wait":
		return LeaseReply{Retry: time.Duration(reply.RetryMS) * time.Millisecond}, nil
	case "lease":
		if reply.Lease == nil {
			return LeaseReply{}, fmt.Errorf("dist: lease: reply carries no lease")
		}
		return LeaseReply{Lease: reply.Lease}, nil
	}
	return LeaseReply{}, fmt.Errorf("dist: lease: unknown status %q", reply.Status)
}

// Heartbeat extends a lease's deadline; ErrLeaseLost means the lease
// expired and the range was (or will be) re-leased — abandon it.
func (c *Client) Heartbeat(ctx context.Context, leaseID string) error {
	body, _ := json.Marshal(heartbeatRequest{LeaseID: leaseID})
	data, code, err := c.do(ctx, http.MethodPost, "/v1/heartbeat", "application/json", body)
	if err != nil {
		return err
	}
	switch code {
	case http.StatusOK:
		return nil
	case http.StatusGone:
		return fmt.Errorf("dist: heartbeat %s: %w", leaseID, ErrLeaseLost)
	}
	return fmt.Errorf("dist: heartbeat %s: status %d: %s", leaseID, code, bytes.TrimSpace(data))
}

// ShipJournal uploads a finished shard journal. ErrLeaseLost means the
// range was re-leased (or already completed by its new holder) — the
// upload was refused and the worker should move on.
func (c *Client) ShipJournal(ctx context.Context, leaseID string, journal []byte) error {
	data, code, err := c.do(ctx, http.MethodPut, "/v1/journal?lease="+leaseID, "application/octet-stream", journal)
	if err != nil {
		return err
	}
	switch code {
	case http.StatusOK:
		return nil
	case http.StatusGone:
		return fmt.Errorf("dist: ship journal %s: %w", leaseID, ErrLeaseLost)
	}
	return fmt.Errorf("dist: ship journal %s: status %d: %s", leaseID, code, bytes.TrimSpace(data))
}
