package dist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"
)

// Worker is the fleet client loop: lease a shard range, run it through
// the Runner (which produces a finished shard journal on local disk),
// ship the journal back, repeat until the coordinator reports every
// range merged. Heartbeats run concurrently with the Runner at TTL/3;
// a fenced lease (the coordinator revoked it after a missed TTL)
// cancels the in-flight Runner and the range is dropped without error —
// some other worker owns it now.
//
// Workers outlive coordinator restarts: a transient lease failure (the
// client exhausted its retries against network errors or 5xx — what a
// coordinator crash or graceful shutdown looks like) keeps the worker
// polling until the endpoint returns, however long that takes; a
// finished journal whose every fresh upload dies on transport is
// abandoned the same way (the lease expires after its TTL and the
// range re-leases). Definitive refusals — a wrong token (401), a
// journal over the coordinator's cap (413), a journal the coordinator
// keeps rejecting, a Runner failure — are fatal and logged as such.
type Worker struct {
	// Client reaches the coordinator. Required.
	Client *Client
	// Name identifies this worker in coordinator logs.
	Name string
	// Runner executes one leased range: it must run the lease's global
	// [Lo, Hi) targets as shard Lease.Shard with a checkpoint journal
	// under dir, and return the path of the finished journal file.
	// Required.
	Runner func(ctx context.Context, lease Lease, dir string) (string, error)
	// Poll is the fallback wait when the coordinator says "wait"
	// without a retry hint, and the pause between lease attempts while
	// the coordinator is unreachable (default 500ms).
	Poll time.Duration
	// ShipRetries bounds fresh re-uploads of a finished journal after a
	// retryable shipping failure — a torn PUT that the coordinator
	// rejected (422) or a transient transport error (default 3). The
	// heartbeat keeps the lease alive between attempts, and each retry
	// is a complete fresh upload, never a resume of the torn one.
	ShipRetries int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 500 * time.Millisecond
}

// Run loops until the coordinator's campaigns are fully merged or ctx
// is canceled. Lost leases are not errors; an unreachable coordinator
// is waited out; Runner failures and definitive refusals are errors.
func (w *Worker) Run(ctx context.Context) error {
	if w.Client == nil || w.Runner == nil {
		return fmt.Errorf("dist: worker needs Client and Runner")
	}
	for {
		reply, err := w.Client.Lease(ctx, w.Name)
		switch {
		case err == nil:
		case IsTransient(err) && ctx.Err() == nil:
			// The coordinator is unreachable or erroring — possibly
			// mid-restart. Keep polling; its ledger recovery will hand
			// our ranges right back.
			w.logf("dist: worker %s: lease failed (retryable, coordinator may be restarting): %v", w.Name, err)
			select {
			case <-time.After(w.poll()):
			case <-ctx.Done():
				return context.Cause(ctx)
			}
			continue
		default:
			// 401, malformed reply, canceled context: no retry can
			// change the answer.
			return fmt.Errorf("dist: worker %s: fatal: %w", w.Name, err)
		}
		switch {
		case reply.Done:
			w.logf("dist: worker %s: all ranges merged, exiting", w.Name)
			return nil
		case reply.Lease == nil:
			wait := reply.Retry
			if wait <= 0 {
				wait = w.poll()
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return context.Cause(ctx)
			}
		default:
			if err := w.runLease(ctx, *reply.Lease); err != nil {
				return fmt.Errorf("dist: worker %s: fatal: %w", w.Name, err)
			}
		}
	}
}

// runLease executes one leased range end to end: scratch dir, Runner
// under a heartbeat, then journal shipping (with fresh-upload retries
// for torn or transiently failed PUTs). A lease lost at any stage
// abandons the range silently.
func (w *Worker) runLease(ctx context.Context, lease Lease) error {
	dir, err := os.MkdirTemp("", "cookiewalk-lease-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w.logf("dist: worker %s: running %s shard %d [%d,%d) under lease %s",
		w.Name, lease.Label, lease.Shard, lease.Lo, lease.Hi, lease.ID)

	// The heartbeat goroutine keeps the lease alive through both the
	// crawl and the upload, and cancels the lease context the moment
	// the coordinator fences us off.
	leaseCtx, cancel := context.WithCancelCause(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		interval := lease.TTL() / 3
		if interval <= 0 {
			interval = time.Second
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-leaseCtx.Done():
				return
			case <-tick.C:
				if err := w.Client.Heartbeat(leaseCtx, lease.ID); err != nil {
					if errors.Is(err, ErrLeaseLost) {
						cancel(ErrLeaseLost)
						return
					}
					// Transient heartbeat failures (after the client's own
					// retries) are survivable as long as one lands within
					// the TTL; keep ticking.
					w.logf("dist: worker %s: heartbeat %s failed (retryable): %v", w.Name, lease.ID, err)
				}
			}
		}
	}()
	stopHeartbeat := func() {
		cancel(nil)
		<-hbDone
	}

	journalPath, err := w.Runner(leaseCtx, lease, dir)
	if err != nil {
		stopHeartbeat()
		if errors.Is(err, ErrLeaseLost) || errors.Is(context.Cause(leaseCtx), ErrLeaseLost) {
			w.logf("dist: worker %s: lease %s lost mid-run, dropping range", w.Name, lease.ID)
			return nil
		}
		return err
	}
	err = w.shipWithRetry(leaseCtx, lease, journalPath)
	stopHeartbeat()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrLeaseLost) || errors.Is(context.Cause(leaseCtx), ErrLeaseLost):
		w.logf("dist: worker %s: lease %s lost before shipping, dropping range", w.Name, lease.ID)
		return nil
	case IsTransient(err) && ctx.Err() == nil:
		// Every fresh upload died on transport — the coordinator is
		// unreachable, likely mid-restart. Killing the worker here would
		// shrink the fleet exactly when it is already degraded; instead
		// abandon the range (our lease expires after its TTL and the
		// range re-leases — possibly right back to us) and return to the
		// lease loop, which waits the outage out.
		w.logf("dist: worker %s: abandoning lease %s after exhausted ship attempts (coordinator unreachable, range will re-lease): %v",
			w.Name, lease.ID, err)
		return nil
	}
	return err
}

// shipWithRetry uploads the finished journal, re-shipping a complete
// fresh copy after a retryable failure: a transient transport error,
// or a coordinator validation reject — which is what a PUT body torn
// in flight looks like from the merge side (the surviving prefix fails
// CheckJournal's coverage check, never its checksum guarantee). A lost
// lease, an auth refusal or a journal over the coordinator's cap (413)
// is definitive and returned as-is.
func (w *Worker) shipWithRetry(ctx context.Context, lease Lease, journalPath string) error {
	retries := w.ShipRetries
	if retries <= 0 {
		retries = 3
	}
	for attempt := 0; ; attempt++ {
		// Re-read per attempt: every upload is a fresh, complete copy
		// of the journal file.
		data, err := os.ReadFile(journalPath)
		if err != nil {
			return err
		}
		err = w.Client.ShipJournal(ctx, lease.ID, data)
		switch {
		case err == nil:
			w.logf("dist: worker %s: shipped %s shard %d (%d bytes)", w.Name, lease.Label, lease.Shard, len(data))
			return nil
		case errors.Is(err, ErrLeaseLost) || errors.Is(err, ErrUnauthorized) ||
			errors.Is(err, errJournalTooLarge) || ctx.Err() != nil:
			return err
		case attempt >= retries:
			return fmt.Errorf("ship journal %s: giving up after %d fresh uploads: %w", lease.ID, attempt+1, err)
		}
		w.logf("dist: worker %s: ship %s failed (retryable, fresh upload %d/%d): %v",
			w.Name, lease.ID, attempt+1, retries, err)
	}
}
