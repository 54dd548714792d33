package dist_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cookiewalk/internal/campaign"
	"cookiewalk/internal/campaign/dist"
)

// textCodec journals string results.
type textCodec struct{}

func (textCodec) Append(dst []byte, v any) ([]byte, error) { return append(dst, *v.(*string)...), nil }
func (textCodec) DecodeInto(data []byte, v any) error {
	*v.(*string) = string(data)
	return nil
}

// fakeClock is a hand-advanced clock for deterministic lease-expiry
// tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func testTargets(n int) []string {
	targets := make([]string, n)
	for i := range targets {
		targets[i] = fmt.Sprintf("site-%03d.example", i)
	}
	return targets
}

func visitTarget(_ context.Context, d string) (string, error) { return "visited:" + d, nil }

// rangeJournal produces a valid shard journal for one range of the
// campaign, the way a worker's RunRange would.
func rangeJournal(t *testing.T, label string, targets []string, shard, shards int) []byte {
	t.Helper()
	dir := t.TempDir()
	cfg := campaign.Config{Label: label, Checkpoint: &campaign.Checkpoint{
		Dir: dir, Codec: textCodec{}, TargetsHash: campaign.HashTargets(targets),
	}}
	if _, err := campaign.RunRange(context.Background(), cfg, targets, shard, shards, visitTarget, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, campaign.ShardFilename(shard)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// newTestCoordinator spins up a coordinator over one small campaign
// and an httptest server for it.
func newTestCoordinator(t *testing.T, targets []string, shards int, ttl time.Duration, now func() time.Time) (*dist.Coordinator, *dist.Client, string) {
	t.Helper()
	dir := t.TempDir()
	co, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Dir: dir,
		Specs: []dist.Spec{{
			Label: "camp alpha", Targets: len(targets),
			TargetsHash: campaign.HashTargets(targets), Shards: shards,
		}},
		TTL: ttl,
		Now: now,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(co.Handler())
	t.Cleanup(srv.Close)
	client := &dist.Client{BaseURL: srv.URL, MaxRetries: 1, Backoff: time.Millisecond}
	return co, client, dir
}

// TestLeaseExpiryAndFencing drives the lost-worker path with a fake
// clock: a lease that misses its TTL is revoked and its range
// re-leased, and the stale lease is fenced off from both heartbeats
// and journal uploads — even with perfectly valid journal bytes.
func TestLeaseExpiryAndFencing(t *testing.T) {
	targets := testTargets(20)
	clock := &fakeClock{t: time.Unix(1000, 0)}
	co, client, dir := newTestCoordinator(t, targets, 2, time.Minute, clock.now)
	ctx := context.Background()

	reply, err := client.Lease(ctx, "w1")
	if err != nil || reply.Lease == nil {
		t.Fatalf("lease: %+v, %v", reply, err)
	}
	lease1 := *reply.Lease
	if lease1.Shard != 0 || lease1.Lo != 0 || lease1.Hi != 10 {
		t.Fatalf("first lease = %+v", lease1)
	}

	// Heartbeats inside the TTL keep the lease alive across several
	// TTL-multiples of wall time.
	for i := 0; i < 4; i++ {
		clock.advance(40 * time.Second)
		if err := client.Heartbeat(ctx, lease1.ID); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}

	// Silence past the TTL: the lease dies, the range is re-leased.
	clock.advance(2 * time.Minute)
	if err := client.Heartbeat(ctx, lease1.ID); !errors.Is(err, dist.ErrLeaseLost) {
		t.Fatalf("stale heartbeat: %v", err)
	}
	if st := co.Status(); st.Expired != 1 || st.Pending != 2 {
		t.Fatalf("status after expiry = %+v", st)
	}
	reply, err = client.Lease(ctx, "w2")
	if err != nil || reply.Lease == nil {
		t.Fatalf("re-lease: %+v, %v", reply, err)
	}
	lease2 := *reply.Lease
	if lease2.Shard != 0 || lease2.ID == lease1.ID {
		t.Fatalf("re-lease = %+v (old ID %s)", lease2, lease1.ID)
	}

	// The zombie ships a perfectly valid journal under the revoked
	// lease: refused, and nothing lands in the assembly dir.
	journal := rangeJournal(t, "camp alpha", targets, 0, 2)
	if err := client.ShipJournal(ctx, lease1.ID, journal); !errors.Is(err, dist.ErrLeaseLost) {
		t.Fatalf("stale ship: %v", err)
	}
	merged := filepath.Join(dir, campaign.PathLabel("camp alpha"), campaign.ShardFilename(0))
	if _, err := os.Stat(merged); !os.IsNotExist(err) {
		t.Fatalf("stale journal merged: %v", err)
	}

	// The new holder ships the same bytes: accepted.
	if err := client.ShipJournal(ctx, lease2.ID, journal); err != nil {
		t.Fatalf("ship: %v", err)
	}
	if _, err := os.Stat(merged); err != nil {
		t.Fatalf("journal not merged: %v", err)
	}
	if st := co.Status(); st.Done != 1 || st.Leased != 0 {
		t.Fatalf("status after merge = %+v", st)
	}
}

// TestJournalValidationRejects: a corrupt or wrong-range upload is
// refused WITHOUT killing the lease — the worker can retry with good
// bytes.
func TestJournalValidationRejects(t *testing.T) {
	targets := testTargets(20)
	clock := &fakeClock{t: time.Unix(1000, 0)}
	_, client, _ := newTestCoordinator(t, targets, 2, time.Minute, clock.now)
	ctx := context.Background()

	reply, err := client.Lease(ctx, "w1")
	if err != nil || reply.Lease == nil {
		t.Fatalf("lease: %+v, %v", reply, err)
	}
	lease := *reply.Lease

	if err := client.ShipJournal(ctx, lease.ID, []byte("garbage")); err == nil {
		t.Fatal("garbage journal accepted")
	}
	// A valid journal for the WRONG range (shard 1's) is also refused.
	wrong := rangeJournal(t, "camp alpha", targets, 1, 2)
	if err := client.ShipJournal(ctx, lease.ID, wrong); err == nil {
		t.Fatal("wrong-range journal accepted")
	}
	// The lease survived both rejects.
	right := rangeJournal(t, "camp alpha", targets, 0, 2)
	if err := client.ShipJournal(ctx, lease.ID, right); err != nil {
		t.Fatalf("valid retry refused: %v", err)
	}
}

// TestWorkerFleetWithLostWorker is the engine-level end-to-end: a
// saboteur claims a lease and goes silent (the in-process stand-in
// for a SIGKILLed worker), real workers drain everything else, the
// saboteur's range expires and is re-crawled — and the assembled
// directory replays through Resume with the exact delivery sequence
// of a local single-machine Run.
func TestWorkerFleetWithLostWorker(t *testing.T) {
	targets := testTargets(60)
	const shards = 4
	hash := campaign.HashTargets(targets)

	dir := t.TempDir()
	co, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Dir: dir,
		Specs: []dist.Spec{{
			Label: "camp alpha", Targets: len(targets), TargetsHash: hash, Shards: shards,
		}},
		TTL: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	client := &dist.Client{BaseURL: srv.URL, MaxRetries: 2, Backoff: time.Millisecond}

	// The saboteur claims the first range and is never heard from again.
	reply, err := client.Lease(context.Background(), "saboteur")
	if err != nil || reply.Lease == nil {
		t.Fatalf("saboteur lease: %+v, %v", reply, err)
	}
	killed := *reply.Lease

	runner := func(ctx context.Context, lease dist.Lease, scratch string) (string, error) {
		cfg := campaign.Config{Label: lease.Label, Checkpoint: &campaign.Checkpoint{
			Dir: scratch, Codec: textCodec{}, TargetsHash: lease.TargetsHash,
		}}
		if _, err := campaign.RunRange(ctx, cfg, targets, lease.Shard, lease.Shards, visitTarget, nil); err != nil {
			return "", err
		}
		return filepath.Join(scratch, campaign.ShardFilename(lease.Shard)), nil
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &dist.Worker{
				Client: client,
				Name:   fmt.Sprintf("worker-%d", i),
				Runner: runner,
				Poll:   20 * time.Millisecond,
			}
			errs[i] = w.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := co.Wait(waitCtx); err != nil {
		t.Fatalf("coordinator never finished: %v", err)
	}
	st := co.Status()
	if st.Done != shards || st.Expired < 1 {
		t.Fatalf("status = %+v (want %d done, >=1 expired for lease %s)", st, shards, killed.ID)
	}

	// The assembled campaign replays byte-identically to a local run.
	var want, got []string
	sink := func(out *[]string) func(campaign.Result[string]) {
		return func(r campaign.Result[string]) { *out = append(*out, fmt.Sprintf("%d:%s", r.Index, r.Value)) }
	}
	if _, err := campaign.Run(context.Background(), campaign.Config{Label: "camp alpha", Shards: shards},
		targets, visitTarget, sink(&want)); err != nil {
		t.Fatal(err)
	}
	rcfg := campaign.Config{Label: "camp alpha", Checkpoint: &campaign.Checkpoint{
		Dir: filepath.Join(dir, campaign.PathLabel("camp alpha")), Codec: textCodec{}, TargetsHash: hash,
	}}
	stats, err := campaign.Resume(context.Background(), rcfg, targets,
		func(_ context.Context, d string) (string, error) {
			t.Errorf("assembled resume re-visited %s", d)
			return "", nil
		}, sink(&got))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != int64(len(targets)) {
		t.Fatalf("replayed %d of %d", stats.Replayed, len(targets))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("delivery %d: got %q, want %q", i, got[i], want[i])
		}
	}
}
