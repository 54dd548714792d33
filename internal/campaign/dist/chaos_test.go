package dist_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cookiewalk/internal/campaign"
	"cookiewalk/internal/campaign/dist"
	"cookiewalk/internal/fault"
	"cookiewalk/internal/xrand"
)

// TestFleetChaosMatrix drives a full fleet through the fault injector:
// every worker request passes a chaos transport (torn uploads, dropped
// responses, stalled heartbeats, duplicated requests, torn reads) and
// the coordinator answers through a 503-burst wrapper — all
// deterministic per seed. The fleet must still converge, and the
// assembled journals must replay byte-identically to a clean local
// run. COOKIEWALK_SEED runs one seed; without it seeds 1–3 run.
func TestFleetChaosMatrix(t *testing.T) {
	for _, seed := range fault.Seeds(t, 1, 2, 3) {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { runChaosFleet(t, seed) })
	}
}

func runChaosFleet(t *testing.T, seed uint64) {
	targets := testTargets(60)
	const shards = 4
	hash := campaign.HashTargets(targets)
	spec := dist.Spec{Label: "camp alpha", Targets: len(targets), TargetsHash: hash, Shards: shards}
	dir := t.TempDir()
	t.Cleanup(func() {
		if t.Failed() {
			fault.SaveArtifacts(t, fmt.Sprintf("fleet-chaos-seed-%d", seed), dir, nil)
		}
	})

	co, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Dir: dir, Specs: []dist.Spec{spec},
		// Generous enough that a healthy worker's heartbeats (TTL/3,
		// with the client's own retries) survive the fault rates; small
		// enough that a lease orphaned by a dropped response re-leases
		// within the test's patience.
		TTL: 500 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaosHandler := &fault.Handler{Inner: co.Handler(), Seed: seed, Burst: 25, Logf: t.Logf}
	srv := httptest.NewServer(chaosHandler)
	defer srv.Close()

	runner := func(ctx context.Context, lease dist.Lease, scratch string) (string, error) {
		cfg := campaign.Config{Label: lease.Label, Checkpoint: &campaign.Checkpoint{
			Dir: scratch, Codec: textCodec{}, TargetsHash: lease.TargetsHash,
		}}
		if _, err := campaign.RunRange(ctx, cfg, targets, lease.Shard, lease.Shards, visitTarget, nil); err != nil {
			return "", err
		}
		return filepath.Join(scratch, campaign.ShardFilename(lease.Shard)), nil
	}

	var transports []*fault.Transport
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		tr := &fault.Transport{
			Seed:    xrand.Mix64(seed, uint64(i)+100),
			Profile: fault.DefaultFleetProfile(),
			Logf:    t.Logf,
		}
		transports = append(transports, tr)
		client := &dist.Client{
			BaseURL:    srv.URL,
			HTTPClient: &http.Client{Transport: tr},
			Backoff:    5 * time.Millisecond,
			Seed:       xrand.Mix64(seed, uint64(i)),
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &dist.Worker{
				Client: client, Name: fmt.Sprintf("chaos-%d", i),
				Runner: runner, Poll: 10 * time.Millisecond, Logf: t.Logf,
			}
			errs[i] = w.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("chaos worker %d died: %v", i, err)
		}
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := co.Wait(waitCtx); err != nil {
		t.Fatalf("chaos fleet never converged: %v", err)
	}
	injected := uint64(chaosHandler.Injected())
	for _, tr := range transports {
		injected += tr.Injected()
	}
	t.Logf("chaos fleet converged through %d injected faults (status %+v)", injected, co.Status())
	if injected == 0 {
		t.Fatal("no faults injected — the chaos matrix tested nothing")
	}

	// The assembly must be indistinguishable from a clean local run.
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
