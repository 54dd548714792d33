package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// spin burns a little CPU proportional to x so visits finish out of
// order under concurrency without nondeterministic sleeps.
func spin(x int) int {
	h := x
	for i := 0; i < (x%7)*500; i++ {
		h = h*31 + i
	}
	return h
}

// TestRunDeliversInOrder pins the engine's core guarantee: the sink
// sees every result exactly once, in input order, for ANY combination
// of worker, shard and window sizes — so a streaming aggregator's
// output can never depend on scheduling. Window 1 is the tightest case
// of ring-slot ownership: every delivery hands its one slot straight
// back to a worker.
func TestRunDeliversInOrder(t *testing.T) {
	targets := make([]int, 503)
	for i := range targets {
		targets[i] = i
	}
	visit := func(_ context.Context, x int) (string, error) {
		spin(x)
		return fmt.Sprintf("v%d", x), nil
	}
	var reference []string
	for _, window := range []int{8, 1} {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			for _, shards := range []int{1, 3, 7} {
				var got []string
				lastIdx := -1
				stats, err := Run(context.Background(),
					Config{Workers: workers, Shards: shards, Window: window},
					targets, visit, func(r Result[string]) {
						if r.Index != lastIdx+1 {
							t.Fatalf("win=%d w=%d s=%d: index %d delivered after %d", window, workers, shards, r.Index, lastIdx)
						}
						lastIdx = r.Index
						got = append(got, r.Value)
					})
				if err != nil {
					t.Fatalf("win=%d w=%d s=%d: %v", window, workers, shards, err)
				}
				if stats.Done != int64(len(targets)) || stats.Errors != 0 || stats.Canceled != 0 {
					t.Fatalf("win=%d w=%d s=%d: stats = %+v", window, workers, shards, stats)
				}
				if len(stats.Shards) != shards {
					t.Fatalf("win=%d w=%d s=%d: %d shard stats", window, workers, shards, len(stats.Shards))
				}
				if reference == nil {
					reference = got
					continue
				}
				if strings.Join(got, ",") != strings.Join(reference, ",") {
					t.Fatalf("win=%d w=%d s=%d: delivery sequence differs", window, workers, shards)
				}
			}
		}
	}
}

// TestRunOrderedAppendMaterialization checks the streaming contract
// the experiment paths build on since Map's removal: appending each
// delivered value reproduces the positional layout (out[i] belongs to
// targets[i]), with errored visits keeping their partial value in
// place.
func TestRunOrderedAppendMaterialization(t *testing.T) {
	targets := []string{"a", "b", "c", "d"}
	out := make([]string, 0, len(targets))
	stats, err := Run(context.Background(), Config{Workers: 3}, targets,
		func(_ context.Context, s string) (string, error) {
			if s == "c" {
				return "C!", errors.New("boom")
			}
			return strings.ToUpper(s), nil
		},
		func(r Result[string]) {
			if r.Index != len(out) {
				t.Errorf("delivery index %d out of order (have %d values)", r.Index, len(out))
			}
			out = append(out, r.Value)
		})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"A", "B", "C!", "D"}; fmt.Sprint(out) != fmt.Sprint(want) {
		t.Fatalf("out = %v", out)
	}
	if stats.Errors != 1 || stats.Done != 4 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestPerShardErrorAccounting injects failures at known indices and
// checks they land in the right shard's ledger.
func TestPerShardErrorAccounting(t *testing.T) {
	const n, shards = 100, 4
	failing := map[int]bool{3: true, 24: true, 25: true, 26: true, 99: true}
	targets := make([]int, n)
	for i := range targets {
		targets[i] = i
	}
	stats, err := Run(context.Background(), Config{Workers: 4, Shards: shards}, targets,
		func(_ context.Context, x int) (int, error) {
			if failing[x] {
				return 0, errors.New("injected")
			}
			return x, nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != int64(len(failing)) {
		t.Fatalf("total errors = %d, want %d", stats.Errors, len(failing))
	}
	// Shards are contiguous equal ranges: [0,25) [25,50) [50,75) [75,100).
	wantPerShard := []int{2, 2, 0, 1}
	for i, sh := range stats.Shards {
		if sh.Targets != 25 {
			t.Fatalf("shard %d targets = %d", i, sh.Targets)
		}
		if sh.Errors != int64(wantPerShard[i]) {
			t.Fatalf("shard %d errors = %d, want %d", i, sh.Errors, wantPerShard[i])
		}
	}
}

// TestCancellationPromptNoLeaks cancels a campaign whose visits block
// on the context and asserts Run returns promptly, accounts every
// target, and leaves no goroutine behind.
func TestCancellationPromptNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	targets := make([]int, 200)
	for i := range targets {
		targets[i] = i
	}
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	visit := func(ctx context.Context, x int) (int, error) {
		if started.Add(1) > 20 {
			// Visits after the 20th hang until canceled — the engine must
			// not wait on the undispatched tail.
			<-ctx.Done()
			return 0, ctx.Err()
		}
		return x, nil
	}
	done := make(chan struct{})
	var stats Stats
	var runErr error
	go func() {
		defer close(done)
		stats, runErr = Run(ctx, Config{Workers: 4, Shards: 2, Window: 8}, targets, visit, nil)
	}()
	for started.Load() <= 20 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return within 5s of cancellation")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", runErr)
	}
	if stats.Done+stats.Canceled != int64(len(targets)) {
		t.Fatalf("done %d + canceled %d != %d targets", stats.Done, stats.Canceled, len(targets))
	}
	if stats.Canceled == 0 {
		t.Fatal("expected canceled targets")
	}
	// Engine goroutines must all have exited (give the runtime a moment).
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		if i > 100 {
			t.Fatalf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelBeforeRun: an already-canceled context visits nothing.
func TestCancelBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sinkCalls := 0
	stats, err := Run(ctx, Config{Shards: 3}, []int{1, 2, 3, 4, 5},
		func(_ context.Context, x int) (int, error) { return x, nil },
		func(Result[int]) { sinkCalls++ })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if stats.Canceled != 5 || stats.Done != 0 || sinkCalls != 0 {
		t.Fatalf("stats = %+v, sink calls = %d", stats, sinkCalls)
	}
}

// TestCancellationCause propagates context.Cause through Run.
func TestCancellationCause(t *testing.T) {
	cause := errors.New("operator abort")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	_, err := Run(ctx, Config{}, []int{1, 2},
		func(_ context.Context, x int) (int, error) { return x, nil }, nil)
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want cause", err)
	}
}

// TestWorkerConcurrencyBound: never more simultaneous visits than the
// worker pool size.
func TestWorkerConcurrencyBound(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	targets := make([]int, 64)
	_, err := Run(context.Background(), Config{Workers: workers, Shards: 2}, targets,
		func(_ context.Context, x int) (int, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			spin(x + 5)
			inFlight.Add(-1)
			return x, nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrent visits = %d > %d workers", p, workers)
	}
}

// TestProgressMonotonic: progress snapshots count up and end at Total.
func TestProgressMonotonic(t *testing.T) {
	targets := make([]int, 40)
	var snaps []Progress
	_, err := Run(context.Background(),
		Config{Workers: 2, Shards: 4, ProgressEvery: 3, Label: "probe",
			OnProgress: func(p Progress) { snaps = append(snaps, p) }},
		targets,
		func(_ context.Context, x int) (int, error) { return x, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress callbacks")
	}
	var lastDone int64 = -1
	for _, p := range snaps {
		if p.Label != "probe" || p.Total != 40 {
			t.Fatalf("snapshot = %+v", p)
		}
		if p.Done < lastDone {
			t.Fatalf("progress went backwards: %d after %d", p.Done, lastDone)
		}
		lastDone = p.Done
	}
	if final := snaps[len(snaps)-1]; final.Done != 40 || final.Shard != 4 {
		t.Fatalf("final snapshot = %+v", final)
	}
}

// TestDefaultShards pins the derivation used for paper-scale campaigns.
func TestDefaultShards(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 1}, {1, 1}, {4096, 1}, {4097, 2}, {45222, 12}, {1 << 20, 64},
	} {
		if got := DefaultShards(tc.n); got != tc.want {
			t.Errorf("DefaultShards(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestEmptyTargets: a zero-target campaign completes trivially.
func TestEmptyTargets(t *testing.T) {
	stats, err := Run(context.Background(), Config{}, nil,
		func(_ context.Context, x int) (int, error) { return x, nil }, nil)
	if err != nil || stats.Done != 0 || len(stats.Shards) != 1 {
		t.Fatalf("stats = %+v, err = %v", stats, err)
	}
}

// TestRunAllocationsIndependentOfTargets: workers write results
// straight into the delivery ring, which the window sizes once per run,
// so a run's allocations do not grow with its target count. A sink that
// stalls now and then lets the workers fill the window, so any per-result
// buffer outside the ring would show here.
func TestRunAllocationsIndependentOfTargets(t *testing.T) {
	visit := func(_ context.Context, x int) (int, error) { return x, nil }
	sink := func(r Result[int]) {
		if r.Index%50 == 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	allocs := func(n int) float64 {
		targets := testTargets(n)
		cfg := Config{Workers: 4, Shards: 1}
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(context.Background(), cfg, targets, visit, sink); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(500), allocs(5000)
	if large > small+2 {
		t.Fatalf("campaign allocations grow with targets: %v for 500, %v for 5000", small, large)
	}
}
