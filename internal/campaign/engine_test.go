package campaign

import (
	"cmp"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// meteredVisit is testVisit plus resilience events: every target
// reports x%3 retries and multiples of 5 a breaker trip and denial, so
// the shard accounts carry all seven counters.
func meteredVisit(ctx context.Context, x int) (string, error) {
	m := MeterFrom(ctx)
	for i := 0; i < x%3; i++ {
		m.VisitRetry()
	}
	if x%5 == 0 {
		m.BreakerTrip()
		m.BreakerDenial()
	}
	return testVisit(ctx, x)
}

// TestRunRangeMatchesRunShards pins the one-engine contract: a shard
// run alone through RunRange gets exactly the account that shard gets
// inside a full Run.
func TestRunRangeMatchesRunShards(t *testing.T) {
	const shards = 5
	targets := testTargets(47)
	cfg := Config{Workers: 3, Shards: shards}
	full, err := Run(context.Background(), cfg, targets, meteredVisit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Shards) != shards || full.Retries == 0 || full.BreakerTrips == 0 || full.Errors == 0 {
		t.Fatalf("full run = %+v, want %d shards with every counter exercised", full, shards)
	}
	for s, want := range full.Shards {
		got, err := RunRange(context.Background(), cfg, targets, s, shards, meteredVisit, nil)
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		if got.Targets != want.Targets || got.Counts != want.Counts {
			t.Fatalf("shard %d: RunRange = %d targets %+v, Run's shard = %d targets %+v",
				s, got.Targets, got.Counts, want.Targets, want.Counts)
		}
	}
}

// TestRunRangeCanceledBeforeStart: a range whose context is already
// canceled visits nothing, accounts every target as canceled, returns
// the cause and opens no shard journal.
func TestRunRangeCanceledBeforeStart(t *testing.T) {
	cause := errors.New("lease lost")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	dir := t.TempDir()
	cfg := Config{Checkpoint: &Checkpoint{Dir: dir, Codec: stringCodec{}}}
	targets := testTargets(20)
	stats, err := RunRange(ctx, cfg, targets, 1, 2,
		func(context.Context, int) (string, error) {
			t.Error("visit called on a canceled range")
			return "", nil
		}, nil)
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the cause", err)
	}
	if stats.Targets != 10 || stats.Canceled != 10 || stats.Done != 0 {
		t.Fatalf("stats = %+v, want all 10 targets canceled", stats)
	}
	if _, err := os.Stat(filepath.Join(dir, ShardFilename(1))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("shard journal after a canceled range: %v", err)
	}
}

// TestCanceledRunFinalProgress: the last snapshot of a canceled Run
// accounts every target, delivered or canceled.
func TestCanceledRunFinalProgress(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last Progress
	cfg := Config{Workers: 1, Shards: 4, ProgressEvery: 2,
		OnProgress: func(p Progress) { last = p }}
	_, err := Run(ctx, cfg, testTargets(40),
		func(ctx context.Context, x int) (string, error) {
			if x == 13 {
				cancel()
			}
			return testVisit(ctx, x)
		}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if last.Canceled == 0 || last.Done+last.Canceled != last.Total || last.Total != 40 {
		t.Fatalf("final progress = %+v, want Done + Canceled == Total == 40", last)
	}
}

// TestResumeEmptyDirRefused: an empty Checkpoint.Dir is refused before
// anything is read or written, whatever manifest the working directory
// holds: none, this very campaign's, or another campaign's.
func TestResumeEmptyDirRefused(t *testing.T) {
	targets := testTargets(6)
	for _, manifestLabel := range []string{"", "probe", "other"} {
		wd := t.TempDir()
		if manifestLabel != "" {
			if err := InitCheckpointDir(wd, manifestLabel, len(targets), 0); err != nil {
				t.Fatal(err)
			}
		}
		t.Run("manifest "+cmp.Or(manifestLabel, "none"), func(t *testing.T) {
			t.Chdir(wd)
			cfg := Config{Label: "probe", Checkpoint: &Checkpoint{Codec: stringCodec{}}}
			_, err := Resume(context.Background(), cfg, targets, testVisit, nil)
			if err == nil || !strings.Contains(err.Error(), "Checkpoint.Dir is empty") {
				t.Fatalf("err = %v, want the empty-Dir error", err)
			}
		})
	}
}

// TestAffinityLastsTheRun: a worker's Affinity slot lasts its whole
// run, across every shard, so the visit layer opens one session per
// worker per run: the one worker of a five-shard run Puts one value,
// and every later visit Takes that same value back.
func TestAffinityLastsTheRun(t *testing.T) {
	var sessions []*int
	_, err := Run(context.Background(), Config{Workers: 1, Shards: 5}, testTargets(40),
		func(ctx context.Context, x int) (string, error) {
			a := AffinityFrom(ctx)
			s, _ := a.Take().(*int)
			if s == nil {
				s = new(int)
				sessions = append(sessions, s)
			}
			*s++
			a.Put(s)
			return testVisit(ctx, x)
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 || *sessions[0] != 40 {
		t.Fatalf("%d sessions opened; want 1 session serving all 40 visits", len(sessions))
	}
}

// BenchmarkRun times the engine alone — index claims, the hand-off
// through the delivery ring, re-sequencing, shard accounting and
// delivery — on a no-op visit over the paper's 45 222 targets at
// DefaultShards.
func BenchmarkRun(b *testing.B) {
	targets := testTargets(45222)
	visit := func(_ context.Context, x int) (int, error) { return x, nil }
	var sum int
	sink := func(r Result[int]) { sum += r.Value }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), Config{}, targets, visit, sink); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(targets)), "ns/result")
}
