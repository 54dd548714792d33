package trend

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cookiewalk/internal/measure"
)

// The recurring trigger. A Runner owns the wall-clock schedule:
// round k fires at start + k·Interval, runs the study's round callback
// (a full DAG resolution ending in a RoundSummary), and appends the
// result durably before the next tick. Scheduling is deliberately
// dumb — fixed period, no catch-up bursts: a round that overruns its
// slot starts the next round immediately, never concurrently, so two
// crawls can't contend for the same checkpoint directories.
//
// Resume: the store is the schedule's ledger. Loop starts at
// Store.Len() — a process killed between rounds restarts exactly at
// the first round without a durable record, re-running nothing; a
// process killed MID-round re-runs that round, and the round's own
// campaign checkpoint journals (plus the process-global analysis memo)
// make the re-run a replay, not a re-crawl.

// Runner drives rounds on a schedule and appends them to a Store.
type Runner struct {
	// Store receives each completed round. Required.
	Store *Store
	// Interval is the wall-clock period between round starts.
	// Required (trendd defaults it to 24h).
	Interval time.Duration
	// Rounds bounds the run: Loop returns after the store holds this
	// many rounds. 0 means run until ctx is canceled.
	Rounds int
	// Run executes one round and returns its aggregates. Required.
	// It must be deterministic — a round re-run after a crash must
	// return what the interrupted run would have, because the runner
	// records its result verbatim. trendd's rounds re-measure one
	// static world: round reaches nothing the crawl reads, so every
	// round returns the same summary, and a round differs from the
	// previous one only when the world does.
	Run func(ctx context.Context, round int) (measure.RoundSummary, error)
	// OnRound, when set, observes each completed round after its
	// record is durably appended (trendd prunes the round's crawl
	// checkpoints here).
	OnRound func(RoundStats)
	// Now and Sleep are the schedule clock, injectable for tests.
	// Sleep returns early with ctx's cause when canceled.
	Now   func() time.Time
	Sleep func(ctx context.Context, d time.Duration) error
	// Logf, when set, receives schedule progress lines.
	Logf func(format string, args ...any)

	mu   sync.Mutex
	last RunnerState
}

// RoundStats describes one completed round for observers.
type RoundStats struct {
	Round int
	At    time.Time
	Took  time.Duration
	// MemoHits/FreshAnalyses are the analysis-memo deltas over the
	// round: hits are visits whose page analysis was already memoized,
	// fresh ones ran the full pipeline. The world is static, so after
	// the first round of a process every analysis is a hit.
	MemoHits      uint64
	FreshAnalyses uint64
}

// RunnerState is the schedule's live state for /v1/status.
type RunnerState struct {
	State         string `json:"state"` // "sleeping" | "crawling" | "done"
	NextRound     int    `json:"next_round"`
	LastAt        int64  `json:"last_at,omitempty"` // Unix s, last completed round
	LastTookMS    int64  `json:"last_took_ms,omitempty"`
	MemoHits      uint64 `json:"memo_hits,omitempty"`
	FreshAnalyses uint64 `json:"fresh_analyses,omitempty"`
}

// State snapshots the runner for /v1/status.
func (r *Runner) State() RunnerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

func (r *Runner) setState(f func(*RunnerState)) {
	r.mu.Lock()
	f(&r.last)
	r.mu.Unlock()
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// Loop runs the schedule until Rounds rounds are stored or ctx is
// canceled. A round that fails (crawl error, journal failure, store
// append failure) aborts the loop with that error; nothing partial is
// stored, so a restarted loop re-runs the failed round.
func (r *Runner) Loop(ctx context.Context) error {
	now := r.Now
	if now == nil {
		now = time.Now
	}
	sleep := r.Sleep
	if sleep == nil {
		sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return context.Cause(ctx)
			}
		}
	}
	start := r.Store.Len()
	if start > 0 {
		r.logf("trend: resuming at round %d (%d rounds already stored)", start, start)
	}
	next := now()
	for round := start; r.Rounds == 0 || round < r.Rounds; round++ {
		if round > start {
			next = next.Add(r.Interval)
			if d := next.Sub(now()); d > 0 {
				r.setState(func(st *RunnerState) { st.State = "sleeping"; st.NextRound = round })
				if err := sleep(ctx, d); err != nil {
					return err
				}
			} else {
				r.logf("trend: round %d is %s behind schedule, starting immediately", round, -d)
			}
		}
		at := now()
		r.setState(func(st *RunnerState) { st.State = "crawling"; st.NextRound = round })
		hits0, misses0 := measure.AnalysisMemoCounters()
		sum, err := r.Run(ctx, round)
		if err != nil {
			return fmt.Errorf("trend: round %d: %w", round, err)
		}
		if err := r.Store.Append(Record{Round: round, At: at.Unix(), Summary: sum}); err != nil {
			return err
		}
		hits1, misses1 := measure.AnalysisMemoCounters()
		stats := RoundStats{
			Round:         round,
			At:            at,
			Took:          now().Sub(at),
			MemoHits:      hits1 - hits0,
			FreshAnalyses: misses1 - misses0,
		}
		r.setState(func(st *RunnerState) {
			st.NextRound = round + 1
			st.LastAt = at.Unix()
			st.LastTookMS = stats.Took.Milliseconds()
			st.MemoHits = stats.MemoHits
			st.FreshAnalyses = stats.FreshAnalyses
		})
		r.logf("trend: round %d done: prevalence %.4f, %d cookiewalls, memo %d hits / %d fresh",
			round, sum.Prevalence, sum.Cookiewalls, stats.MemoHits, stats.FreshAnalyses)
		if r.OnRound != nil {
			r.OnRound(stats)
		}
	}
	// NextRound is set explicitly for the no-op path (the store already
	// held Rounds rounds), where the loop body never ran.
	r.setState(func(st *RunnerState) { st.State = "done"; st.NextRound = r.Store.Len() })
	return nil
}
