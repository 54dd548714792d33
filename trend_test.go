package cookiewalk_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"cookiewalk"
	"cookiewalk/internal/campaign"
	"cookiewalk/internal/measure"
	"cookiewalk/internal/trend"
)

// The continuous-measurement acceptance tests: a fixed schedule of
// rounds over the synthetic farm is byte-deterministic (store journal
// bytes AND every query-API response), rounds after the first ride the
// analysis memo, and kill/resume — between rounds or mid-round — never
// re-crawls completed work or changes a single byte.

const (
	trendEpoch    = int64(1700000000)
	trendInterval = time.Hour
)

// trendClock mirrors the runner's schedule clock deterministically:
// sleeping advances time by exactly the requested duration, so round k
// always starts at epoch + k·interval.
type trendClock struct{ t time.Time }

func (c *trendClock) now() time.Time { return c.t }
func (c *trendClock) sleep(ctx context.Context, d time.Duration) error {
	c.t = c.t.Add(d)
	return ctx.Err()
}

// trendConfig is the study configuration of one trendd round: the
// golden study parameters plus the round's checkpoint directory.
func trendConfig(storeDir string, round int) cookiewalk.Config {
	return cookiewalk.Config{
		Seed: 42, Scale: 0.02, Reps: 2,
		CheckpointDir: filepath.Join(storeDir, "rounds", fmt.Sprintf("round-%04d", round)),
		Resume:        true,
	}
}

// openTrendStore opens the round store exactly as cmd/trendd would.
func openTrendStore(t *testing.T, dir string) *trend.Store {
	t.Helper()
	targets := cookiewalk.GoldenStudy().Targets()
	store, err := trend.Open(dir, trend.Manifest{
		Seed: 42, Scale: 0.02, Reps: 2,
		Targets:     len(targets),
		TargetsHash: campaign.HashTargets(targets),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// runTrendRounds drives the runner until the store holds `rounds`
// rounds, returning the per-round stats observed.
func runTrendRounds(t *testing.T, store *trend.Store, dir string, rounds int, clock *trendClock) []trend.RoundStats {
	t.Helper()
	var stats []trend.RoundStats
	r := &trend.Runner{
		Store:    store,
		Interval: trendInterval,
		Rounds:   rounds,
		Now:      clock.now,
		Sleep:    clock.sleep,
		Run: func(ctx context.Context, round int) (measure.RoundSummary, error) {
			return cookiewalk.New(trendConfig(dir, round)).RoundSummary(ctx)
		},
		OnRound: func(st trend.RoundStats) { stats = append(stats, st) },
	}
	if err := r.Loop(context.Background()); err != nil {
		t.Fatal(err)
	}
	return stats
}

func trendGET(t *testing.T, h http.Handler, url string) string {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("GET %s: %d %s", url, w.Code, w.Body)
	}
	return w.Body.String()
}

// trendQueryURLs enumerates every /v1/trends query the determinism
// check compares, derived from the live metric registry so a new
// metric is covered automatically.
func trendQueryURLs() []string {
	urls := []string{"/v1/rounds", "/v1/metrics"}
	for _, m := range trend.Metrics() {
		if m.PerVP {
			urls = append(urls, "/v1/trends/"+m.Name+"?vp=Germany", "/v1/trends/"+m.Name+"?vp=US+East")
			continue
		}
		urls = append(urls, "/v1/trends/"+m.Name)
	}
	return urls
}

// TestTrendGoldenThreeRounds is the acceptance gate for the
// continuous-measurement service: two independent 3-round trendd runs
// at the same seed produce byte-identical store journals and
// byte-identical responses for EVERY query-API endpoint; the full
// /v1/rounds body is additionally pinned by a golden snapshot
// (regenerate deliberately with
// `go test -run TestTrendGoldenThreeRounds -update .`); and rounds
// after the first cost analysis-memo hits, not fresh analyses: every
// round re-crawls the same static world, so no page is new.
func TestTrendGoldenThreeRounds(t *testing.T) {
	type run struct {
		storeBytes []byte
		responses  map[string]string
		stats      []trend.RoundStats
	}
	var runs []run
	for i := 0; i < 2; i++ {
		dir := t.TempDir()
		store := openTrendStore(t, dir)
		stats := runTrendRounds(t, store, dir, 3, &trendClock{t: time.Unix(trendEpoch, 0)})
		h := trend.NewServer(trend.ServerConfig{Store: store}).Handler()
		responses := map[string]string{}
		for _, u := range trendQueryURLs() {
			responses[u] = trendGET(t, h, u)
		}
		data, err := os.ReadFile(filepath.Join(dir, "rounds.cwt"))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{storeBytes: data, responses: responses, stats: stats})
	}

	// Byte-determinism: the store journal and every response.
	if string(runs[0].storeBytes) != string(runs[1].storeBytes) {
		t.Errorf("trend store journals differ across independent runs (%d vs %d bytes)",
			len(runs[0].storeBytes), len(runs[1].storeBytes))
	}
	for _, u := range trendQueryURLs() {
		if runs[0].responses[u] != runs[1].responses[u] {
			t.Errorf("%s differs across independent runs:\n  A: %s\n  B: %s",
				u, runs[0].responses[u], runs[1].responses[u])
		}
	}

	// Golden snapshot of the full round listing.
	got := runs[0].responses["/v1/rounds"]
	if *update {
		if err := os.WriteFile("testdata/golden_trend.json", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden_trend.json updated")
	} else {
		want, err := os.ReadFile("testdata/golden_trend.json")
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("/v1/rounds diverges from testdata/golden_trend.json (run with -update after intended changes):\n got: %s\nwant: %s", got, want)
		}
	}

	// The world is static: the round reaches nothing the crawl reads, so
	// every page is unchanged between rounds and rounds 1 and 2 are pure
	// memo hits — the fresh-analysis count drops to zero while the hit
	// counter keeps counting visits. (Round 0 may itself be warm when
	// other tests in this process crawled the same universe first, so
	// only the later rounds are asserted.)
	stats := runs[0].stats
	if len(stats) != 3 {
		t.Fatalf("observed %d rounds, want 3", len(stats))
	}
	for _, st := range stats[1:] {
		if st.FreshAnalyses != 0 {
			t.Errorf("round %d ran %d fresh analyses, want 0 (memo reuse)", st.Round, st.FreshAnalyses)
		}
		if st.MemoHits == 0 {
			t.Errorf("round %d recorded no memo hits", st.Round)
		}
	}
	if stats[1].FreshAnalyses > stats[0].FreshAnalyses {
		t.Errorf("fresh analyses grew between rounds: %d then %d", stats[0].FreshAnalyses, stats[1].FreshAnalyses)
	}
}

// TestTrendResumeSkipsCompletedRounds is the SIGKILL-between-rounds
// acceptance check: a store holding two durable rounds, reopened by a
// fresh process (fresh store handle, fresh runner, clock advanced by
// two intervals — exactly what a restarted trendd sees), runs ONLY
// round 2, and the completed store matches the golden 3-round listing
// byte for byte.
func TestTrendResumeSkipsCompletedRounds(t *testing.T) {
	dir := t.TempDir()
	store := openTrendStore(t, dir)
	runTrendRounds(t, store, dir, 2, &trendClock{t: time.Unix(trendEpoch, 0)})
	if store.Len() != 2 {
		t.Fatalf("precondition: %d rounds stored, want 2", store.Len())
	}
	store.Close() // the "kill": nothing of the first process survives but the directory

	resumed := openTrendStore(t, dir)
	if resumed.Len() != 2 {
		t.Fatalf("reopened store lost rounds: %d", resumed.Len())
	}
	var ran []int
	r := &trend.Runner{
		Store:    resumed,
		Interval: trendInterval,
		Rounds:   3,
		Now:      (&trendClock{t: time.Unix(trendEpoch+2*3600, 0)}).now,
		Sleep:    func(ctx context.Context, d time.Duration) error { return ctx.Err() },
		Run: func(ctx context.Context, round int) (measure.RoundSummary, error) {
			if round < 2 {
				t.Errorf("resume re-ran completed round %d", round)
			}
			ran = append(ran, round)
			return cookiewalk.New(trendConfig(dir, round)).RoundSummary(ctx)
		},
	}
	if err := r.Loop(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 1 || ran[0] != 2 {
		t.Fatalf("resumed runner ran rounds %v, want [2]", ran)
	}
	h := trend.NewServer(trend.ServerConfig{Store: resumed}).Handler()
	got := trendGET(t, h, "/v1/rounds")
	want, err := os.ReadFile("testdata/golden_trend.json")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("resumed 3-round store diverges from the golden listing:\n got: %s\nwant: %s", got, want)
	}
}

// TestTrendMidRoundResume kills round 0 MID-crawl (context cancel
// after the first progress snapshot — the graceful half of a SIGKILL;
// the journal-level kill matrix lives in the campaign tests) and
// verifies the re-run resumes by journal replay instead of
// re-visiting, producing a store byte-identical to an uninterrupted
// round's.
func TestTrendMidRoundResume(t *testing.T) {
	dir := t.TempDir()
	store := openTrendStore(t, dir)

	// First attempt: cancel as soon as the crawl demonstrably started.
	ctx, cancel := context.WithCancel(context.Background())
	interrupted := trendConfig(dir, 0)
	interrupted.Progress = func(p cookiewalk.Progress) { cancel() }
	r := &trend.Runner{
		Store:    store,
		Interval: trendInterval,
		Rounds:   1,
		Now:      (&trendClock{t: time.Unix(trendEpoch, 0)}).now,
		Sleep:    func(ctx context.Context, d time.Duration) error { return ctx.Err() },
		Run: func(ctx context.Context, round int) (measure.RoundSummary, error) {
			return cookiewalk.New(interrupted).RoundSummary(ctx)
		},
	}
	if err := r.Loop(ctx); err == nil {
		t.Fatal("canceled round reported success")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled round: %v", err)
	}
	if store.Len() != 0 {
		t.Fatalf("aborted round left %d records in the store", store.Len())
	}

	// The re-run: same store dir, so round 0's journals replay. The
	// progress stream proves visits were replayed, not re-crawled.
	var replayed atomic.Int64
	resumeCfg := trendConfig(dir, 0)
	resumeCfg.Progress = func(p cookiewalk.Progress) {
		if p.Replayed > replayed.Load() {
			replayed.Store(p.Replayed)
		}
	}
	r2 := &trend.Runner{
		Store:    store,
		Interval: trendInterval,
		Rounds:   1,
		Now:      (&trendClock{t: time.Unix(trendEpoch, 0)}).now,
		Sleep:    func(ctx context.Context, d time.Duration) error { return ctx.Err() },
		Run: func(ctx context.Context, round int) (measure.RoundSummary, error) {
			return cookiewalk.New(resumeCfg).RoundSummary(ctx)
		},
	}
	if err := r2.Loop(context.Background()); err != nil {
		t.Fatal(err)
	}
	if replayed.Load() == 0 {
		t.Error("resumed round replayed no journaled visits")
	}

	// Byte-identical to an uninterrupted round 0 in a fresh directory.
	cleanDir := t.TempDir()
	cleanStore := openTrendStore(t, cleanDir)
	runTrendRounds(t, cleanStore, cleanDir, 1, &trendClock{t: time.Unix(trendEpoch, 0)})
	got, err := os.ReadFile(filepath.Join(dir, "rounds.cwt"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(cleanDir, "rounds.cwt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("mid-round-resumed store differs from an uninterrupted one (%d vs %d bytes)", len(got), len(want))
	}
}
