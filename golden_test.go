package cookiewalk_test

import (
	"cmp"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cookiewalk"
	"cookiewalk/internal/fault"
)

// update regenerates golden snapshots instead of diffing against them:
//
//	go test -run TestGoldenMatrix -update .
var update = flag.Bool("update", false, "rewrite golden files with current output")

const goldenPath = "testdata/golden_all.txt"

// goldenAll returns testdata/golden_all.txt, the complete
// Report(ExpAll) at cookiewalk.GoldenConfig. It reads the file on every
// call, so rows that run after the -update row see what it wrote.
func goldenAll(t *testing.T) string {
	t.Helper()
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// firstDiff fails the test at the first divergent line of two reports.
func firstDiff(t *testing.T, label, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s: output diverges at line %d (run with -update after intended changes):\n got: %q\nwant: %q",
				label, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: output length changed: got %d lines, want %d", label, len(gotLines), len(wantLines))
}

// goldenRow is one way of running the golden study. Its report must be
// byte-identical to testdata/golden_all.txt.
type goldenRow struct {
	name string
	// group, when set, is the subtest the row runs under, beside the
	// other rows of its group: it names the kind of gate the group's
	// rows make together.
	group string
	// cfg holds the row's knobs; the runner sets Seed, Scale and Reps
	// to cookiewalk.GoldenConfig's, so no row can change the universe.
	cfg cookiewalk.Config
	// procs, when set, is GOMAXPROCS while the row runs. GOMAXPROCS is
	// process-wide, so such rows run one at a time, before the parallel
	// rows start.
	procs int
	// fault, when set, seeds the transport faults (visitChaosProfile)
	// injected into the row's study: the injector must fire, retries
	// must surface in Progress and no breaker may trip or deny.
	fault uint64
	// kill, when set, is where a checkpointed landscape crawl with
	// killWorkers workers and killShards shards is cancelled before the
	// row's study resumes its journal under the row's own geometry. The
	// resume must replay something.
	kill killPoint
	// replay makes the row's study journal to a checkpoint that a
	// clean-transport study then resumes: it must report the golden
	// bytes, replaying every visit and crawling none.
	replay bool
	// sibling, when set, seeds a second study run beside the row's. Its
	// report must differ from the golden and equal its own solo run,
	// checked in the row's subtest sibling/seed=S.
	sibling uint64
	// aliases names the rows dedupe folded into this one because they
	// run the same study. The row checks its report under each of their
	// names, as subtests, so a covered row keeps a name of its own.
	aliases []string
}

// killPoint cancels a crawl once the campaign labelled label has
// delivered after visits.
type killPoint struct {
	label string
	after int64
}

// The geometry the kill rows' interrupted crawls run under; the rows
// resume under another.
const (
	killWorkers = 3
	killShards  = 4
)

// goldenRows lists the matrix. It maps the tests it replaced to rows
// (group/row, and row/subtest for a row's sibling and aliases):
//
//	TestGoldenAllReport (and its -update path)      default
//	TestGoldenReportAnalysisCacheOnOff              default, memo-off
//	TestGoldenParallelism/gomaxprocs=P/workers=W    gomaxprocs/gomaxprocs=P/workers=W
//	TestReportDeterministicAcrossWorkers            workers=1, workers=4/shards=5, workers=N/shards=1
//	TestConcurrentStudiesIsolated                   default/sibling/seed=7
//	TestGoldenFlakyTransport                        flaky-transport/seed=S
//	TestGoldenFlakyCheckpointResume                 flaky-checkpoint-resume/seed=S
//	TestResumeGoldenAfterKill/K                     kill/K
//
// COOKIEWALK_SEED (fault.Seeds) picks the flaky rows' fault seed
// (default 1).
func goldenRows(t *testing.T) []goldenRow {
	// The slowest rows come first, so the parallel rows finish close
	// together: default runs three studies, and the flaky rows wait out
	// injected stalls and retry backoff.
	rows := []goldenRow{{name: "default", sibling: 7}}
	for _, seed := range fault.Seeds(t, 1) {
		rows = append(rows,
			goldenRow{name: fmt.Sprintf("flaky-transport/seed=%d", seed), cfg: visitChaosConfig(), fault: seed},
			goldenRow{name: fmt.Sprintf("flaky-checkpoint-resume/seed=%d", seed), cfg: visitChaosConfig(), fault: seed, replay: true},
		)
	}
	rows = append(rows,
		goldenRow{name: "memo-off", cfg: cookiewalk.Config{NoAnalysisCache: true}},
		// An anonymous struct embedding the interface exposes RoundTrip
		// alone, so every request takes net/http's ServeHTTP path, not
		// the farm's RoundTripBody fast path the other rows take.
		goldenRow{name: "plain-transport", cfg: cookiewalk.Config{WrapTransport: func(rt http.RoundTripper) http.RoundTripper {
			return struct{ http.RoundTripper }{rt}
		}}},
	)
	// Kill points: the very first deliveries of the first campaign, a
	// shard boundary, a mid-shard record and a later vantage point's
	// campaign, so fully journaled vantage points replay end to end
	// while later ones crawl fresh.
	n := int64(len(cookiewalk.GoldenStudy().Targets()))
	for _, k := range []struct {
		name string
		kill killPoint
	}{
		{"first-deliveries", killPoint{"landscape US East", 2}},
		{"shard-boundary", killPoint{"landscape US East", n / killShards}},
		{"mid-shard", killPoint{"landscape US East", n/killShards + n/(2*killShards)}},
		{"later-vp", killPoint{"landscape Germany", n / 2}},
	} {
		rows = append(rows, goldenRow{group: "kill", name: k.name, cfg: cookiewalk.Config{Workers: 2, Shards: 3}, kill: k.kill})
	}
	procs := runtime.GOMAXPROCS(0)
	for _, geo := range []struct{ workers, shards int }{{1, 0}, {4, 5}, {procs, 1}} {
		name := fmt.Sprintf("workers=%d", geo.workers)
		if geo.shards != 0 {
			name += fmt.Sprintf("/shards=%d", geo.shards)
		}
		rows = append(rows, goldenRow{name: name, cfg: cookiewalk.Config{Workers: geo.workers, Shards: geo.shards}})
	}
	for _, procs := range []int{1, 4} {
		for _, workers := range []int{1, 8} {
			rows = append(rows, goldenRow{
				group: "gomaxprocs",
				name:  fmt.Sprintf("gomaxprocs=%d/workers=%d", procs, workers),
				cfg:   cookiewalk.Config{Workers: workers},
				procs: procs,
			})
		}
	}
	return dedupe(t, rows)
}

// dedupe runs each distinct study once: a row without a sibling whose
// key equals an earlier row's is covered by that row, which checks its
// report under the covered row's name too.
func dedupe(t *testing.T, rows []goldenRow) []goldenRow {
	seen := map[string]int{}
	var out []goldenRow
	for _, r := range rows {
		if i, ok := seen[r.key()]; ok && r.sibling == 0 {
			t.Logf("%s runs as %s", r.path(), out[i].path())
			out[i].aliases = append(out[i].aliases, r.name)
			continue
		}
		seen[r.key()] = len(out)
		out = append(out, r)
	}
	return out
}

// key names the study a row runs: its config with the documented
// defaults filled in (Workers 0 is GOMAXPROCS), its GOMAXPROCS, faults,
// kill point and replay. A sibling runs beside the study and is not
// part of it.
func (r goldenRow) key() string {
	cfg := r.cfg
	if cfg.Workers == 0 {
		cfg.Workers = cmp.Or(r.procs, runtime.GOMAXPROCS(0))
	}
	return fmt.Sprintf("%+v|%d|%d|%+v|%t", cfg, r.procs, r.fault, r.kill, r.replay)
}

// path is the row's subtest name under TestGoldenMatrix.
func (r goldenRow) path() string {
	if r.group == "" {
		return r.name
	}
	return r.group + "/" + r.name
}

// TestGoldenMatrix pins the determinism contract: Report(ExpAll) at
// the golden config is byte-identical to testdata/golden_all.txt at
// every worker count, shard count, GOMAXPROCS, memo setting, fault
// seed and kill point, over a plain http.RoundTripper, and beside a
// study of another seed. Each row runs its own Study; see goldenRows
// for the rows.
//
// Rows run as parallel subtests, except those that set GOMAXPROCS and,
// with -update, the default row, which rewrites the golden the other
// rows read: those run one at a time before the parallel rows start.
// The rows of a group run under one subtest named after the group,
// which is parallel unless its rows set GOMAXPROCS.
// TestGoldenMatrix itself is not parallel, so no study of it overlaps
// another top-level test, such as TestLandscapeCrawlAllocBudget's
// MemStats reading or the trend tests' memo deltas. Under -race the
// parallel rows also catch unsynchronized state that studies share.
func TestGoldenMatrix(t *testing.T) {
	rows := goldenRows(t)
	for i := 0; i < len(rows); {
		row := rows[i]
		if row.group == "" {
			row.subtest(t, *update && i == 0)
			i++
			continue
		}
		// goldenRows appends the rows of a group one after another.
		n := i + 1
		for n < len(rows) && rows[n].group == row.group {
			n++
		}
		group := rows[i:n]
		t.Run(row.group, func(t *testing.T) {
			if row.procs == 0 {
				t.Parallel()
			}
			for _, r := range group {
				r.subtest(t, false)
			}
		})
		i = n
	}
}

// subtest runs the row as a subtest of t: parallel unless it sets
// GOMAXPROCS or rewrites the golden.
func (r goldenRow) subtest(t *testing.T, rewrite bool) {
	t.Run(r.name, func(t *testing.T) {
		if r.procs == 0 && !rewrite {
			t.Parallel()
		}
		r.run(t, rewrite)
	})
}

// run reports the row's study and checks it; rewrite writes the report
// to the golden file first.
func (r goldenRow) run(t *testing.T, rewrite bool) {
	if r.procs != 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(r.procs))
	}
	golden := cookiewalk.GoldenConfig()
	cfg := r.cfg
	cfg.Seed, cfg.Scale, cfg.Reps = golden.Seed, golden.Scale, golden.Reps
	killed := r.kill != (killPoint{})
	if killed || r.replay {
		dir := filepath.Join(t.TempDir(), "ckpt")
		cfg.CheckpointDir = dir
		t.Cleanup(func() {
			if t.Failed() {
				fault.SaveArtifacts(t, "golden-matrix/"+r.path(), dir, nil)
			}
		})
	}
	if killed {
		interrupted := cfg
		interrupted.Workers, interrupted.Shards = killWorkers, killShards
		interruptCrawl(t, interrupted, r.kill.label, r.kill.after)
		cfg.Resume = true
	}
	var checkFaults func()
	if r.fault != 0 {
		checkFaults = armFaults(t, &cfg, r.fault)
	}
	var checkSibling func(*testing.T)
	if r.sibling != 0 {
		checkSibling = runBeside(t, r.sibling)
	}

	study := cookiewalk.New(cfg)
	got, err := study.Report(cookiewalk.ExpAll)
	if err != nil {
		t.Fatal(err)
	}
	if rewrite {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s updated", goldenPath)
	}
	if checkFaults != nil {
		checkFaults()
	}
	if checkSibling != nil {
		t.Run(fmt.Sprintf("sibling/seed=%d", r.sibling), checkSibling)
	}
	if killed && landscapeReplayed(study) == 0 {
		t.Error("resume replayed nothing — the journal was ignored")
	}
	if r.replay {
		firstDiff(t, "clean-transport replay", replayClean(t, cfg.CheckpointDir), goldenAll(t))
	}
	firstDiff(t, r.path(), got, goldenAll(t))
	for _, alias := range r.aliases {
		t.Run(alias, func(t *testing.T) {
			firstDiff(t, alias+" (run as "+r.path()+")", got, goldenAll(t))
		})
	}
}

// visitChaosProfile is the background fault mix for the flaky rows:
// every fault kind fires, at rates that hit thousands of requests per
// run, with the per-request cap left at its default of 2 — so a retry
// budget of 3 guarantees every request eventually succeeds.
func visitChaosProfile() fault.VisitProfile {
	return fault.VisitProfile{
		Timeout:  8,
		Reset:    8,
		Err503:   8,
		Truncate: 8,
		Stall:    4,
		StallFor: time.Millisecond,
	}
}

// visitChaosConfig arms the full resilience stack: retries sized to
// out-last the injector's per-request cap, per-visit deadlines, and
// breakers that can only trip on retry exhaustion (which the cap makes
// impossible) — so every knob is active and none may change a single
// output byte.
func visitChaosConfig() cookiewalk.Config {
	return cookiewalk.Config{
		VisitTimeout:      time.Minute,
		VisitRetries:      3,
		VisitRetryBackoff: time.Millisecond,
		BreakerThreshold:  8,
	}
}

// armFaults wraps cfg's transport in seeded faults (timeouts, resets,
// 503s, truncated bodies and stalls) and returns the check to run after
// the report: the injector fired and retries surfaced in Progress.
// Breaker activity fails the row as soon as Progress shows it: every
// request eventually succeeds, so no breaker may trip.
func armFaults(t *testing.T, cfg *cookiewalk.Config, seed uint64) func() {
	var inj *fault.VisitTransport
	var retries atomic.Int64
	cfg.WrapTransport = func(base http.RoundTripper) http.RoundTripper {
		rt, ft := fault.Wrap(base, seed, visitChaosProfile())
		inj = ft
		return rt
	}
	cfg.Progress = func(p cookiewalk.Progress) {
		if p.Retries > retries.Load() {
			retries.Store(p.Retries)
		}
		if p.BreakerTrips > 0 || p.BreakerDenials > 0 {
			t.Errorf("%s: breaker activity (%d trips, %d denials) on a run where every request eventually succeeds",
				p.Label, p.BreakerTrips, p.BreakerDenials)
		}
	}
	return func() {
		n := inj.Injected()
		if n.Total() == 0 {
			t.Fatal("injector never fired — the chaos gate is vacuous")
		}
		t.Logf("seed %d: injected %d faults (%d timeouts, %d resets, %d 503s, %d truncates, %d stalls), %d retries observed",
			seed, n.Total(), n.Timeouts, n.Resets, n.Err503s, n.Truncates, n.Stalls, retries.Load())
		if retries.Load() == 0 {
			t.Error("no retries surfaced in Progress despite injected faults")
		}
	}
}

// runBeside starts a study of another seed beside the row's and returns
// the check to run, as a subtest, once the row's report is in: the
// sibling's report equals its solo run, which differs from the golden.
func runBeside(t *testing.T, seed uint64) func(*testing.T) {
	cfg := cookiewalk.GoldenConfig()
	cfg.Seed = seed
	done := make(chan struct{})
	t.Cleanup(func() { <-done })
	var beside string
	var err error
	go func() {
		defer close(done)
		beside, err = cookiewalk.New(cfg).Report(cookiewalk.ExpAll)
	}()
	return func(t *testing.T) {
		<-done
		if err != nil {
			t.Fatalf("seed %d beside the golden study: %v", seed, err)
		}
		alone, soloErr := cookiewalk.New(cfg).Report(cookiewalk.ExpAll)
		if soloErr != nil {
			t.Fatal(soloErr)
		}
		if alone == goldenAll(t) {
			t.Fatalf("seed %d reports the golden bytes; the row cannot tell the studies apart", seed)
		}
		firstDiff(t, fmt.Sprintf("seed %d beside the golden study vs alone", seed), beside, alone)
	}
}

// replayClean resumes dir's journals over clean transport and returns
// the report. The resume must replay visits and crawl none: records
// written under transport faults are exactly the records a clean run
// would have written.
func replayClean(t *testing.T, dir string) string {
	t.Helper()
	var replayed, fresh atomic.Int64
	cfg := cookiewalk.GoldenConfig()
	cfg.CheckpointDir, cfg.Resume = dir, true
	cfg.Progress = func(p cookiewalk.Progress) {
		if p.Replayed > replayed.Load() {
			replayed.Store(p.Replayed)
		}
		if f := p.Done - p.Replayed; f > fresh.Load() {
			fresh.Store(f)
		}
	}
	got, err := cookiewalk.New(cfg).Report(cookiewalk.ExpAll)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Load() == 0 {
		t.Error("resume replayed nothing — the journals were not exercised")
	}
	if f := fresh.Load(); f != 0 {
		t.Errorf("resume crawled %d fresh visits; the journals should cover everything", f)
	}
	return got
}
