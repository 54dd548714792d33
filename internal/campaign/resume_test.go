package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// stringCodec journals string results. failDecode makes DecodeInto
// reject a chosen value to exercise the re-visit fallback; failEncode
// makes Append reject one to exercise the encode-failure path.
type stringCodec struct{ failDecode, failEncode string }

func (c stringCodec) Append(dst []byte, v any) ([]byte, error) {
	s := *v.(*string)
	if c.failEncode != "" && s == c.failEncode {
		return dst, errors.New("injected encode failure")
	}
	return append(dst, s...), nil
}

func (c stringCodec) DecodeInto(data []byte, v any) error {
	if c.failDecode != "" && string(data) == c.failDecode {
		return errors.New("injected decode failure")
	}
	*v.(*string) = string(data)
	return nil
}

// appendRecord journals one string value through stringCodec.
func appendRecord(jw *journalWriter, index int, errStr, value string) error {
	return jw.append(index, errStr, stringCodec{}, &value)
}

// testTargets builds n int targets; visits of multiples of 9 fail.
func testTargets(n int) []int {
	targets := make([]int, n)
	for i := range targets {
		targets[i] = i
	}
	return targets
}

func testVisit(_ context.Context, x int) (string, error) {
	spin(x)
	if x%9 == 4 {
		return fmt.Sprintf("partial%d", x), fmt.Errorf("visit %d failed", x)
	}
	return fmt.Sprintf("v%d", x), nil
}

// delivered runs a campaign variant and renders its delivery sequence
// (value, error string, index) as one comparable string.
func deliveredSeq(sink *[]string) func(Result[string]) {
	return func(r Result[string]) {
		e := ""
		if r.Err != nil {
			e = r.Err.Error()
		}
		*sink = append(*sink, fmt.Sprintf("%d:%s:%s", r.Index, r.Value, e))
	}
}

// TestResumeEveryKillPoint is the subsystem's core guarantee, pinned
// exhaustively at small scale: for EVERY kill point k (cancel after k
// deliveries) and a resume under a different Workers/Shards setting,
// the concatenation replayed-then-fresh delivered to the sink is
// byte-identical to an uninterrupted run's delivery sequence.
func TestResumeEveryKillPoint(t *testing.T) {
	const n = 58
	targets := testTargets(n)

	var reference []string
	if _, err := Run(context.Background(), Config{Workers: 3, Shards: 4}, targets,
		testVisit, deliveredSeq(&reference)); err != nil {
		t.Fatal(err)
	}
	if len(reference) != n {
		t.Fatalf("reference deliveries = %d", len(reference))
	}

	for kill := 0; kill <= n; kill++ {
		dir := t.TempDir()
		cp := &Checkpoint{Dir: dir, Codec: stringCodec{}, FlushEvery: 3}

		// Phase 1: run with checkpointing, cancel after `kill` deliveries
		// (kill=0: killed before any delivery).
		ctx, cancel := context.WithCancel(context.Background())
		if kill == 0 {
			cancel()
		}
		var phase1 []string
		sink := deliveredSeq(&phase1)
		_, err := Run(ctx, Config{Workers: 3, Shards: 4, Window: 8, Checkpoint: cp}, targets,
			testVisit, func(r Result[string]) {
				sink(r)
				if len(phase1) == kill {
					cancel()
				}
			})
		cancel()
		if kill < n && err == nil {
			t.Fatalf("kill=%d: interrupted run returned nil error", kill)
		}

		// Phase 2: resume with DIFFERENT workers and shards. The full
		// delivery sequence must match the uninterrupted reference, and
		// everything journaled in phase 1 must be replayed, not re-run.
		var phase2 []string
		stats, err := Resume(context.Background(),
			Config{Workers: 5, Shards: 2, Checkpoint: cp}, targets,
			testVisit, deliveredSeq(&phase2))
		if err != nil {
			t.Fatalf("kill=%d: resume: %v", kill, err)
		}
		if got, want := strings.Join(phase2, "\n"), strings.Join(reference, "\n"); got != want {
			t.Fatalf("kill=%d: resumed delivery sequence differs from uninterrupted run\n got: %q\nwant: %q", kill, got, want)
		}
		if stats.Done != n || stats.Replayed != int64(len(phase1)) || stats.Fresh() != int64(n-len(phase1)) {
			t.Fatalf("kill=%d: stats done=%d replayed=%d fresh=%d, phase1 delivered %d",
				kill, stats.Done, stats.Replayed, stats.Fresh(), len(phase1))
		}
		// And phase 1's own deliveries agree with the reference at their
		// indices. (Under cancellation the delivered set may have holes —
		// canceled in-between targets never reach the sink — but every
		// result that IS delivered matches the uninterrupted run's.)
		for _, entry := range phase1 {
			var idx int
			if _, err := fmt.Sscanf(entry, "%d:", &idx); err != nil {
				t.Fatalf("kill=%d: unparsable delivery %q", kill, entry)
			}
			if entry != reference[idx] {
				t.Fatalf("kill=%d: phase 1 delivered %q, reference has %q", kill, entry, reference[idx])
			}
		}
	}
}

// TestResumeAfterResume: a resumed run killed again resumes cleanly —
// journals from both incarnations merge.
func TestResumeAfterResume(t *testing.T) {
	const n = 40
	targets := testTargets(n)
	var reference []string
	if _, err := Run(context.Background(), Config{Workers: 2, Shards: 3}, targets,
		testVisit, deliveredSeq(&reference)); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cp := &Checkpoint{Dir: dir, Codec: stringCodec{}, FlushEvery: 1}
	kills := []int{11, 27}
	runs := 0
	for _, kill := range kills {
		ctx, cancel := context.WithCancel(context.Background())
		count := 0
		var err error
		if runs == 0 {
			_, err = Run(ctx, Config{Workers: 2, Shards: 3, Checkpoint: cp}, targets,
				testVisit, func(Result[string]) {
					if count++; count == kill {
						cancel()
					}
				})
		} else {
			_, err = Resume(ctx, Config{Workers: 4, Shards: 5, Checkpoint: cp}, targets,
				testVisit, func(Result[string]) {
					if count++; count == kill {
						cancel()
					}
				})
		}
		cancel()
		if err == nil {
			t.Fatalf("kill %d: expected cancellation error", kill)
		}
		runs++
	}
	var final []string
	stats, err := Resume(context.Background(), Config{Workers: 1, Shards: 1, Checkpoint: cp}, targets,
		testVisit, deliveredSeq(&final))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(final, "\n"), strings.Join(reference, "\n"); got != want {
		t.Fatalf("double-resume sequence differs\n got: %q\nwant: %q", got, want)
	}
	if stats.Replayed < int64(kills[1]) {
		t.Fatalf("replayed %d < %d journaled", stats.Replayed, kills[1])
	}
}

// TestResumeCompleteJournal: resuming a campaign that already finished
// replays everything and visits nothing.
func TestResumeCompleteJournal(t *testing.T) {
	const n = 30
	targets := testTargets(n)
	dir := t.TempDir()
	cp := &Checkpoint{Dir: dir, Codec: stringCodec{}}
	var first []string
	if _, err := Run(context.Background(), Config{Workers: 2, Checkpoint: cp}, targets,
		testVisit, deliveredSeq(&first)); err != nil {
		t.Fatal(err)
	}
	visits := 0
	var second []string
	stats, err := Resume(context.Background(), Config{Workers: 2, Checkpoint: cp}, targets,
		func(ctx context.Context, x int) (string, error) {
			visits++
			return testVisit(ctx, x)
		}, deliveredSeq(&second))
	if err != nil {
		t.Fatal(err)
	}
	if visits != 0 {
		t.Fatalf("%d fresh visits on a complete journal", visits)
	}
	if stats.Replayed != n || stats.Fresh() != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if strings.Join(first, "\n") != strings.Join(second, "\n") {
		t.Fatal("replayed sequence differs from original")
	}
}

// TestResumeEmptyDir: Resume over an empty/missing checkpoint dir is a
// fresh run that journals from scratch.
func TestResumeEmptyDir(t *testing.T) {
	const n = 12
	targets := testTargets(n)
	dir := filepath.Join(t.TempDir(), "never-created")
	cp := &Checkpoint{Dir: dir, Codec: stringCodec{}}
	stats, err := Resume(context.Background(), Config{Checkpoint: cp}, targets, testVisit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Done != n || stats.Replayed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// The run journaled: a second resume replays all of it.
	stats, err = Resume(context.Background(), Config{Checkpoint: cp}, targets, testVisit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != n {
		t.Fatalf("second resume replayed %d, want %d", stats.Replayed, n)
	}
}

// TestResumeManifestMismatch: journals recorded for a different
// campaign (label or target identity) are refused, not replayed.
func TestResumeManifestMismatch(t *testing.T) {
	targets := testTargets(10)
	dir := t.TempDir()
	cp := &Checkpoint{Dir: dir, Codec: stringCodec{}, TargetsHash: HashTargets([]string{"a", "b"})}
	if _, err := Run(context.Background(), Config{Label: "x", Checkpoint: cp}, targets, testVisit, nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"label", Config{Label: "y", Checkpoint: cp}},
		{"hash", Config{Label: "x", Checkpoint: &Checkpoint{Dir: dir, Codec: stringCodec{}, TargetsHash: 1}}},
	} {
		if _, err := Resume(context.Background(), tc.cfg, targets, testVisit, nil); err == nil {
			t.Fatalf("%s mismatch: resume accepted a foreign journal", tc.name)
		}
	}
	if _, err := Resume(context.Background(), Config{Label: "x", Checkpoint: cp}, testTargets(11), testVisit, nil); err == nil {
		t.Fatal("target-count mismatch: resume accepted a foreign journal")
	}
	// And the matching config still resumes fine.
	stats, err := Resume(context.Background(), Config{Label: "x", Checkpoint: cp}, targets, testVisit, nil)
	if err != nil || stats.Replayed != 10 {
		t.Fatalf("matching resume: %v, %+v", err, stats)
	}
}

// TestResumeTornTail simulates a process kill mid-write: the journal's
// final record is truncated on disk. Resume must drop exactly that
// record, re-run its target, and still deliver the reference sequence.
func TestResumeTornTail(t *testing.T) {
	const n = 24
	targets := testTargets(n)
	var reference []string
	if _, err := Run(context.Background(), Config{Workers: 1, Shards: 1}, targets,
		testVisit, deliveredSeq(&reference)); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cp := &Checkpoint{Dir: dir, Codec: stringCodec{}, FlushEvery: 1}
	if _, err := Run(context.Background(), Config{Workers: 1, Shards: 1, Checkpoint: cp}, targets,
		testVisit, nil); err != nil {
		t.Fatal(err)
	}
	path := shardFile(dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: keep all bytes except the final 3.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	visited := map[int]bool{}
	var resumed []string
	stats, err := Resume(context.Background(), Config{Workers: 1, Shards: 1, Checkpoint: cp}, targets,
		func(ctx context.Context, x int) (string, error) {
			visited[x] = true
			return testVisit(ctx, x)
		}, deliveredSeq(&resumed))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(resumed, "\n"), strings.Join(reference, "\n"); got != want {
		t.Fatalf("torn-tail resume differs\n got: %q\nwant: %q", got, want)
	}
	if stats.Replayed != n-1 || !visited[n-1] || len(visited) != 1 {
		t.Fatalf("torn tail: replayed=%d visited=%v", stats.Replayed, visited)
	}
}

// TestResumeDecodeFallback: a record the codec cannot decode is
// re-visited fresh instead of failing the campaign.
func TestResumeDecodeFallback(t *testing.T) {
	const n = 15
	targets := testTargets(n)
	dir := t.TempDir()
	write := &Checkpoint{Dir: dir, Codec: stringCodec{}}
	if _, err := Run(context.Background(), Config{Checkpoint: write}, targets, testVisit, nil); err != nil {
		t.Fatal(err)
	}
	poison := &Checkpoint{Dir: dir, Codec: stringCodec{failDecode: "v7"}}
	visited := map[int]bool{}
	var out []string
	stats, err := Resume(context.Background(), Config{Checkpoint: poison}, targets,
		func(ctx context.Context, x int) (string, error) {
			visited[x] = true
			return testVisit(ctx, x)
		}, deliveredSeq(&out))
	if err != nil {
		t.Fatal(err)
	}
	if !visited[7] || len(visited) != 1 || stats.Replayed != n-1 {
		t.Fatalf("decode fallback: visited=%v replayed=%d", visited, stats.Replayed)
	}
	var reference []string
	if _, err := Run(context.Background(), Config{}, targets, testVisit, deliveredSeq(&reference)); err != nil {
		t.Fatal(err)
	}
	if strings.Join(out, "\n") != strings.Join(reference, "\n") {
		t.Fatal("decode-fallback sequence differs from reference")
	}
}

// TestEncodeFailureEndsJournalAtFailedIndex: a value the codec cannot
// encode does not stop the campaign — every result is still delivered
// in order — but Run reports the encode error, and the journal holds
// exactly the records delivered before the failed index.
func TestEncodeFailureEndsJournalAtFailedIndex(t *testing.T) {
	const n, bad = 40, 12
	targets := testTargets(n)
	var reference []string
	if _, err := Run(context.Background(), Config{}, targets, testVisit, deliveredSeq(&reference)); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		dir := t.TempDir()
		cp := &Checkpoint{Dir: dir, Codec: stringCodec{failEncode: fmt.Sprintf("v%d", bad)}, FlushEvery: 1}
		var out []string
		stats, err := Run(context.Background(), Config{Workers: workers, Shards: 2, Checkpoint: cp},
			targets, testVisit, deliveredSeq(&out))
		want := fmt.Sprintf("campaign: checkpoint: encode index %d: injected encode failure", bad)
		if err == nil || err.Error() != want {
			t.Fatalf("workers=%d: err = %v, want %q", workers, err, want)
		}
		if stats.Done != n || strings.Join(out, "\n") != strings.Join(reference, "\n") {
			t.Fatalf("workers=%d: delivered %d results, sequence equal to reference: %v",
				workers, stats.Done, strings.Join(out, "\n") == strings.Join(reference, "\n"))
		}
		replay, err := loadJournals(dir, n)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range replay {
			if rec.ok != (i < bad) {
				t.Fatalf("workers=%d: journal has index %d = %v, want records 0..%d only", workers, i, rec.ok, bad-1)
			}
		}
	}
}

// TestResumeRequiresCheckpoint pins the configuration errors.
func TestResumeRequiresCheckpoint(t *testing.T) {
	targets := testTargets(3)
	if _, err := Resume(context.Background(), Config{}, targets, testVisit, nil); err == nil {
		t.Fatal("Resume without Checkpoint succeeded")
	}
	if _, err := Resume(context.Background(), Config{Checkpoint: &Checkpoint{Dir: t.TempDir()}}, targets, testVisit, nil); err == nil {
		t.Fatal("Resume without Codec succeeded")
	}
	if _, err := Run(context.Background(), Config{Checkpoint: &Checkpoint{Dir: t.TempDir()}}, targets, testVisit, nil); err == nil {
		t.Fatal("checkpointed Run without Codec succeeded")
	}
}

// TestRunWipesStaleJournal: a FRESH checkpointed Run must not inherit
// journals left in the directory by a previous campaign.
func TestRunWipesStaleJournal(t *testing.T) {
	const n = 10
	targets := testTargets(n)
	dir := t.TempDir()
	cp := &Checkpoint{Dir: dir, Codec: stringCodec{}}
	if _, err := Run(context.Background(), Config{Checkpoint: cp}, targets, testVisit, nil); err != nil {
		t.Fatal(err)
	}
	// A fresh Run re-journals everything... (atomic: the visit func
	// runs on every worker goroutine in parallel)
	var visits atomic.Int64
	if _, err := Run(context.Background(), Config{Checkpoint: cp}, targets,
		func(ctx context.Context, x int) (string, error) {
			visits.Add(1)
			return testVisit(ctx, x)
		}, nil); err != nil {
		t.Fatal(err)
	}
	if visits.Load() != n {
		t.Fatalf("fresh run visited %d of %d", visits.Load(), n)
	}
	// ...and its journal is still complete and resumable.
	stats, err := Resume(context.Background(), Config{Checkpoint: cp}, targets, testVisit, nil)
	if err != nil || stats.Replayed != n {
		t.Fatalf("resume after re-run: %v, %+v", err, stats)
	}
}

// TestResumeMissingManifestWipesStaleJournals: journals orphaned by a
// lost manifest must never leak into a later campaign's replay. The
// missing-manifest degrade path has to wipe them BEFORE writing the
// new manifest — otherwise a second resume would find a matching
// manifest and replay the foreign (checksummed, decodable) records as
// this campaign's results.
func TestResumeMissingManifestWipesStaleJournals(t *testing.T) {
	const n = 20
	targets := testTargets(n)
	dir := t.TempDir()
	cp := &Checkpoint{Dir: dir, Codec: stringCodec{}}

	// Campaign X journals results whose values differ from testVisit's.
	foreign := func(_ context.Context, x int) (string, error) {
		return fmt.Sprintf("FOREIGN%d", x), nil
	}
	if _, err := Run(context.Background(), Config{Label: "x", Checkpoint: cp}, targets, foreign, nil); err != nil {
		t.Fatal(err)
	}
	// The manifest is lost (torn write, or an operator deleting it to
	// clear a parse error).
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	// Campaign Y resumes into the same dir twice; neither incarnation
	// may ever deliver a FOREIGN value.
	for round := 0; round < 2; round++ {
		var out []string
		stats, err := Resume(context.Background(), Config{Label: "y", Checkpoint: cp}, targets,
			testVisit, deliveredSeq(&out))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, entry := range out {
			if strings.Contains(entry, "FOREIGN") {
				t.Fatalf("round %d: replayed a foreign record: %q", round, entry)
			}
		}
		wantReplayed := int64(0)
		if round == 1 {
			wantReplayed = n // round 0 re-journaled campaign Y
		}
		if stats.Replayed != wantReplayed {
			t.Fatalf("round %d: replayed %d, want %d", round, stats.Replayed, wantReplayed)
		}
	}
}

// TestHashTargets pins order sensitivity and stability.
func TestHashTargets(t *testing.T) {
	a := HashTargets([]string{"a.de", "b.de"})
	b := HashTargets([]string{"b.de", "a.de"})
	if a == b {
		t.Fatal("order-insensitive hash")
	}
	if a != HashTargets([]string{"a.de", "b.de"}) {
		t.Fatal("unstable hash")
	}
}

// TestJournalIsPrefixOfDelivery cross-checks the on-disk record count
// against what the sink saw when a campaign is canceled: the journal
// never contains a record the sink did not observe.
func TestJournalIsPrefixOfDelivery(t *testing.T) {
	const n = 64
	targets := testTargets(n)
	for _, kill := range []int{1, 9, 31, 50} {
		dir := t.TempDir()
		cp := &Checkpoint{Dir: dir, Codec: stringCodec{}, FlushEvery: 1}
		ctx, cancel := context.WithCancel(context.Background())
		delivered := 0
		_, _ = Run(ctx, Config{Workers: 4, Shards: 2, Window: 4, Checkpoint: cp}, targets,
			testVisit, func(Result[string]) {
				if delivered++; delivered == kill {
					cancel()
				}
			})
		cancel()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		records := 0
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".cwj") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			cnt, _ := scanJournal(data, nil)
			records += cnt
		}
		if records > delivered {
			t.Fatalf("kill=%d: journal holds %d records but sink saw %d", kill, records, delivered)
		}
	}
}
