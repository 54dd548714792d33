package cookiewalk_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"cookiewalk"
	"cookiewalk/internal/campaign"
	"cookiewalk/internal/fault"
	"cookiewalk/internal/vantage"
	"cookiewalk/internal/xrand"
)

// interruptCrawl starts a checkpointed landscape crawl with cfg and
// cancels it once the campaign labeled killLabel has delivered
// killAfter visits — the in-process stand-in for an OOM kill or
// preemption (the journal state it leaves behind is the same: a valid
// record prefix, which the torn-tail tests in internal/campaign cover
// at the byte level). It returns how many visits were delivered in
// total before the crawl stopped.
func interruptCrawl(t *testing.T, cfg cookiewalk.Config, killLabel string, killAfter int64) int {
	t.Helper()
	if cfg.CheckpointDir == "" || cfg.Resume {
		t.Fatal("interruptCrawl wants a fresh checkpointed config")
	}
	study := cookiewalk.New(cfg)
	c := study.Crawler()
	c.ProgressEvery = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	delivered := 0
	c.Progress = func(p campaign.Progress) {
		delivered++
		if p.Label == killLabel && p.Done >= killAfter {
			cancel()
		}
	}
	if _, err := c.Landscape(ctx, vantage.All(), study.Targets()); err == nil {
		t.Fatalf("crawl was not interrupted (label %q, after %d)", killLabel, killAfter)
	}
	return delivered
}

// resumedReport builds a study that resumes from dir and renders one
// experiment, returning the report and the landscape's replay count.
func resumedReport(t *testing.T, cfg cookiewalk.Config, exp cookiewalk.Experiment) (string, int64) {
	t.Helper()
	cfg.Resume = true
	study := cookiewalk.New(cfg)
	got, err := study.Report(exp)
	if err != nil {
		t.Fatalf("resumed report: %v", err)
	}
	return got, landscapeReplayed(study)
}

// landscapeReplayed counts the landscape visits study replayed from its
// checkpoint journals.
func landscapeReplayed(study *cookiewalk.Study) int64 {
	replayed := int64(0)
	for _, res := range study.CachedLandscape().PerVP {
		replayed += res.Stats.Replayed
	}
	return replayed
}

// TestResumeDeterminismRandomKill is the CI resume-determinism gate:
// for pseudo-random kill points, vantage points and worker/shard
// geometries derived from a seed, an interrupted-then-resumed study
// reports byte-identically to an uninterrupted one. CI runs it under
// -race once per seed (COOKIEWALK_SEED=1|2|3); without the env var all
// three seeds run. On failure the checkpoint directory and the got/want
// reports are copied under COOKIEWALK_ARTIFACTS (when set) for the
// workflow to upload.
func TestResumeDeterminismRandomKill(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls the scale-0.01 universe several times")
	}
	base := cookiewalk.Config{Seed: 42, Scale: 0.01, Reps: 1}
	// One uninterrupted reference serves every seed: the report depends
	// only on the universe config, never on scheduling or kill points.
	reference, err := cookiewalk.New(base).Report(cookiewalk.ExpAll)
	if err != nil {
		t.Fatal(err)
	}
	targets := int64(len(cookiewalk.New(base).Targets()))
	vps := cookiewalk.New(base).VantagePoints()

	for _, seed := range fault.Seeds(t, 1, 2, 3) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := xrand.New(xrand.SubSeed(seed, "resume-determinism"))
			killVP := vps[rng.Intn(len(vps))]
			killAfter := int64(1 + rng.Intn(int(targets)))
			dir := filepath.Join(t.TempDir(), "ckpt")

			cfg := base
			cfg.CheckpointDir = dir
			cfg.Workers = 1 + rng.Intn(4)
			cfg.Shards = 1 + rng.Intn(5)
			interruptCrawl(t, cfg, "landscape "+killVP, killAfter)

			cfg.Workers = 1 + rng.Intn(4)
			cfg.Shards = 1 + rng.Intn(5)
			got, replayed := resumedReport(t, cfg, cookiewalk.ExpAll)
			if got != reference {
				fault.SaveArtifacts(t, fmt.Sprintf("resume-seed-%d", seed), dir,
					map[string]string{"got.txt": got, "want.txt": reference})
				firstDiff(t, fmt.Sprintf("seed %d (kill %s@%d)", seed, killVP, killAfter), got, reference)
			}
			if replayed == 0 {
				t.Fatal("resume replayed nothing — the journal was ignored")
			}
			t.Logf("seed %d: killed %s after %d deliveries, replayed %d", seed, killVP, killAfter, replayed)
		})
	}
}

// TestResumeNonLandscapeExperimentJournal is the PR-5 acceptance test:
// checkpointing now covers EVERY constituent experiment campaign, not
// just the landscape. A checkpointed ExpAll is killed mid-way through
// the fig4 cookiewall campaign — i.e. AFTER the landscape and the fig4
// regular campaign journaled completely — and resumed under a
// DIFFERENT worker/shard geometry: the resumed report must be
// byte-identical to the golden snapshot, the killed campaign must
// replay its partial journal, and the fully journaled campaigns must
// replay end to end.
func TestResumeNonLandscapeExperimentJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full scale-0.02 experiment twice")
	}
	want := goldenAll(t)
	dir := filepath.Join(t.TempDir(), "ckpt")
	cfg := cookiewalk.Config{
		Seed: 42, Scale: 0.02, Reps: 2,
		CheckpointDir: dir, Workers: 3, Shards: 4,
	}
	study := cookiewalk.New(cfg)
	study.Crawler().ProgressEvery = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	study.Crawler().Progress = func(p campaign.Progress) {
		if p.Label == "fig4 cookiewall" && p.Done >= 5 {
			cancel()
		}
	}
	if _, err := study.ReportContext(ctx, cookiewalk.ExpAll); err == nil {
		t.Fatal("ExpAll was not interrupted")
	}

	// Resume under a different geometry.
	replayed := map[string]int64{}
	var mu sync.Mutex
	resumeCfg := cookiewalk.Config{
		Seed: 42, Scale: 0.02, Reps: 2,
		CheckpointDir: dir, Resume: true,
		Workers: 2, Shards: 3,
		Progress: func(p cookiewalk.Progress) {
			mu.Lock()
			if p.Replayed > replayed[p.Label] {
				replayed[p.Label] = p.Replayed
			}
			mu.Unlock()
		},
	}
	got, err := cookiewalk.New(resumeCfg).Report(cookiewalk.ExpAll)
	if err != nil {
		t.Fatalf("resumed report: %v", err)
	}
	firstDiff(t, "resumed ExpAll", got, want)
	mu.Lock()
	defer mu.Unlock()
	for _, label := range []string{"landscape US East", "landscape Germany", "fig4 regular", "fig4 cookiewall"} {
		if replayed[label] == 0 {
			t.Errorf("campaign %q replayed nothing — its journal was ignored (replays: %v)", label, replayed)
		}
	}
}

// TestResumeFlagWithoutJournal: Resume over a never-written checkpoint
// dir is simply a fresh (but journaled) crawl — the operator can pass
// -resume unconditionally in a retry loop.
func TestResumeFlagWithoutJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scale-0.01 crawl")
	}
	dir := filepath.Join(t.TempDir(), "never-written")
	cfg := cookiewalk.Config{Seed: 42, Scale: 0.01, Reps: 1, CheckpointDir: dir, Resume: true}
	study := cookiewalk.New(cfg)
	got, err := study.Report(cookiewalk.ExpTable1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.01, Reps: 1}).Report(cookiewalk.ExpTable1)
	if err != nil {
		t.Fatal(err)
	}
	firstDiff(t, "resume-without-journal", got, ref)
	for _, res := range study.CachedLandscape().PerVP {
		if res.Stats.Replayed != 0 {
			t.Fatalf("replayed %d from a nonexistent journal", res.Stats.Replayed)
		}
	}
	// And the crawl journaled while "resuming": a second resume now
	// replays everything.
	got2, replayed := resumedReport(t, cookiewalk.Config{Seed: 42, Scale: 0.01, Reps: 1, CheckpointDir: dir}, cookiewalk.ExpTable1)
	firstDiff(t, "second-resume", got2, ref)
	if replayed == 0 {
		t.Fatal("second resume replayed nothing")
	}
}
