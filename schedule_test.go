package cookiewalk_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cookiewalk"
)

// TestReportContextCancellation cancels an ExpAll mid-campaign and
// asserts the report aborts promptly with the cancellation cause, the
// in-flight campaign stops, no goroutine is left behind, and the
// latched failure is what later reports on the same study observe
// (retry needs a fresh Study).
func TestReportContextCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls a scale-0.01 universe")
	}
	before := runtime.NumGoroutine()
	cfg := cookiewalk.Config{Seed: 42, Scale: 0.01, Reps: 1}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	cfg.Progress = func(p cookiewalk.Progress) {
		if p.Done >= 5 {
			once.Do(cancel)
		}
	}
	study := cookiewalk.New(cfg)
	study.Crawler().ProgressEvery = 1

	done := make(chan struct{})
	var got string
	var err error
	go func() {
		defer close(done)
		got, err = study.ReportContext(ctx, cookiewalk.ExpAll)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("ReportContext did not return after cancellation")
	}
	if err == nil {
		t.Fatalf("expected cancellation error, got %d-byte report", len(got))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	// Failures are latched in the artefact store: a later report on the
	// same study returns immediately with the same cause.
	if _, err2 := study.Report(cookiewalk.ExpAll); err2 == nil || !errors.Is(err2, context.Canceled) {
		t.Fatalf("latched error = %v, want the canceled cause", err2)
	}
	// Scheduler and campaign goroutines must all have exited.
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

// TestReportSubsetAssembly: a requested subset is assembled in fixed
// Experiments() order regardless of request order, each section
// byte-identical to its individually rendered report.
func TestReportSubsetAssembly(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls a scale-0.01 universe")
	}
	s := cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.01, Reps: 1})
	table1, err := s.Report(cookiewalk.ExpTable1)
	if err != nil {
		t.Fatal(err)
	}
	smp, err := s.Report(cookiewalk.ExpSMP)
	if err != nil {
		t.Fatal(err)
	}
	// Request order reversed; assembly order must not be.
	combo, err := s.ReportContext(context.Background(), cookiewalk.ExpSMP, cookiewalk.ExpTable1)
	if err != nil {
		t.Fatal(err)
	}
	if want := table1 + "\n" + smp + "\n"; combo != want {
		firstDiff(t, "subset assembly", combo, want)
	}
}

// TestExperimentValidation covers the request-parsing surface: unknown
// ids are refused with the experiment named, ParseExperiments handles
// comma lists and whitespace, and the dependency listing exposes the
// registry's edges in topological order.
func TestExperimentValidation(t *testing.T) {
	s := cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.01, Reps: 1})
	if _, err := s.Report(cookiewalk.Experiment("nope")); err == nil ||
		!strings.Contains(err.Error(), `unknown experiment "nope"`) {
		t.Fatalf("unknown experiment error = %v", err)
	}
	// Artefact ids are not runnable experiments.
	if _, err := s.Report(cookiewalk.Experiment("landscape")); err == nil {
		t.Fatal("artefact id accepted as an experiment")
	}

	exps, err := cookiewalk.ParseExperiments("table1, bypass ,smp")
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 3 || exps[0] != cookiewalk.ExpTable1 || exps[1] != cookiewalk.ExpBypass || exps[2] != cookiewalk.ExpSMP {
		t.Fatalf("parsed = %v", exps)
	}
	if _, err := cookiewalk.ParseExperiments("table1,bogus"); err == nil {
		t.Fatal("bogus id accepted")
	}
	if _, err := cookiewalk.ParseExperiments("table1,,smp"); err == nil {
		t.Fatal("empty id accepted")
	}
	if exps, err := cookiewalk.ParseExperiments("all"); err != nil || len(exps) != 1 || exps[0] != cookiewalk.ExpAll {
		t.Fatalf("all = %v, %v", exps, err)
	}
}

// TestDependencies pins the registry's declared edges for the
// experiments the issue names: fig6 reaches fig4's cookie campaign and
// the landscape; the wall-domain experiments reach the landscape
// through the derived domain list; smp depends on nothing.
func TestDependencies(t *testing.T) {
	deps := func(e cookiewalk.Experiment) string {
		return strings.Join(cookiewalk.Dependencies(e), ",")
	}
	if got := deps(cookiewalk.ExpSMP); got != "" {
		t.Fatalf("smp deps = %q", got)
	}
	fig6 := cookiewalk.Dependencies(cookiewalk.ExpFigure6)
	idx := map[string]int{}
	for i, d := range fig6 {
		idx[d] = i + 1
	}
	if idx["landscape"] == 0 || idx["fig4cookies"] == 0 || idx["german"] == 0 {
		t.Fatalf("fig6 deps = %v", fig6)
	}
	if idx["landscape"] > idx["fig4cookies"] {
		t.Fatalf("fig6 deps not topologically ordered: %v", fig6)
	}
	for _, e := range []cookiewalk.Experiment{cookiewalk.ExpBypass, cookiewalk.ExpAblation, cookiewalk.ExpRevocation} {
		got := cookiewalk.Dependencies(e)
		want := []string{"landscape", "german", "wallDomains"}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("%s deps = %v, want %v", e, got, want)
		}
	}
}

// TestConcurrentReportsShareArtefacts: two goroutines reporting
// different experiments on one study share the landscape artefact (it
// runs once), and both outputs match their serial equivalents.
func TestConcurrentReportsShareArtefacts(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls a scale-0.01 universe")
	}
	crawls := 0
	cfg := cookiewalk.Config{Seed: 42, Scale: 0.01, Reps: 1}
	var mu sync.Mutex
	cfg.Progress = func(p cookiewalk.Progress) {
		if strings.HasPrefix(p.Label, "landscape Germany") && p.Done == p.Total {
			mu.Lock()
			crawls++
			mu.Unlock()
		}
	}
	s := cookiewalk.New(cfg)
	var wg sync.WaitGroup
	outs := make([]string, 2)
	errs := make([]error, 2)
	for i, e := range []cookiewalk.Experiment{cookiewalk.ExpTable1, cookiewalk.ExpPrevalence} {
		wg.Add(1)
		go func(i int, e cookiewalk.Experiment) {
			defer wg.Done()
			outs[i], errs[i] = s.ReportContext(context.Background(), e)
		}(i, e)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
	}
	ref := cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.01, Reps: 1})
	for i, e := range []cookiewalk.Experiment{cookiewalk.ExpTable1, cookiewalk.ExpPrevalence} {
		want, err := ref.Report(e)
		if err != nil {
			t.Fatal(err)
		}
		if outs[i] != want {
			firstDiff(t, string(e), outs[i], want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if crawls != 1 {
		t.Fatalf("landscape Germany campaign completed %d times, want 1 (artefact store must dedupe)", crawls)
	}
}
