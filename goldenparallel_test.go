package cookiewalk_test

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cookiewalk"
)

// TestGoldenParallelism pins the multi-core determinism contract: the
// COMPLETE experiment output is byte-identical to the golden snapshot
// at every (GOMAXPROCS, Workers) combination a deployment might pick.
// Worker-affine browser sessions, batched resequencer delivery and padded
// cache shards (PR 10) are all pure mechanism — if any of them leaked
// scheduling into results, the diff would surface here first.
func TestGoldenParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full scale-0.02 experiment four times")
	}
	want, err := os.ReadFile("testdata/golden_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("gomaxprocs=%d/workers=%d", procs, workers), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				study := cookiewalk.New(cookiewalk.Config{
					Seed: 42, Scale: 0.02, Reps: 2, Workers: workers,
				})
				got, err := study.Report(cookiewalk.ExpAll)
				if err != nil {
					t.Fatal(err)
				}
				if got == string(want) {
					return
				}
				gotLines := strings.Split(got, "\n")
				wantLines := strings.Split(string(want), "\n")
				for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
					if gotLines[i] != wantLines[i] {
						t.Fatalf("output diverges from golden at line %d:\n got: %q\nwant: %q",
							i+1, gotLines[i], wantLines[i])
					}
				}
				t.Fatalf("output length changed: got %d lines, want %d lines",
					len(gotLines), len(wantLines))
			})
		}
	}
}

// TestConcurrentStudiesIsolated pins that studies share no hidden
// state: two Study values with different seeds run at the same time in
// one process, and each report is byte-identical to that study run
// alone — seed 42 to the golden snapshot, seed 7 to its own solo run.
// Under -race it also catches any unsynchronized state the two crawls
// touch together.
func TestConcurrentStudiesIsolated(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full scale-0.02 experiment three times")
	}
	want42, err := os.ReadFile("testdata/golden_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	report := func(seed uint64) (string, error) {
		return cookiewalk.New(cookiewalk.Config{Seed: seed, Scale: 0.02, Reps: 2}).Report(cookiewalk.ExpAll)
	}
	var got42, got7 string
	var err42, err7 error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); got42, err42 = report(42) }()
	go func() { defer wg.Done(); got7, err7 = report(7) }()
	wg.Wait()
	if err42 != nil || err7 != nil {
		t.Fatalf("concurrent studies: seed 42: %v, seed 7: %v", err42, err7)
	}
	alone7, err := report(7)
	if err != nil {
		t.Fatal(err)
	}
	if alone7 == got42 {
		t.Fatal("seeds 42 and 7 produced the same report; the test cannot tell the studies apart")
	}
	firstDiff(t, "seed 42 beside seed 7 vs golden", got42, string(want42))
	firstDiff(t, "seed 7 beside seed 42 vs seed 7 alone", got7, alone7)
}
