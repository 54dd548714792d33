package cookiewalk_test

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cookiewalk"
	"cookiewalk/internal/campaign/dist"
)

// TestFleetGoldenWithKilledWorker is the PR-6 acceptance test: a
// coordinator plus three in-process workers run the distributed
// landscape crawl, a fourth "worker" is killed mid-lease — it claims a
// range and then goes silent, exactly the journal-visible state a
// SIGKILL leaves — and the coordinator re-leases the lost range after
// its TTL. The report assembled from the shipped journals must be
// byte-identical to testdata/golden_all.txt, the golden snapshot of an
// uninterrupted single-machine run.
func TestFleetGoldenWithKilledWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scale-0.02 landscape across a worker fleet")
	}
	want := goldenAll(t)

	dir := filepath.Join(t.TempDir(), "fleet")
	coordCfg := cookiewalk.Config{
		Seed: 42, Scale: 0.02, Reps: 2,
		Shards:        4,
		CheckpointDir: dir,
		// Coordinator mode reports off the assembled journals.
		Resume: true,
		// Short TTL so the killed worker's range re-leases within the
		// test's patience; the real workers heartbeat at TTL/3 and are
		// never at risk.
		LeaseTTL: 300 * time.Millisecond,
	}
	coordStudy := cookiewalk.New(coordCfg)
	fc, err := coordStudy.NewFleetCoordinator(t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(fc.Handler())
	defer srv.Close()

	// The doomed worker: claims a lease, then is "SIGKILLed" — no
	// heartbeat, no journal, ever.
	client := &dist.Client{BaseURL: srv.URL}
	reply, err := client.Lease(context.Background(), "doomed")
	if err != nil || reply.Lease == nil {
		t.Fatalf("doomed worker got no lease: %+v, %v", reply, err)
	}
	t.Logf("killed worker held lease %s (%s shard %d [%d,%d))",
		reply.Lease.ID, reply.Lease.Label, reply.Lease.Shard, reply.Lease.Lo, reply.Lease.Hi)

	// Three live workers share one worker-side study (the crawler is
	// concurrency-safe); a real fleet would run one per machine, each
	// generating the same universe from the same seed.
	workerStudy := cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.02, Reps: 2})
	var wg sync.WaitGroup
	workerErrs := make([]error, 3)
	names := []string{"w0", "w1", "w2"}
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = workerStudy.RunFleetWorker(context.Background(), srv.URL, names[i], nil)
		}(i)
	}
	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %s: %v", names[i], err)
		}
	}

	waitCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fc.Wait(waitCtx); err != nil {
		t.Fatalf("fleet never completed: %v", err)
	}
	st := fc.Status()
	if st.Pending != 0 || st.Leased != 0 || st.Done != st.Units {
		t.Fatalf("fleet status = %+v", st)
	}
	if st.Expired < 1 {
		t.Fatalf("killed worker's lease never expired (status %+v)", st)
	}

	got, err := coordStudy.Report(cookiewalk.ExpAll)
	if err != nil {
		t.Fatalf("post-merge report: %v", err)
	}
	firstDiff(t, "fleet report", got, want)

	// The landscape must have replayed from the shipped journals, not
	// re-crawled.
	replayed := int64(0)
	for _, res := range coordStudy.CachedLandscape().PerVP {
		replayed += res.Stats.Replayed
		if res.Stats.Fresh() != 0 {
			t.Errorf("VP %s re-crawled %d visits instead of replaying shipped journals", res.VP, res.Stats.Fresh())
		}
	}
	if replayed == 0 {
		t.Fatal("landscape replayed nothing from the assembled journals")
	}
}

// TestFleetWorkerRefusesForeignUniverse: a worker with a different
// seed or scale computes a different targets hash and must refuse the
// coordinator's campaigns outright instead of shipping alien journals.
func TestFleetWorkerRefusesForeignUniverse(t *testing.T) {
	if testing.Short() {
		t.Skip("generates two universes")
	}
	dir := filepath.Join(t.TempDir(), "fleet")
	coordStudy := cookiewalk.New(cookiewalk.Config{
		Seed: 42, Scale: 0.01, Reps: 1, CheckpointDir: dir, Resume: true,
	})
	fc, err := coordStudy.NewFleetCoordinator(nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(fc.Handler())
	defer srv.Close()

	foreign := cookiewalk.New(cookiewalk.Config{Seed: 43, Scale: 0.01, Reps: 1})
	if err := foreign.RunFleetWorker(context.Background(), srv.URL, "stranger", nil); err == nil {
		t.Fatal("worker for a different universe joined the fleet")
	}
	if st := fc.Status(); st.Done != 0 {
		t.Fatalf("foreign worker completed work: %+v", st)
	}
}
