package cookiewalk_test

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cookiewalk"
	"cookiewalk/internal/campaign/dist"
	"cookiewalk/internal/fault"
	"cookiewalk/internal/xrand"
)

// TestFleetGoldenCoordinatorCrash is the PR-7 acceptance test: the
// coordinator is killed mid-fleet at a seed-derived point (after the
// K-th merged range, K picked from the chaos seed), a fresh
// coordinator process restarts on the same checkpoint dir and address,
// and the workers — whose every request passes the fault injector —
// ride out the outage in their retry loop and reconnect. The recovered
// fleet must finish, and the report assembled across both coordinator
// incarnations must be byte-identical to testdata/golden_all.txt. The
// fleet also runs with a shared bearer token, so the auth path is
// exercised end to end. COOKIEWALK_SEED picks the seed (default 1).
func TestFleetGoldenCoordinatorCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scale-0.02 landscape across a crash-recovered fleet")
	}
	seed := fault.Seeds(t, 1)[0]
	want := goldenAll(t)

	dir := filepath.Join(t.TempDir(), "fleet")
	t.Cleanup(func() {
		if t.Failed() {
			fault.SaveArtifacts(t, fmt.Sprintf("fleet-crash-seed-%d", seed), dir, nil)
		}
	})
	const token = "fleet-chaos-secret"
	cfg := cookiewalk.Config{
		Seed: 42, Scale: 0.02, Reps: 2,
		Shards:        4,
		CheckpointDir: dir,
		Resume:        true,
		LeaseTTL:      500 * time.Millisecond,
		FleetToken:    token,
	}

	// Incarnation 1, on a listener whose address the restart will
	// reclaim (workers keep polling the same URL throughout).
	coord1 := cookiewalk.New(cfg)
	fc1, err := coord1.NewFleetCoordinator(t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	units := fc1.Status().Units
	if units < 2 {
		t.Fatalf("fleet too small to crash mid-way: %d units", units)
	}
	killAfter := 1 + int(seed%uint64(units-1))
	t.Logf("killing coordinator after %d of %d merges (seed %d)", killAfter, units, seed)

	// The middleware counts successful journal merges to find the
	// seed-derived kill point, and tracks in-flight requests so the
	// "crash" can wait for incarnation 1's handlers to actually stop
	// touching the directory (a real SIGKILL stops them instantly; an
	// in-process stand-in has to drain them).
	inner := fc1.Handler()
	var merges, inflight atomic.Int64
	killCh := make(chan struct{})
	srv1 := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inflight.Add(1)
		defer inflight.Add(-1)
		if r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/journal") {
			rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
			inner.ServeHTTP(rec, r)
			if rec.code == http.StatusOK {
				if int(merges.Add(1)) == killAfter {
					close(killCh)
				}
			}
			return
		}
		inner.ServeHTTP(w, r)
	})}
	go srv1.Serve(ln)

	// Three workers, each behind its own seeded fault injector. They
	// are started before the crash and never restarted — surviving the
	// coordinator outage is their whole job.
	workerStudy := cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.02, Reps: 2, FleetToken: token})
	var wg sync.WaitGroup
	workerErrs := make([]error, 3)
	for i := range workerErrs {
		tr := &fault.Transport{
			Seed:    xrand.Mix64(seed, uint64(i)+7),
			Profile: fault.DefaultFleetProfile(),
		}
		client := &dist.Client{
			BaseURL:    "http://" + addr,
			Token:      token,
			HTTPClient: &http.Client{Transport: tr},
			Backoff:    10 * time.Millisecond,
			Seed:       xrand.Mix64(seed, uint64(i)),
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("chaos-w%d", i)
			workerErrs[i] = workerStudy.RunFleetWorkerWithClient(context.Background(), client, name, nil)
		}(i)
	}

	// The crash: at the kill point, drop the server without any
	// graceful coordinator shutdown — the fsynced ledger is all the
	// restart gets.
	select {
	case <-killCh:
	case <-time.After(120 * time.Second):
		t.Fatal("fleet never reached the kill point")
	}
	srv1.Close()
	for inflight.Load() != 0 {
		time.Sleep(time.Millisecond)
	}
	t.Logf("coordinator killed after %d merges; restarting on %s", merges.Load(), addr)

	// Incarnation 2: a fresh study (as a restarted process would
	// build), same checkpoint dir, same address.
	coord2 := cookiewalk.New(cfg)
	fc2, err := coord2.NewFleetCoordinator(t.Logf)
	if err != nil {
		t.Fatalf("coordinator restart: %v", err)
	}
	var ln2 net.Listener
	for deadline := time.Now().Add(10 * time.Second); ; {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv2 := &http.Server{Handler: fc2.Handler()}
	go srv2.Serve(ln2)
	defer srv2.Close()

	st := fc2.Status()
	if st.Incarnation != 2 {
		t.Fatalf("restart counted incarnation %d, want 2", st.Incarnation)
	}
	if st.Recovered < 1 {
		t.Fatalf("restart recovered %d merged ranges, want >= 1 (status %+v)", st.Recovered, st)
	}

	waitCtx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := fc2.Wait(waitCtx); err != nil {
		t.Fatalf("recovered fleet never completed: %v", err)
	}
	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d did not survive the coordinator crash: %v", i, err)
		}
	}
	st = fc2.Status()
	if st.Pending != 0 || st.Leased != 0 || st.Done != st.Units {
		t.Fatalf("fleet status = %+v", st)
	}

	got, err := coord2.Report(cookiewalk.ExpAll)
	if err != nil {
		t.Fatalf("post-recovery report: %v", err)
	}
	firstDiff(t, "crash-recovered fleet report", got, want)

	// The landscape must have replayed from the merged journals, not
	// re-crawled.
	for _, res := range coord2.CachedLandscape().PerVP {
		if res.Stats.Fresh() != 0 {
			t.Errorf("VP %s re-crawled %d visits instead of replaying the recovered assembly", res.VP, res.Stats.Fresh())
		}
	}
}

// statusRecorder captures the status code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}
