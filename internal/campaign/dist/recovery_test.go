package dist_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"cookiewalk/internal/campaign"
	"cookiewalk/internal/campaign/dist"
	"cookiewalk/internal/framelog"
)

// mustCoordinator builds a coordinator over dir for the given specs
// (no test server — callers wire their own).
func mustCoordinator(t *testing.T, dir string, specs ...dist.Spec) *dist.Coordinator {
	t.Helper()
	co, err := dist.NewCoordinator(dist.CoordinatorConfig{Dir: dir, Specs: specs, TTL: time.Minute, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// quickClient is a test client that never really sleeps.
func quickClient(url string) *dist.Client {
	return &dist.Client{BaseURL: url, MaxRetries: 1, Backoff: time.Millisecond, Sleep: func(time.Duration) {}}
}

// TestCoordinatorCrashRecovery is the ledger tentpole at protocol
// level: merge one range, "kill" the coordinator (abandon it without
// Close — the ledger was fsynced per event), restart on the same dir,
// and verify the recovered state — merged range still done, leased
// range back in the queue, fresh incarnation counted — then drain the
// rest and check the assembly replays byte-identically.
func TestCoordinatorCrashRecovery(t *testing.T) {
	targets := testTargets(60)
	const shards = 4
	hash := campaign.HashTargets(targets)
	spec := dist.Spec{Label: "camp alpha", Targets: len(targets), TargetsHash: hash, Shards: shards}
	dir := t.TempDir()
	ctx := context.Background()

	co1 := mustCoordinator(t, dir, spec)
	srv1 := httptest.NewServer(co1.Handler())
	client := quickClient(srv1.URL)

	// Shard 0 merges; shard 1 is granted but never shipped.
	reply, err := client.Lease(ctx, "w-merge")
	if err != nil || reply.Lease == nil {
		t.Fatalf("lease: %+v, %v", reply, err)
	}
	if err := client.ShipJournal(ctx, reply.Lease.ID, rangeJournal(t, "camp alpha", targets, 0, shards)); err != nil {
		t.Fatal(err)
	}
	reply, err = client.Lease(ctx, "w-doomed")
	if err != nil || reply.Lease == nil {
		t.Fatalf("lease: %+v, %v", reply, err)
	}
	orphaned := reply.Lease.ID
	srv1.Close() // SIGKILL-equivalent: no Close, no ledger shutdown

	co2 := mustCoordinator(t, dir, spec)
	srv2 := httptest.NewServer(co2.Handler())
	defer srv2.Close()
	client.BaseURL = srv2.URL

	st := co2.Status()
	if st.Incarnation != 2 || st.Recovered != 1 || st.Done != 1 || st.Pending != shards-1 || st.Leased != 0 {
		t.Fatalf("recovered status = %+v", st)
	}
	// The dead incarnation's lease is fenced, not resurrected.
	if err := client.Heartbeat(ctx, orphaned); !errors.Is(err, dist.ErrLeaseLost) {
		t.Fatalf("orphaned heartbeat: %v", err)
	}

	// Drain the remaining ranges; shard 0 must NOT be re-leased.
	for {
		reply, err := client.Lease(ctx, "w-drain")
		if err != nil {
			t.Fatal(err)
		}
		if reply.Done {
			break
		}
		if reply.Lease == nil {
			t.Fatalf("unexpected wait with a single worker: %+v", reply)
		}
		if reply.Lease.Shard == 0 {
			t.Fatalf("recovered coordinator re-leased merged shard 0 (%+v)", reply.Lease)
		}
		if err := client.ShipJournal(ctx, reply.Lease.ID,
			rangeJournal(t, "camp alpha", targets, reply.Lease.Shard, shards)); err != nil {
			t.Fatal(err)
		}
	}
	waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := co2.Wait(waitCtx); err != nil {
		t.Fatalf("recovered fleet never finished: %v", err)
	}

	// The assembled directory replays like any single-machine run.
	rcfg := campaign.Config{Label: "camp alpha", Checkpoint: &campaign.Checkpoint{
		Dir: filepath.Join(dir, campaign.PathLabel("camp alpha")), Codec: textCodec{}, TargetsHash: hash,
	}}
	var got []string
	stats, err := campaign.Resume(ctx, rcfg, targets,
		func(_ context.Context, d string) (string, error) {
			t.Errorf("assembled resume re-visited %s", d)
			return "", nil
		},
		func(r campaign.Result[string]) { got = append(got, fmt.Sprintf("%d:%s", r.Index, r.Value)) })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != int64(len(targets)) || len(got) != len(targets) {
		t.Fatalf("replayed %d, delivered %d of %d", stats.Replayed, len(got), len(targets))
	}
}

// TestRecoveryRequeuesCorruptAssemblyFile: a merge event whose
// assembly file no longer verifies (bit rot, torn disk) re-queues the
// range instead of trusting the ledger — the ledger is advisory, the
// journal bytes are authoritative.
func TestRecoveryRequeuesCorruptAssemblyFile(t *testing.T) {
	targets := testTargets(40)
	const shards = 2
	spec := dist.Spec{Label: "camp alpha", Targets: len(targets),
		TargetsHash: campaign.HashTargets(targets), Shards: shards}
	dir := t.TempDir()
	ctx := context.Background()

	co1 := mustCoordinator(t, dir, spec)
	srv1 := httptest.NewServer(co1.Handler())
	client := quickClient(srv1.URL)
	reply, err := client.Lease(ctx, "w")
	if err != nil || reply.Lease == nil {
		t.Fatalf("lease: %+v, %v", reply, err)
	}
	if err := client.ShipJournal(ctx, reply.Lease.ID, rangeJournal(t, "camp alpha", targets, 0, shards)); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	merged := filepath.Join(dir, campaign.PathLabel("camp alpha"), campaign.ShardFilename(0))
	data, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(merged, data, 0o644); err != nil {
		t.Fatal(err)
	}

	co2 := mustCoordinator(t, dir, spec)
	st := co2.Status()
	if st.Recovered != 0 || st.Pending != shards {
		t.Fatalf("recovered status with corrupt file = %+v", st)
	}
	if _, err := os.Stat(merged); !os.IsNotExist(err) {
		t.Fatalf("corrupt assembly file survived recovery: %v", err)
	}
}

// TestRecoveryProbesFileWithoutMergeEvent covers the crash window
// between the journal rename and the ledger append: the merge event is
// missing but the file is present and valid, so recovery trusts the
// verified bytes and keeps the range done.
func TestRecoveryProbesFileWithoutMergeEvent(t *testing.T) {
	targets := testTargets(40)
	const shards = 2
	spec := dist.Spec{Label: "camp alpha", Targets: len(targets),
		TargetsHash: campaign.HashTargets(targets), Shards: shards}
	dir := t.TempDir()
	ctx := context.Background()

	co1 := mustCoordinator(t, dir, spec)
	srv1 := httptest.NewServer(co1.Handler())
	client := quickClient(srv1.URL)
	reply, err := client.Lease(ctx, "w")
	if err != nil || reply.Lease == nil {
		t.Fatalf("lease: %+v, %v", reply, err)
	}
	if err := client.ShipJournal(ctx, reply.Lease.ID, rangeJournal(t, "camp alpha", targets, 0, shards)); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	// Drop the ledger's last frame (the merge event), simulating a crash
	// after the rename but before the append reached the disk.
	ledgerPath := filepath.Join(dir, "ledger.cwl")
	data, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	const ledgerMagic = "cwled2\n"
	frames, _ := framelog.Scan(data, ledgerMagic, func([]byte) bool { return true })
	seen := 0
	_, cut := framelog.Scan(data, ledgerMagic, func([]byte) bool { seen++; return seen < frames })
	if frames == 0 {
		t.Fatal("ledger has no event frames")
	}
	if err := os.WriteFile(ledgerPath, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	co2 := mustCoordinator(t, dir, spec)
	st := co2.Status()
	if st.Recovered != 1 || st.Pending != shards-1 {
		t.Fatalf("recovered status without merge event = %+v", st)
	}
}

// TestRecoveryRefusesForeignFleet: a ledger recorded for different
// campaigns (another universe, another shard partitioning) must be
// refused outright, never "recovered" into the wrong fleet.
func TestRecoveryRefusesForeignFleet(t *testing.T) {
	targets := testTargets(40)
	dir := t.TempDir()
	spec := dist.Spec{Label: "camp alpha", Targets: len(targets),
		TargetsHash: campaign.HashTargets(targets), Shards: 2}
	mustCoordinator(t, dir, spec)

	foreign := spec
	foreign.TargetsHash++
	if _, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Dir: dir, Specs: []dist.Spec{foreign}, TTL: time.Minute,
	}); err == nil {
		t.Fatal("coordinator adopted a foreign fleet's ledger")
	}
}

// TestRecoveryAllDone: restarting over a fully merged assembly
// completes immediately — Wait returns, workers hear "done".
func TestRecoveryAllDone(t *testing.T) {
	targets := testTargets(40)
	const shards = 2
	spec := dist.Spec{Label: "camp alpha", Targets: len(targets),
		TargetsHash: campaign.HashTargets(targets), Shards: shards}
	dir := t.TempDir()
	ctx := context.Background()

	co1 := mustCoordinator(t, dir, spec)
	srv1 := httptest.NewServer(co1.Handler())
	client := quickClient(srv1.URL)
	for s := 0; s < shards; s++ {
		reply, err := client.Lease(ctx, "w")
		if err != nil || reply.Lease == nil {
			t.Fatalf("lease %d: %+v, %v", s, reply, err)
		}
		if err := client.ShipJournal(ctx, reply.Lease.ID,
			rangeJournal(t, "camp alpha", targets, reply.Lease.Shard, shards)); err != nil {
			t.Fatal(err)
		}
	}
	srv1.Close()

	co2 := mustCoordinator(t, dir, spec)
	waitCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := co2.Wait(waitCtx); err != nil {
		t.Fatalf("fully merged fleet did not report done after restart: %v", err)
	}
	srv2 := httptest.NewServer(co2.Handler())
	defer srv2.Close()
	client.BaseURL = srv2.URL
	reply, err := client.Lease(ctx, "w-late")
	if err != nil || !reply.Done {
		t.Fatalf("late worker should hear done: %+v, %v", reply, err)
	}
}

// TestClosedCoordinatorAnswers503: after a graceful Close,
// state-changing requests are refused with 503 — the transient class,
// so workers keep polling for the restart instead of dying.
func TestClosedCoordinatorAnswers503(t *testing.T) {
	targets := testTargets(20)
	spec := dist.Spec{Label: "camp alpha", Targets: len(targets),
		TargetsHash: campaign.HashTargets(targets), Shards: 2}
	dir := t.TempDir()
	co := mustCoordinator(t, dir, spec)
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	if err := co.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	client := quickClient(srv.URL)
	_, err := client.Lease(context.Background(), "w")
	if err == nil || !dist.IsTransient(err) {
		t.Fatalf("lease against closed coordinator: %v (want transient)", err)
	}
	if err := client.Heartbeat(context.Background(), "L01-000001"); !dist.IsTransient(err) {
		t.Fatalf("heartbeat against closed coordinator: %v (want transient)", err)
	}
	// Read-only endpoints stay up so operators can still inspect state.
	if _, err := client.Campaigns(context.Background()); err != nil {
		t.Fatalf("campaigns against closed coordinator: %v", err)
	}
}

// TestCoordinatorTokenAuth: with a fleet token configured, tokenless
// and wrong-tokened requests get a definitive 401 (no retry), and the
// right token passes.
func TestCoordinatorTokenAuth(t *testing.T) {
	targets := testTargets(20)
	dir := t.TempDir()
	co, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Dir: dir,
		Specs: []dist.Spec{{Label: "camp alpha", Targets: len(targets),
			TargetsHash: campaign.HashTargets(targets), Shards: 2}},
		TTL:   time.Minute,
		Token: "s3cret",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		name, token string
	}{{"no token", ""}, {"wrong token", "s3cret-but-wrong"}} {
		t.Run(tc.name, func(t *testing.T) {
			c := quickClient(srv.URL)
			c.Token = tc.token
			_, err := c.Lease(context.Background(), "w")
			if !errors.Is(err, dist.ErrUnauthorized) {
				t.Fatalf("err = %v, want ErrUnauthorized", err)
			}
			if dist.IsTransient(err) {
				t.Fatal("401 classified transient — workers would retry forever")
			}
		})
	}

	ok := quickClient(srv.URL)
	ok.Token = "s3cret"
	reply, err := ok.Lease(context.Background(), "w")
	if err != nil || reply.Lease == nil {
		t.Fatalf("authorized lease: %+v, %v", reply, err)
	}
	// Raw HTTP double-check: the refusal really is a 401.
	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless status = %d, want 401", resp.StatusCode)
	}
}

// TestWorkerShipRetryAfterTornUpload: a PUT whose body arrives
// truncated is rejected by validation; the worker must re-ship a
// complete fresh copy under the same (still-heartbeaten) lease and
// succeed.
func TestWorkerShipRetryAfterTornUpload(t *testing.T) {
	targets := testTargets(40)
	const shards = 2
	spec := dist.Spec{Label: "camp alpha", Targets: len(targets),
		TargetsHash: campaign.HashTargets(targets), Shards: shards}
	dir := t.TempDir()
	co := mustCoordinator(t, dir, spec)
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	// Tear the body of the first journal PUT only.
	torn := false
	client := &dist.Client{BaseURL: srv.URL, MaxRetries: 1, Backoff: time.Millisecond,
		Sleep:      func(time.Duration) {},
		HTTPClient: &http.Client{Transport: tearFirstPut{inner: http.DefaultTransport, torn: &torn}}}

	runner := func(ctx context.Context, lease dist.Lease, scratch string) (string, error) {
		cfg := campaign.Config{Label: lease.Label, Checkpoint: &campaign.Checkpoint{
			Dir: scratch, Codec: textCodec{}, TargetsHash: lease.TargetsHash,
		}}
		if _, err := campaign.RunRange(ctx, cfg, targets, lease.Shard, lease.Shards, visitTarget, nil); err != nil {
			return "", err
		}
		return filepath.Join(scratch, campaign.ShardFilename(lease.Shard)), nil
	}
	w := &dist.Worker{Client: client, Name: "w-torn", Runner: runner,
		Poll: 5 * time.Millisecond, Logf: t.Logf}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker died on a torn upload: %v", err)
	}
	if !torn {
		t.Fatal("the tearing transport never fired — test proves nothing")
	}
	if st := co.Status(); st.Done != shards {
		t.Fatalf("status = %+v, want all %d merged", st, shards)
	}
}

// tearFirstPut truncates the body of the first journal PUT it sees.
type tearFirstPut struct {
	inner http.RoundTripper
	torn  *bool
}

func (tr tearFirstPut) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPut && !*tr.torn && req.Body != nil {
		*tr.torn = true
		data, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		cut := len(data) / 3
		clone := req.Clone(req.Context())
		clone.Body = io.NopCloser(bytes.NewReader(data[:cut]))
		clone.ContentLength = int64(cut)
		return tr.inner.RoundTrip(clone)
	}
	return tr.inner.RoundTrip(req)
}

// TestWorkerAbandonsLeaseWhenShipExhausted: when every fresh upload of
// a finished journal dies on transport (the coordinator crashed after
// granting the lease), the worker must NOT die with it — it abandons
// the range, the lease expires after its TTL, and the worker picks the
// range back up once the endpoint answers again.
func TestWorkerAbandonsLeaseWhenShipExhausted(t *testing.T) {
	targets := testTargets(20)
	spec := dist.Spec{Label: "camp alpha", Targets: len(targets),
		TargetsHash: campaign.HashTargets(targets), Shards: 1}
	dir := t.TempDir()
	co, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Dir: dir, Specs: []dist.Spec{spec}, TTL: 100 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	// MaxRetries 1 + ShipRetries 1 = 4 transport PUTs per lease; fail
	// exactly that many, so the first lease exhausts every fresh upload
	// and the retry after re-lease succeeds.
	var left, seen atomic.Int64
	left.Store(4)
	client := &dist.Client{BaseURL: srv.URL, MaxRetries: 1, Backoff: time.Millisecond,
		Sleep:      func(time.Duration) {},
		HTTPClient: &http.Client{Transport: failPuts{inner: http.DefaultTransport, left: &left, seen: &seen}}}
	runner := func(ctx context.Context, lease dist.Lease, scratch string) (string, error) {
		cfg := campaign.Config{Label: lease.Label, Checkpoint: &campaign.Checkpoint{
			Dir: scratch, Codec: textCodec{}, TargetsHash: lease.TargetsHash,
		}}
		if _, err := campaign.RunRange(ctx, cfg, targets, lease.Shard, lease.Shards, visitTarget, nil); err != nil {
			return "", err
		}
		return filepath.Join(scratch, campaign.ShardFilename(lease.Shard)), nil
	}
	w := &dist.Worker{Client: client, Name: "w-abandon", Runner: runner,
		ShipRetries: 1, Poll: 5 * time.Millisecond, Logf: t.Logf}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker died instead of abandoning the lease: %v", err)
	}
	if got := seen.Load(); got < 5 {
		t.Fatalf("transport saw %d journal PUTs, want >= 5 (4 injected failures + a successful re-ship)", got)
	}
	if st := co.Status(); st.Done != 1 || st.Pending != 0 {
		t.Fatalf("status = %+v, want the range merged after re-lease", st)
	}
}

// failPuts fails the first `left` journal PUTs with a transport error —
// what shipping into a crashed coordinator looks like from the client.
type failPuts struct {
	inner      http.RoundTripper
	left, seen *atomic.Int64
}

func (tr failPuts) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPut {
		tr.seen.Add(1)
		if tr.left.Add(-1) >= 0 {
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, fmt.Errorf("injected: connection refused")
		}
	}
	return tr.inner.RoundTrip(req)
}
