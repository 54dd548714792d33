package cookiewalk

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net/http"
	"os"
	"time"

	"cookiewalk/internal/campaign/dist"
	"cookiewalk/internal/xrand"
)

// Distributed campaigns. A Study can run its landscape crawl — the
// 45k-sites-×-8-vantage-points bulk of the workload — across a fleet:
// one coordinator process serves shard-range leases over HTTP
// (NewFleetCoordinator), any number of worker processes claim leases,
// crawl their ranges and ship the resulting shard journals back
// (RunFleetWorker), and when every range has merged the coordinator
// replays the assembled journals through the ordinary Resume path.
// Because every worker generates the same universe from the same seed
// and visits are deterministic, the assembled Report(ExpAll) is
// byte-identical to a single-machine run's — even when workers crash
// mid-lease and their ranges are re-crawled elsewhere (see
// internal/campaign/dist for the lease/TTL/fencing protocol).
//
// The coordinator is itself restartable: its lease ledger persists in
// the checkpoint directory, so a coordinator killed mid-fleet resumes
// where it died when restarted with the same -checkpoint — merged
// ranges stay merged, unmerged ranges are re-leased, and workers ride
// out the outage in their retry loop (see internal/campaign/dist's
// ledger.go).
//
//	# terminal 1 — coordinator (assembles into -checkpoint, then reports)
//	cookiewalk -seed 42 -checkpoint /tmp/cw -serve :8440
//	# terminals 2..N — workers (same seed/scale!)
//	cookiewalk -seed 42 -worker http://coordinator:8440

// FleetCoordinator serves a study's landscape campaigns as leases and
// assembles worker-shipped journals into the study's checkpoint
// directory. Create with Study.NewFleetCoordinator, expose Handler()
// on an HTTP server, then Wait() before asking the study for reports.
type FleetCoordinator struct {
	co *dist.Coordinator
}

// NewFleetCoordinator prepares a coordinator for this study's
// landscape campaigns. Config.CheckpointDir is required — it is the
// assembly target, laid out exactly as local checkpointing lays it
// out, so the post-merge report replays it natively (set
// Config.Resume on the study that will render reports). If the
// directory already holds a lease ledger from an interrupted fleet run
// of the SAME study, the coordinator resumes it instead of starting
// over. Config.FleetToken, when set, locks the HTTP API behind bearer
// auth.
func (s *Study) NewFleetCoordinator(logf func(format string, args ...any)) (*FleetCoordinator, error) {
	if s.cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("cookiewalk: fleet coordinator requires Config.CheckpointDir")
	}
	co, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Dir:   s.cfg.CheckpointDir,
		Specs: s.crawler.LandscapeSpecs(s.Targets()),
		TTL:   s.cfg.LeaseTTL,
		Token: s.cfg.FleetToken,
		Logf:  logf,
	})
	if err != nil {
		return nil, fmt.Errorf("cookiewalk: fleet coordinator: %w", err)
	}
	return &FleetCoordinator{co: co}, nil
}

// Handler returns the coordinator's HTTP API (mount it on a server of
// your choosing).
func (fc *FleetCoordinator) Handler() http.Handler { return fc.co.Handler() }

// Wait blocks until every shard range of every campaign has been
// shipped and merged, or ctx is canceled.
func (fc *FleetCoordinator) Wait(ctx context.Context) error { return fc.co.Wait(ctx) }

// Status snapshots the coordinator's lease ledger.
func (fc *FleetCoordinator) Status() dist.Status { return fc.co.Status() }

// Close shuts the coordinator down gracefully: state-changing requests
// start answering 503 (workers keep polling until a restart takes
// over) and the lease ledger is fsynced and closed, leaving on-disk
// state exactly what a restart with the same CheckpointDir recovers.
func (fc *FleetCoordinator) Close() error { return fc.co.Close() }

// RunFleetWorker joins the fleet at coordinatorURL as a worker: it
// verifies the coordinator is distributing THIS study's campaigns
// (same labels, target count and targets hash — i.e. the same seed and
// scale), then leases, crawls and ships shard ranges until every range
// has merged. name identifies the worker in coordinator logs (and
// seeds the client's backoff jitter); logf (optional) receives worker
// progress. The returned error is nil on normal fleet completion. A
// coordinator restart mid-fleet is invisible beyond retry log lines —
// the worker polls until the endpoint returns.
func (s *Study) RunFleetWorker(ctx context.Context, coordinatorURL, name string, logf func(format string, args ...any)) error {
	httpClient, err := newFleetHTTPClient(s.cfg.FleetCA)
	if err != nil {
		return fmt.Errorf("cookiewalk: fleet worker: %w", err)
	}
	client := &dist.Client{
		BaseURL:    coordinatorURL,
		Token:      s.cfg.FleetToken,
		Seed:       xrand.Hash64(name),
		HTTPClient: httpClient,
	}
	return s.RunFleetWorkerWithClient(ctx, client, name, logf)
}

// newFleetHTTPClient builds the worker's HTTP client. With no custom CA
// it returns nil (the dist client falls back to http.DefaultClient,
// which already speaks https:// against publicly trusted coordinators).
// With caFile set, the returned client trusts exactly that PEM bundle —
// the self-signed / private-CA deployment the fleet TLS runbook
// describes.
func newFleetHTTPClient(caFile string) (*http.Client, error) {
	if caFile == "" {
		return nil, nil
	}
	pem, err := os.ReadFile(caFile)
	if err != nil {
		return nil, fmt.Errorf("fleet CA: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("fleet CA: no certificates found in %s", caFile)
	}
	return &http.Client{
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{RootCAs: pool},
		},
	}, nil
}

// RunFleetWorkerWithClient is RunFleetWorker with a caller-supplied
// protocol client — the seam the fault-injection harness uses to put a
// chaos transport under a real worker.
func (s *Study) RunFleetWorkerWithClient(ctx context.Context, client *dist.Client, name string, logf func(format string, args ...any)) error {
	// The identity check tolerates a coordinator that is mid-restart:
	// transient failures poll, definitive ones (bad token, bad URL)
	// fail fast.
	var specs []dist.Spec
	for {
		var err error
		specs, err = client.Campaigns(ctx)
		if err == nil {
			break
		}
		if !dist.IsTransient(err) || ctx.Err() != nil {
			return fmt.Errorf("cookiewalk: fleet worker: %w", err)
		}
		if logf != nil {
			logf("cookiewalk: fleet worker %s: coordinator unreachable (retryable): %v", name, err)
		}
		select {
		case <-time.After(500 * time.Millisecond):
		case <-ctx.Done():
			return context.Cause(ctx)
		}
	}
	targets := s.Targets()
	local := make(map[string]dist.Spec, len(specs))
	for _, spec := range s.crawler.LandscapeSpecs(targets) {
		local[spec.Label] = spec
	}
	for _, remote := range specs {
		want, ok := local[remote.Label]
		if !ok {
			return fmt.Errorf("cookiewalk: fleet worker: coordinator distributes unknown campaign %q", remote.Label)
		}
		// Shard count deliberately unchecked: a lease names its shard
		// and the coordinator's shard count, and RunRange derives the
		// range from both, so a coordinator partitioned differently
		// still hands out shards this worker runs exactly.
		if remote.Targets != want.Targets || remote.TargetsHash != want.TargetsHash {
			return fmt.Errorf(
				"cookiewalk: fleet worker: campaign %q is a different universe (coordinator: %d targets hash %#x; local: %d targets hash %#x) — seed/scale mismatch?",
				remote.Label, remote.Targets, remote.TargetsHash, want.Targets, want.TargetsHash)
		}
	}
	w := &dist.Worker{
		Client: client,
		Name:   name,
		Logf:   logf,
		Runner: func(ctx context.Context, lease dist.Lease, dir string) (string, error) {
			return s.crawler.RunLandscapeLease(ctx, lease, targets, dir)
		},
	}
	return w.Run(ctx)
}
