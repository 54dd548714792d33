// Command trendd is the continuous-measurement daemon: it re-runs the
// study's landscape crawl on a wall-clock schedule, appends each
// round's aggregates (prevalence, paywall share, price statistics,
// per-VP splits) to a time-indexed append-only store, and serves the
// resulting time series over a cached HTTP query API.
//
// Usage:
//
//	trendd -store /var/lib/cookiewalk/trends -interval 24h -addr :8460
//
//	# A bounded campaign: three rounds an hour apart, then keep serving.
//	trendd -store /tmp/trends -interval 1h -rounds 3 -addr :8460
//
//	# Query the API.
//	curl localhost:8460/v1/trends/prevalence
//	curl 'localhost:8460/v1/trends/vp_banner_rate?vp=Germany&from=0&to=10'
//	curl localhost:8460/v1/rounds
//	curl localhost:8460/v1/status
//
// Each round crawls the landscape again. It checkpoints its campaigns
// under <store>/rounds/round-NNNN (so a crash mid-round resumes by
// journal replay) and shares the process-global analysis memo, so a
// page seen before costs a memo hit instead of a fresh analysis. The
// store itself is crash-safe: a round is either durably appended or
// re-run, and a restart with the same -store resumes the schedule after
// the last stored round.
//
// The world is static. The round number reaches nothing the crawl
// reads — it only names the round's checkpoint directory — so every
// round re-measures the same universe (fixed by -seed and -scale) and
// stores the same summary. A round differs from the previous one only
// when the world does, and nothing changes the world between rounds, so
// a fixed schedule of rounds is byte-deterministic across runs and
// restarts.
//
// With -fleet-token set, every API request must carry
// "Authorization: Bearer <token>" — the same shared-secret scheme as
// the fleet coordinator's.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"cookiewalk"
	"cookiewalk/internal/campaign"
	"cookiewalk/internal/httpsrv"
	"cookiewalk/internal/measure"
	"cookiewalk/internal/profiling"
	"cookiewalk/internal/trend"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 42, "universe seed (must stay fixed for the lifetime of a store)")
		scale    = flag.Float64("scale", 1, "filler-web scale (1 = paper size; must stay fixed per store)")
		reps     = flag.Int("reps", 5, "repetitions for cookie measurements")
		workers  = flag.Int("workers", 0, "worker pool size of each campaign run, shared by all its shards (0 = GOMAXPROCS)")
		shards   = flag.Int("shards", 0, "campaign shard count (0 = derived from target count)")
		storeDir = flag.String("store", "", "trend store directory: the round journal (rounds.cwt), its manifest, and per-round crawl checkpoints live here (required)")
		interval = flag.Duration("interval", 24*time.Hour, "wall-clock period between round starts; an overrunning round starts the next one immediately")
		rounds   = flag.Int("rounds", 0, "stop after the store holds this many rounds (0 = run until signaled)")
		addr     = flag.String("addr", "", "serve the /v1 query API on this address (empty = no API, crawl only)")
		token    = flag.String("fleet-token", "", "bearer token the query API requires (empty = no auth; same scheme as the fleet coordinator)")
		cacheTTL = flag.Duration("cache-ttl", 15*time.Second, "response-cache entry lifetime; new rounds invalidate eagerly regardless")
		prune    = flag.Bool("prune", true, "remove a round's crawl checkpoint journals once its summary is durably stored")
		progress = flag.Bool("progress", false, "stream campaign progress to stderr")

		visitTimeout = flag.Duration("visit-timeout", 0, "per-visit wall-clock deadline, navigation + subresources + retries (0 = none)")
		visitRetries = flag.Int("visit-retries", 0, "extra attempts per request on transient transport failures")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole daemon run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (post-GC live memory) to this file on exit")
	)
	flag.Parse()

	if err := profiling.Start(*cpuProfile, *memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	// Stop is idempotent; the signal path below exits with os.Exit(3),
	// which skips defers, so it flushes explicitly first.
	defer profiling.Stop()

	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "error: -store DIR is required")
		os.Exit(2)
	}
	// An unbounded schedule with no interval would crawl back to back
	// forever; a bounded one may run its rounds back to back.
	if *interval < 0 || (*rounds == 0 && *interval == 0) {
		fmt.Fprintln(os.Stderr, "error: -interval must be positive (zero is allowed only with -rounds)")
		os.Exit(2)
	}

	base := cookiewalk.Config{
		Seed: *seed, Scale: *scale, Reps: *reps,
		Workers: *workers, Shards: *shards,
		VisitTimeout: *visitTimeout,
		VisitRetries: *visitRetries,
	}
	if *progress {
		base.Progress = func(p cookiewalk.Progress) {
			fmt.Fprintf(os.Stderr, "%-24s shard %d/%d  %d/%d visits  %d errors\n",
				p.Label+":", p.Shard, p.Shards, p.Done, p.Total, p.Errors)
		}
	}

	// Probe the universe once for the store's identity manifest; every
	// round builds its own Study (artefacts are latched per Study, and
	// a round must re-measure, not replay the previous round's memo).
	start := time.Now()
	probe := cookiewalk.New(base)
	targets := probe.Targets()
	fmt.Fprintf(os.Stderr, "universe ready: %d targets (%.1fs)\n", len(targets), time.Since(start).Seconds())

	store, err := trend.Open(*storeDir, trend.Manifest{
		Seed:        *seed,
		Scale:       *scale,
		Reps:        *reps,
		Targets:     len(targets),
		TargetsHash: campaign.HashTargets(targets),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	defer store.Close()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	roundDir := func(round int) string {
		return filepath.Join(*storeDir, "rounds", fmt.Sprintf("round-%04d", round))
	}
	runner := &trend.Runner{
		Store:    store,
		Interval: *interval,
		Rounds:   *rounds,
		Logf:     logf,
		Run: func(ctx context.Context, round int) (measure.RoundSummary, error) {
			cfg := base
			// Resume is unconditional: a round interrupted mid-crawl
			// replays its journals on the re-run instead of re-visiting.
			cfg.CheckpointDir = roundDir(round)
			cfg.Resume = true
			return cookiewalk.New(cfg).RoundSummary(ctx)
		},
		OnRound: func(st trend.RoundStats) {
			if *prune {
				if err := os.RemoveAll(roundDir(st.Round)); err != nil {
					logf("trend: pruning round %d checkpoints: %v", st.Round, err)
				}
			}
		},
	}

	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var srv *http.Server
	if *addr != "" {
		server := trend.NewServer(trend.ServerConfig{
			Store:    store,
			Runner:   runner,
			Token:    *token,
			CacheTTL: *cacheTTL,
		})
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "listen:", err)
			os.Exit(1)
		}
		// The API serves GET routes only, so the whole request read
		// is bounded too.
		srv = httpsrv.New("", server.Handler())
		go func() {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "trend serve:", err)
				os.Exit(1)
			}
		}()
		fmt.Fprintf(os.Stderr, "trend API listening on %s\n", ln.Addr())
		defer srv.Close()
	}

	if err := runner.Loop(sigCtx); err != nil {
		if sigCtx.Err() != nil {
			// The round that was interrupted left its campaign journals
			// under the store; the same command resumes it by replay.
			fmt.Fprintf(os.Stderr, "\nsignal received: %d rounds stored — restart with the same -store to resume the schedule\n", store.Len())
			store.Close()
			profiling.Stop() // os.Exit skips defers; flush armed profiles first
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "schedule complete: %d rounds stored\n", store.Len())
	if srv != nil {
		fmt.Fprintln(os.Stderr, "still serving the query API — ^C to exit")
		<-sigCtx.Done()
	}
}
