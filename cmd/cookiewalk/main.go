// Command cookiewalk runs the paper's experiments end to end and
// prints the tables and figure series.
//
// Usage:
//
//	cookiewalk -exp all                 # every artefact (Table 1, Figures 1-6, ...)
//	cookiewalk -exp table1 -scale 0.05  # one artefact on a reduced web
//	cookiewalk -exp table1,bypass,smp   # a subset, assembled in report order
//	cookiewalk -list                    # experiment ids + their artefact dependencies
//	cookiewalk -exp all -out EXPERIMENTS.md
//
//	# Dependency-aware concurrent scheduling: run independent
//	# experiment campaigns 4 at a time on one shared worker budget
//	# (results are byte-identical to -j 1).
//	cookiewalk -exp all -j 4 -progress
//
//	# Crash-safe crawling: journal EVERY experiment campaign, and
//	# after a kill (OOM, preemption, ^C) resume the whole study —
//	# journaled visits stream from disk, only the missing ones are
//	# crawled, and the report is byte-identical to an uninterrupted
//	# run's.
//	cookiewalk -exp all -checkpoint /tmp/ck -progress
//	cookiewalk -exp all -checkpoint /tmp/ck -resume -progress
//
//	# Distributed crawling: one coordinator leases landscape shard
//	# ranges to any number of workers (same seed/scale!), assembles
//	# the shipped journals under -checkpoint, and reports once every
//	# range has merged. Workers that crash mid-lease are detected by
//	# a missed heartbeat TTL and their ranges re-leased; the report
//	# stays byte-identical to a single-machine run's.
//	cookiewalk -exp all -checkpoint /tmp/ck -serve :8440
//	cookiewalk -worker http://coordinator:8440    # on each worker box
//
//	# The coordinator itself is crash-safe: its lease ledger persists
//	# under -checkpoint, so after a crash (or a graceful ^C) the same
//	# command resumes the fleet — merged ranges stay merged, workers
//	# reconnect on their own. On untrusted networks set a shared
//	# -fleet-token on both sides.
//	cookiewalk -exp all -checkpoint /tmp/ck -serve :8440 -fleet-token S3CRET
//	cookiewalk -worker http://coordinator:8440 -fleet-token S3CRET
//
// Scale 1 (default) reproduces the full 45 222-target universe; the
// eight-VP crawl then takes tens of seconds. Smaller scales keep every
// cookiewall-related number identical and shrink only the filler web.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cookiewalk"
	"cookiewalk/internal/profiling"
)

// Coordinator connection bounds: a client that stalls before finishing
// its request headers, or an idle keep-alive connection, is dropped
// instead of holding a goroutine and a descriptor for ever. Request
// bodies are not time-bounded, because a worker's journal upload may
// legitimately be slow.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		seed       = flag.Uint64("seed", 42, "universe seed")
		scale      = flag.Float64("scale", 1, "filler-web scale (1 = paper size)")
		reps       = flag.Int("reps", 5, "repetitions for cookie measurements")
		exp        = flag.String("exp", "all", "comma-separated experiment ids (see -list)")
		list       = flag.Bool("list", false, "list experiment ids with their artefact dependencies and exit")
		out        = flag.String("out", "", "also write the report to this file")
		jsonOut    = flag.String("json", "", "write the machine-readable dataset (JSON) to this file")
		csvOut     = flag.String("csv", "", "write per-cookiewall records (CSV) to this file")
		workers    = flag.Int("workers", 0, "per-shard worker pool size (0 = GOMAXPROCS)")
		shards     = flag.Int("shards", 0, "campaign shard count (0 = derived from target count)")
		jobs       = flag.Int("j", 1, "experiment-level parallelism: independent experiment campaigns running concurrently on one shared worker budget")
		progress   = flag.Bool("progress", false, "stream campaign progress and per-shard error accounting to stderr")
		checkpoint = flag.String("checkpoint", "", "journal every experiment campaign into per-experiment subdirectories of this directory (crash-safe; see -resume)")
		resume     = flag.Bool("resume", false, "replay the journals under -checkpoint from a previous killed run and crawl only what is missing")
		serve      = flag.String("serve", "", "coordinator mode: serve landscape shard-range leases on this address and assemble shipped journals under -checkpoint; implies -resume, so the post-merge report replays the assembled journals instead of re-crawling")
		workerURL  = flag.String("worker", "", "worker mode: lease, crawl and ship landscape shard ranges from the coordinator at this URL (no report); MUST run with the coordinator's -seed and -scale, and its -fleet-token/-fleet-ca when those are set")
		leaseTTL   = flag.Duration("lease-ttl", 30*time.Second, "coordinator lease TTL: a worker silent this long is presumed dead and its range re-leased; never affects results, only how fast a lost range is re-handed out")
		fleetToken = flag.String("fleet-token", "", "shared fleet secret: -serve refuses requests without \"Authorization: Bearer <token>\" (constant-time compare, HTTP 401), -worker sends it on every request (empty = no auth; set the same value on both sides)")

		visitTimeout      = flag.Duration("visit-timeout", 0, "per-visit wall-clock deadline covering navigation + subresources + retries; an overrun surfaces as an ordinary visit error, never a wedged campaign (0 = none)")
		visitRetries      = flag.Int("visit-retries", 0, "extra attempts per request on transient transport failures (timeouts, resets, truncated bodies, 5xx); definitive failures (DNS, 4xx) never retry; results stay byte-identical when faults eventually clear")
		visitRetryBackoff = flag.Duration("visit-retry-backoff", 0, "initial retry delay, doubled per attempt up to 2s with seeded jitter (0 = the 100ms default); timing only, never results")
		perHost           = flag.Float64("per-host", 0, "per-host request rate limit in requests/second, shared across all shards and workers via one token bucket (0 = unlimited); throughput knob only — results are identical at any rate")
		perHostBurst      = flag.Int("per-host-burst", 0, "token-bucket burst size for -per-host (0 = the default of 1)")
		breakerThreshold  = flag.Int("breaker-threshold", 0, "per-host circuit breaker: skip a host (fail fast) after this many consecutive transient failures, until a half-open probe succeeds (0 = breaker off)")
		breakerCooldown   = flag.Duration("breaker-cooldown", 0, "how long an open breaker waits before probing the host again (0 = the 30s default)")

		fleetCert = flag.String("fleet-cert", "", "TLS certificate (PEM) for the coordinator: -serve listens with https:// (requires -fleet-key)")
		fleetKey  = flag.String("fleet-key", "", "TLS private key (PEM) for -fleet-cert")
		fleetCA   = flag.String("fleet-ca", "", "CA bundle (PEM) workers trust when dialing an https:// coordinator (empty = system pool)")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (post-GC live memory) to this file on exit")
	)
	flag.Parse()

	if err := profiling.Start(*cpuProfile, *memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	// Stop is idempotent; exit paths that bypass defers (the fleet
	// coordinator's signal handler) flush explicitly before os.Exit.
	defer profiling.Stop()

	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "error: -resume requires -checkpoint DIR")
		os.Exit(2)
	}
	if *serve != "" && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "error: -serve requires -checkpoint DIR (the journal assembly target)")
		os.Exit(2)
	}
	if *serve != "" && *workerURL != "" {
		fmt.Fprintln(os.Stderr, "error: -serve and -worker are mutually exclusive")
		os.Exit(2)
	}
	if (*fleetCert != "") != (*fleetKey != "") {
		fmt.Fprintln(os.Stderr, "error: -fleet-cert and -fleet-key must be set together")
		os.Exit(2)
	}

	if *list {
		for _, e := range cookiewalk.Experiments() {
			deps := cookiewalk.Dependencies(e)
			if len(deps) == 0 {
				fmt.Printf("%-12s (no dependencies)\n", e)
			} else {
				fmt.Printf("%-12s depends on: %s\n", e, strings.Join(deps, ", "))
			}
			if dirs := cookiewalk.JournalDirs(e); len(dirs) > 0 {
				fmt.Printf("%-12s journals under -checkpoint: %s\n", "", strings.Join(dirs, ", "))
			}
		}
		return
	}

	exps, err := cookiewalk.ParseExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}

	cfg := cookiewalk.Config{
		Seed: *seed, Scale: *scale, Reps: *reps,
		Workers: *workers, Shards: *shards,
		CheckpointDir: *checkpoint, Resume: *resume,
		ExperimentParallelism: *jobs,
		LeaseTTL:              *leaseTTL,
		FleetToken:            *fleetToken,
		FleetCA:               *fleetCA,
		VisitTimeout:          *visitTimeout,
		VisitRetries:          *visitRetries,
		VisitRetryBackoff:     *visitRetryBackoff,
		PerHostRPS:            *perHost,
		PerHostBurst:          *perHostBurst,
		BreakerThreshold:      *breakerThreshold,
		BreakerCooldown:       *breakerCooldown,
	}
	if *serve != "" {
		// The post-merge report must replay the assembled journals
		// rather than re-crawl, so coordinator mode implies -resume.
		cfg.Resume = true
	}
	if *progress {
		if *jobs > 1 {
			// Concurrent campaigns interleave their snapshots; a
			// carriage-return status line would shred, so print one
			// experiment-prefixed line per snapshot instead.
			cfg.Progress = printProgressLines
		} else {
			cfg.Progress = printProgress
		}
	}

	start := time.Now()
	study := cookiewalk.New(cfg)
	fmt.Fprintf(os.Stderr, "universe ready: %d targets (%.1fs)\n",
		len(study.Targets()), time.Since(start).Seconds())

	if *workerURL != "" {
		runWorker(study, *workerURL)
		fmt.Fprintf(os.Stderr, "total runtime: %.1fs\n", time.Since(start).Seconds())
		return
	}
	if *serve != "" {
		stop := serveFleet(study, *serve, *fleetCert, *fleetKey)
		defer stop()
	}

	text, err := study.ReportContext(context.Background(), exps...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Print(text)
	fmt.Fprintf(os.Stderr, "total runtime: %.1fs\n", time.Since(start).Seconds())
	if *progress {
		printShardAccounting(study)
	}

	if *out != "" {
		header := fmt.Sprintf("# cookiewalk experiment report\n\nseed=%d scale=%g reps=%d\n\n```\n",
			*seed, *scale, *reps)
		if err := os.WriteFile(*out, []byte(header+text+"```\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "write:", err)
			os.Exit(1)
		}
	}
	if *jsonOut != "" {
		writeWith(*jsonOut, study.ExportJSON)
	}
	if *csvOut != "" {
		writeWith(*csvOut, study.ExportWallsCSV)
	}
}

// progressLine renders one campaign snapshot as a -progress status
// line. On a resumed crawl it splits the visit counter into journal
// replays and fresh visits, so the operator sees how much work the
// checkpoint saved as it streams by.
func progressLine(p cookiewalk.Progress) string {
	split := ""
	if p.Replayed > 0 {
		split = fmt.Sprintf(" (%d replayed + %d fresh)", p.Replayed, p.Fresh())
	}
	return fmt.Sprintf("%-24s shard %d/%d  %d/%d visits%s  %d errors%s",
		p.Label+":", p.Shard, p.Shards, p.Done, p.Total, split, p.Errors, resilienceSuffix(p))
}

// printProgress is the serial (-j 1) -progress sink: one status line
// rewritten in place per campaign snapshot, terminated when the
// campaign completes.
func printProgress(p cookiewalk.Progress) {
	fmt.Fprint(os.Stderr, "\r"+progressLine(p))
	if p.Done >= p.Total {
		fmt.Fprintln(os.Stderr)
	}
}

// resilienceSuffix renders the retry/breaker counters, empty when the
// resilience layer had nothing to do — the common case — so the
// ordinary status line stays unchanged.
func resilienceSuffix(p cookiewalk.Progress) string {
	if p.Retries == 0 && p.BreakerTrips == 0 && p.BreakerDenials == 0 {
		return ""
	}
	s := fmt.Sprintf("  %d retries", p.Retries)
	if p.BreakerTrips > 0 || p.BreakerDenials > 0 {
		s += fmt.Sprintf("  breaker: %d trips, %d denials", p.BreakerTrips, p.BreakerDenials)
	}
	return s
}

// printProgressLines is the concurrent (-j > 1) -progress sink:
// snapshots from interleaved campaigns each get their own line,
// multiplexed by the campaign label's experiment-name prefix
// ("landscape Germany", "fig4 cookiewall", "bypass", ...).
func printProgressLines(p cookiewalk.Progress) {
	fmt.Fprintln(os.Stderr, progressLine(p))
}

// printShardAccounting dumps the per-shard visit/error counters of the
// landscape campaign (when one ran) — the engine's failure ledger,
// with replayed-vs-fresh splits for resumed crawls.
func printShardAccounting(study *cookiewalk.Study) {
	l := study.CachedLandscape()
	if l == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "landscape shard accounting:")
	for _, res := range l.PerVP {
		fmt.Fprintf(os.Stderr, "  %-14s", res.VP)
		for _, sh := range res.Stats.Shards {
			if sh.Replayed > 0 {
				fmt.Fprintf(os.Stderr, " [%d: %d/%d (%d replayed), %d err]",
					sh.Shard, sh.Done, sh.Targets, sh.Replayed, sh.Errors)
			} else {
				fmt.Fprintf(os.Stderr, " [%d: %d/%d, %d err]",
					sh.Shard, sh.Done, sh.Targets, sh.Errors)
			}
		}
		fmt.Fprintln(os.Stderr)
		if r := res.Stats.Replayed; r > 0 {
			fmt.Fprintf(os.Stderr, "  %-14s resumed: %d replayed + %d fresh of %d\n",
				"", r, res.Stats.Fresh(), res.Stats.Done)
		}
		if st := res.Stats; st.Retries > 0 || st.BreakerTrips > 0 || st.BreakerDenials > 0 {
			fmt.Fprintf(os.Stderr, "  %-14s resilience: %d retries, %d breaker trips, %d breaker denials\n",
				"", st.Retries, st.BreakerTrips, st.BreakerDenials)
		}
	}
}

// serveFleet runs the study's coordinator until every landscape shard
// range has been leased, crawled (by some worker) and merged into the
// checkpoint dir; the caller then reports off the assembled journals.
// The returned stop func closes the HTTP server; it is left serving
// until then so that workers polling for more work hear "done" and
// exit cleanly instead of finding the port closed mid-poll.
//
// SIGINT/SIGTERM shuts the coordinator down gracefully instead of
// dying mid-write: lease granting stops (workers see 503 and keep
// polling), the lease ledger is fsynced and closed, and the process
// exits nonzero with a reminder that the same -checkpoint resumes the
// fleet exactly where it stopped.
func serveFleet(study *cookiewalk.Study, addr, certFile, keyFile string) (stop func()) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	fc, err := study.NewFleetCoordinator(logf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: fc.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	scheme := "http"
	serve := srv.Serve
	if certFile != "" {
		scheme = "https"
		serve = func(l net.Listener) error { return srv.ServeTLS(l, certFile, keyFile) }
	}
	go func() {
		// A serve failure (unreadable -fleet-cert, a key that does not
		// match) must not leave the coordinator "listening" while serving
		// nothing and workers seeing opaque connection failures.
		if err := serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "coordinator serve:", err)
			os.Exit(1)
		}
	}()
	fmt.Fprintf(os.Stderr, "coordinator listening on %s (%s), waiting for workers...\n", ln.Addr(), scheme)

	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if err := fc.Wait(sigCtx); err != nil {
		if sigCtx.Err() != nil {
			st := fc.Status()
			fmt.Fprintf(os.Stderr, "\nsignal received: stopping lease grants and syncing the lease ledger (%d of %d ranges merged)...\n",
				st.Done, st.Units)
			if cerr := fc.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "ledger close:", cerr)
			}
			srv.Close()
			fmt.Fprintln(os.Stderr, "coordinator stopped cleanly — resume with the same -checkpoint to continue the fleet where it left off")
			profiling.Stop() // os.Exit skips defers; flush armed profiles first
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	st := fc.Status()
	fmt.Fprintf(os.Stderr, "fleet complete: %d shard ranges merged (%d lease expiries along the way)\n",
		st.Done, st.Expired)
	if st.Recovered > 0 {
		fmt.Fprintf(os.Stderr, "  resumed fleet: %d ranges were recovered from a previous coordinator (incarnation %d)\n",
			st.Recovered, st.Incarnation)
	}
	return func() { srv.Close() }
}

// runWorker joins the fleet at url and crawls leased ranges until the
// coordinator reports every range merged.
func runWorker(study *cookiewalk.Study, url string) {
	host, _ := os.Hostname()
	name := fmt.Sprintf("%s-%d", host, os.Getpid())
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if err := study.RunFleetWorker(context.Background(), url, name, logf); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// writeWith streams an export function into a file. The Close error is
// checked explicitly: these exports are the tool's dataset artifacts,
// and a buffered write that only fails at close (ENOSPC, quota) must
// not silently ship a truncated file.
func writeWith(path string, export func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "create:", err)
		os.Exit(1)
	}
	if err := export(f); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "export:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "close:", err)
		os.Exit(1)
	}
}
