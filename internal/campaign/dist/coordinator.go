package dist

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"cookiewalk/internal/campaign"
	"cookiewalk/internal/framelog"
)

// CoordinatorConfig configures a fleet coordinator.
type CoordinatorConfig struct {
	// Dir is the assembly root: each campaign's shipped journals land
	// in Dir/<campaign.PathLabel(label)>, the exact directory layout the
	// study's own checkpointing uses, so the merged result is directly
	// resumable. The lease ledger (ledger.cwl) lives at the root of Dir;
	// restarting a coordinator on the same Dir resumes the fleet where
	// it died instead of re-crawling merged ranges.
	Dir string
	// Specs are the campaigns to distribute, in lease order.
	Specs []Spec
	// TTL is the lease lifetime (default 30s). A lease not heartbeated
	// within TTL is revoked and its range re-leased.
	TTL time.Duration
	// Token, when non-empty, locks the HTTP API behind a shared-secret
	// bearer token: every request must carry
	// "Authorization: Bearer <Token>" or is refused with 401
	// (constant-time compare). Workers treat 401 as definitive — no
	// retry storm against a fleet they cannot join.
	Token string
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// unit is one leasable shard range of one campaign and its lifecycle:
// pending → leased (→ pending again on expiry) → done.
type unit struct {
	spec     Spec
	shard    int
	lo, hi   int
	dir      string // assembly dir of the unit's campaign
	done     bool
	lease    string // current lease ID, "" when pending or done
	worker   string
	deadline time.Time
}

// Coordinator owns the unit ledger and the assembly directories. All
// state transitions happen under mu and are appended to the durable
// lease ledger before the response that reveals them is sent; journal
// bytes are validated and written outside the lock, with the lease
// re-verified before the final rename is made visible.
type Coordinator struct {
	cfg CoordinatorConfig
	ttl time.Duration

	mu          sync.Mutex
	led         *ledger
	ledDead     bool // logged the ledger's first failure
	closed      bool // Close called: stop granting, refuse state changes
	incarnation int  // 1 on a fresh ledger, +1 per recovery
	recovered   int  // units found merged-and-valid during recovery
	units       []*unit
	leases      map[string]*unit
	seq         int
	pending     int
	expired     int
	doneCh      chan struct{} // closed when every unit is done
}

// NewCoordinator prepares the assembly directories (one per campaign)
// and builds the lease ledger: one unit per shard range of every spec,
// partitioned exactly as a single-machine Run would partition it.
//
// If Dir already holds a lease ledger from a previous coordinator over
// the SAME spec set, the coordinator recovers instead of starting
// over: ledger events are replayed, every range recorded (or found) as
// merged is re-verified against its assembly file with
// campaign.CheckJournal, verified ranges stay done, and everything
// else — including ranges that were leased out when the previous
// incarnation died — returns to the pending queue. Stale lease IDs are
// not restored, so requests under them hit the ordinary 410 fence and
// their holders simply lease again. A ledger recorded for a different
// spec set is refused outright.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("dist: coordinator needs an assembly dir")
	}
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("dist: coordinator needs at least one campaign spec")
	}
	ttl := cfg.TTL
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	co := &Coordinator{
		cfg:    cfg,
		ttl:    ttl,
		leases: make(map[string]*unit),
		doneCh: make(chan struct{}),
	}
	seen := make(map[string]bool, len(cfg.Specs))
	for _, spec := range cfg.Specs {
		if spec.Label == "" || spec.Targets <= 0 || spec.Shards <= 0 {
			return nil, fmt.Errorf("dist: invalid spec %+v", spec)
		}
		dir := filepath.Join(cfg.Dir, campaign.PathLabel(spec.Label))
		if seen[dir] {
			return nil, fmt.Errorf("dist: campaign %q: assembly dir %s already claimed by another spec", spec.Label, dir)
		}
		seen[dir] = true
		for s := 0; s < spec.Shards; s++ {
			lo, hi := campaign.ShardRange(spec.Targets, spec.Shards, s)
			co.units = append(co.units, &unit{spec: spec, shard: s, lo: lo, hi: hi, dir: dir})
		}
	}

	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("dist: assembly dir: %w", err)
	}
	led, events, err := openLedger(filepath.Join(cfg.Dir, ledgerName))
	if err != nil {
		return nil, fmt.Errorf("dist: open lease ledger: %w", err)
	}
	co.led = led
	if err := co.recover(events); err != nil {
		led.close()
		return nil, err
	}
	if err := led.append(ledgerEvent{Ev: evStart, Inc: co.incarnation, Fleet: fleetHash(cfg.Specs)}); err != nil {
		led.close()
		return nil, fmt.Errorf("dist: %w", err)
	}
	if co.allDoneLocked() {
		// Every range was already merged before this restart: Wait must
		// not block for a merge that will never come.
		close(co.doneCh)
	}
	return co, nil
}

// recover initializes unit state from a prior incarnation's ledger
// events (none = fresh start). Called from NewCoordinator only, before
// the coordinator is shared, so no locking.
func (co *Coordinator) recover(events []ledgerEvent) error {
	fleet := fleetHash(co.cfg.Specs)
	if len(events) == 0 {
		// Fresh fleet: wipe stale journals and write each campaign's
		// manifest, exactly as a fresh checkpointed Run would.
		co.incarnation = 1
		for _, spec := range co.cfg.Specs {
			dir := filepath.Join(co.cfg.Dir, campaign.PathLabel(spec.Label))
			if err := campaign.InitCheckpointDir(dir, spec.Label, spec.Targets, spec.TargetsHash); err != nil {
				return fmt.Errorf("dist: campaign %q: %w", spec.Label, err)
			}
		}
		co.pending = len(co.units)
		return nil
	}

	merged := make(map[string]bool)
	for _, ev := range events {
		switch ev.Ev {
		case evStart:
			if ev.Fleet != fleet {
				return fmt.Errorf(
					"dist: lease ledger in %s belongs to a different fleet (ledger %#x vs configured %#x — other campaigns, universe or shard count); clear the directory to start over",
					co.cfg.Dir, ev.Fleet, fleet)
			}
			co.incarnation = ev.Inc
		case evGrant:
			if ev.Seq > co.seq {
				co.seq = ev.Seq
			}
		case evMerge:
			merged[ev.Label+"\x00"+fmt.Sprint(ev.Shard)] = true
		}
	}
	co.incarnation++

	// Re-establish each campaign's manifest without wiping the journals
	// merged before the crash.
	for _, spec := range co.cfg.Specs {
		dir := filepath.Join(co.cfg.Dir, campaign.PathLabel(spec.Label))
		if err := campaign.EnsureCheckpointDir(dir, spec.Label, spec.Targets, spec.TargetsHash); err != nil {
			return fmt.Errorf("dist: campaign %q: %w", spec.Label, err)
		}
	}

	// A unit is done only if its assembly file verifies NOW — the
	// ledger's merge events are candidates, but so is any shard file
	// present on disk (covering a crash between the rename and the
	// ledger append). A missing or corrupt file re-queues the range.
	for _, u := range co.units {
		path := filepath.Join(u.dir, campaign.ShardFilename(u.shard))
		data, err := os.ReadFile(path)
		if err != nil {
			if !os.IsNotExist(err) {
				return fmt.Errorf("dist: recover %s: %w", path, err)
			}
			if merged[u.spec.Label+"\x00"+fmt.Sprint(u.shard)] {
				co.logf("dist: ledger says %s shard %d merged but %s is missing — re-queuing", u.spec.Label, u.shard, path)
			}
			continue
		}
		if err := campaign.CheckJournal(data, u.lo, u.hi); err != nil {
			co.logf("dist: recovered journal %s failed verification (%v) — re-queuing range", path, err)
			os.Remove(path)
			continue
		}
		u.done = true
		co.recovered++
	}
	co.pending = 0
	for _, u := range co.units {
		if !u.done {
			co.pending++
		}
	}
	co.logf("dist: recovered lease ledger: %d of %d ranges already merged and verified, %d pending — resuming as incarnation %d",
		co.recovered, len(co.units), co.pending, co.incarnation)
	return nil
}

func (co *Coordinator) now() time.Time {
	if co.cfg.Now != nil {
		return co.cfg.Now()
	}
	return time.Now()
}

func (co *Coordinator) logf(format string, args ...any) {
	if co.cfg.Logf != nil {
		co.cfg.Logf(format, args...)
	}
}

// ledgerAppend records one event, logging (once) if the ledger has
// gone dead. Durability failures never stop the fleet: recovery can
// rebuild merge state from the assembly files alone.
func (co *Coordinator) ledgerAppend(ev ledgerEvent) {
	if err := co.led.append(ev); err != nil && !co.ledDead {
		co.ledDead = true
		co.logf("dist: lease ledger failed, continuing without durability (a restart will recover from assembly files only): %v", err)
	}
}

// Close makes the coordinator refuse further state transitions (lease
// grants, heartbeats, journal merges answer 503 so workers keep
// retrying their backoff loop until a restarted coordinator takes
// over) and fsyncs + closes the lease ledger. It is the graceful half
// of crash-safety: after Close returns, the on-disk state is exactly
// what a restart recovers from.
func (co *Coordinator) Close() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.closed {
		return nil
	}
	co.closed = true
	return co.led.close()
}

// expireLocked revokes every lease past its deadline, returning the
// ranges to the pending queue. Called under mu at the top of every
// state-touching request — the coordinator needs no background timer.
func (co *Coordinator) expireLocked(now time.Time) {
	for id, u := range co.leases {
		if now.After(u.deadline) {
			delete(co.leases, id)
			co.logf("dist: lease %s expired (%s shard %d [%d,%d) worker %s) — re-leasing",
				id, u.spec.Label, u.shard, u.lo, u.hi, u.worker)
			u.lease, u.worker = "", ""
			co.expired++
			co.pending++
			co.ledgerAppend(ledgerEvent{Ev: evExpire, Lease: id, Label: u.spec.Label, Shard: u.shard, Lo: u.lo, Hi: u.hi})
		}
	}
}

// grantLocked hands out the first pending unit, in ledger order. The
// grant is recorded before the lease is revealed; lease IDs embed the
// incarnation so they stay unique even if the ledger (and with it the
// recovered sequence counter) was lost.
func (co *Coordinator) grantLocked(worker string, now time.Time) *Lease {
	for _, u := range co.units {
		if u.done || u.lease != "" {
			continue
		}
		co.seq++
		id := fmt.Sprintf("L%02d-%06d", co.incarnation, co.seq)
		u.lease, u.worker, u.deadline = id, worker, now.Add(co.ttl)
		co.leases[id] = u
		co.pending--
		co.ledgerAppend(ledgerEvent{Ev: evGrant, Seq: co.seq, Lease: id, Worker: worker,
			Label: u.spec.Label, Shard: u.shard, Lo: u.lo, Hi: u.hi})
		co.logf("dist: leased %s shard %d [%d,%d) to %s as %s", u.spec.Label, u.shard, u.lo, u.hi, worker, id)
		return &Lease{
			ID: id, Label: u.spec.Label,
			Shard: u.shard, Shards: u.spec.Shards, Lo: u.lo, Hi: u.hi,
			Targets: u.spec.Targets, TargetsHash: u.spec.TargetsHash,
			TTLMillis: co.ttl.Milliseconds(),
		}
	}
	return nil
}

// allDoneLocked reports whether every unit has merged.
func (co *Coordinator) allDoneLocked() bool {
	for _, u := range co.units {
		if !u.done {
			return false
		}
	}
	return true
}

// Status snapshots the ledger counters (after an expiry sweep).
func (co *Coordinator) Status() Status {
	co.mu.Lock()
	defer co.mu.Unlock()
	if !co.closed {
		// After Close the snapshot is frozen: expiring leases would try
		// to append to the closed ledger.
		co.expireLocked(co.now())
	}
	st := Status{
		Units: len(co.units), Pending: co.pending, Leased: len(co.leases),
		Expired: co.expired, Incarnation: co.incarnation, Recovered: co.recovered,
	}
	st.Done = st.Units - st.Pending - st.Leased
	return st
}

// Wait blocks until every shard range of every campaign has been
// shipped and merged, or ctx is canceled.
func (co *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-co.doneCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Handler returns the coordinator's HTTP API, wrapped in bearer-token
// auth when CoordinatorConfig.Token is set.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/campaigns", co.handleCampaigns)
	mux.HandleFunc("POST /v1/lease", co.handleLease)
	mux.HandleFunc("POST /v1/heartbeat", co.handleHeartbeat)
	mux.HandleFunc("PUT /v1/journal", co.handleJournal)
	mux.HandleFunc("GET /v1/status", co.handleStatus)
	if co.cfg.Token == "" {
		return mux
	}
	want := sha256.Sum256([]byte(co.cfg.Token))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		// Compare digests, not tokens: constant-time regardless of
		// attacker-controlled length.
		got := sha256.Sum256([]byte(tok))
		if !ok || subtle.ConstantTimeCompare(got[:], want[:]) != 1 {
			http.Error(w, "missing or invalid fleet token", http.StatusUnauthorized)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// closedLocked answers state-changing requests during graceful
// shutdown: 503, which clients classify as transient, so workers poll
// their backoff loop until a restarted coordinator takes the address
// back over.
func (co *Coordinator) closedLocked(w http.ResponseWriter) bool {
	if co.closed {
		http.Error(w, "coordinator shutting down — retry against its restart", http.StatusServiceUnavailable)
		return true
	}
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (co *Coordinator) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, campaignsReply{TTLMillis: co.ttl.Milliseconds(), Campaigns: co.cfg.Specs})
}

func (co *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, co.Status())
}

func (co *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad lease request: "+err.Error(), http.StatusBadRequest)
		return
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.closedLocked(w) {
		return
	}
	now := co.now()
	co.expireLocked(now)
	if co.allDoneLocked() {
		writeJSON(w, http.StatusOK, leaseReply{Status: "done"})
		return
	}
	if l := co.grantLocked(req.Worker, now); l != nil {
		writeJSON(w, http.StatusOK, leaseReply{Status: "lease", Lease: l})
		return
	}
	// Everything outstanding is leased to someone: ask again after a
	// fraction of the TTL, by which time a dead worker's lease expires.
	writeJSON(w, http.StatusOK, leaseReply{Status: "wait", RetryMS: max(co.ttl.Milliseconds()/4, 10)})
}

func (co *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad heartbeat: "+err.Error(), http.StatusBadRequest)
		return
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.closedLocked(w) {
		return
	}
	now := co.now()
	co.expireLocked(now)
	u, ok := co.leases[req.LeaseID]
	if !ok {
		co.ledgerAppend(ledgerEvent{Ev: evFence, Lease: req.LeaseID})
		http.Error(w, "lease expired or unknown", http.StatusGone)
		return
	}
	u.deadline = now.Add(co.ttl)
	w.WriteHeader(http.StatusOK)
}

func (co *Coordinator) handleJournal(w http.ResponseWriter, r *http.Request) {
	leaseID := r.URL.Query().Get("lease")
	if leaseID == "" {
		http.Error(w, "missing lease parameter", http.StatusBadRequest)
		return
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, "read journal: "+err.Error(), http.StatusBadRequest)
		return
	}

	// Snapshot the unit under the lock, then validate and stage the
	// bytes outside it — CheckJournal walks every frame and must not
	// stall lease traffic.
	co.mu.Lock()
	if co.closedLocked(w) {
		co.mu.Unlock()
		return
	}
	co.expireLocked(co.now())
	u, ok := co.leases[leaseID]
	if !ok {
		co.ledgerAppend(ledgerEvent{Ev: evFence, Lease: leaseID})
		co.mu.Unlock()
		http.Error(w, "lease expired or unknown", http.StatusGone)
		return
	}
	shard, lo, hi, dir, label := u.shard, u.lo, u.hi, u.dir, u.spec.Label
	co.mu.Unlock()

	if err := campaign.CheckJournal(data, lo, hi); err != nil {
		http.Error(w, "journal rejected: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	final := filepath.Join(dir, campaign.ShardFilename(shard))
	tmp := final + ".tmp-" + leaseID
	if err := framelog.WriteFile(tmp, data); err != nil {
		http.Error(w, "stage journal: "+err.Error(), http.StatusInternalServerError)
		return
	}

	// Re-verify the lease before publishing: if it expired during
	// validation the range belongs to someone else now.
	co.mu.Lock()
	if co.closedLocked(w) {
		co.mu.Unlock()
		os.Remove(tmp)
		return
	}
	co.expireLocked(co.now())
	if cur, ok := co.leases[leaseID]; !ok || cur != u {
		co.ledgerAppend(ledgerEvent{Ev: evFence, Lease: leaseID})
		co.mu.Unlock()
		os.Remove(tmp)
		http.Error(w, "lease expired or unknown", http.StatusGone)
		return
	}
	if err := os.Rename(tmp, final); err != nil {
		co.mu.Unlock()
		os.Remove(tmp)
		http.Error(w, "merge journal: "+err.Error(), http.StatusInternalServerError)
		return
	}
	// The merge event may only reach the ledger once the merged file is
	// durable: its bytes were fsynced when staged, its name is durable
	// once the directory is.
	if err := framelog.SyncDir(dir); err != nil {
		co.mu.Unlock()
		http.Error(w, "merge journal: "+err.Error(), http.StatusInternalServerError)
		return
	}
	delete(co.leases, leaseID)
	u.done, u.lease = true, ""
	co.ledgerAppend(ledgerEvent{Ev: evMerge, Lease: leaseID, Label: label, Shard: shard, Lo: lo, Hi: hi})
	finished := co.allDoneLocked()
	co.mu.Unlock()

	co.logf("dist: merged %s shard %d [%d,%d) from lease %s (%d bytes)", label, shard, lo, hi, leaseID, len(data))
	w.WriteHeader(http.StatusOK)
	if finished {
		// Only the request that merged the LAST unit sees finished ==
		// true (done flips are monotonic under mu), so this close runs
		// exactly once.
		close(co.doneCh)
	}
}
