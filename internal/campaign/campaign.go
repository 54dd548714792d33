// Package campaign is the streaming, sharded execution engine behind
// every measurement crawl. Each visit's result streams into the sink
// as soon as it is ready, in input order, so aggregation is
// byte-for-byte deterministic regardless of worker count, shard count
// or scheduling.
//
// A campaign partitions its target list into contiguous shards. A run
// starts one worker pool and one delivery loop for all of its shards:
// workers claim target indices in order, visit them concurrently, and
// write each result straight into a ring of window slots, where slot
// i%window belongs to index i alone until delivery has read and
// cleared it (see shardResult). The ring is the only buffer between a
// visit and the sink. The window gives backpressure and the ring's
// re-sequencing gives determinism: the sink observes results exactly
// as if the targets had been visited one by one, left to right. Shards
// are boundaries of delivery only — a journal file, a ShardStats
// account and a progress snapshot each — so workers run ahead into the
// next shard while the delivery loop finishes the current one.
//
// Cancellation is first-class: cancel the context and the workers stop
// claiming targets and let in-flight visits finish; delivery stops at
// the first target not visited, accounts it and every later one as
// canceled, and Run returns context.Cause promptly with no goroutine
// left behind.
//
// Run, Resume and RunRange are one engine over a span of shards: Run
// and Resume run every shard, RunRange the one shard a fleet worker
// leased (see range.go). All three open the checkpoint in one place,
// run through one pool and account shards with one counter set,
// Counts, which ShardStats, Stats and Progress embed. A shard run alone
// gets the same account and journal bytes as inside a full Run.
//
// # Checkpoints
//
// With Config.Checkpoint set, every delivered result is appended to a
// per-shard journal after the sink observed it, flushed every
// FlushEvery records and fsynced at shard close. Resume replays the
// journals into the sink in order and visits only the targets they
// lack; the delivered sequence is byte-identical to an uninterrupted
// Run's for any kill point and any Workers or Shards on either run. A
// manifest pins the campaign's identity (label, target count,
// TargetsHash), so a journal never replays onto another campaign. A
// kill at any byte leaves a prefix-consistent log (internal/framelog),
// and a torn or undecodable record's target is simply visited again.
// Journal I/O never corrupts results: the campaign finishes, Run or
// Resume reports the error, and the journal holds exactly the records
// delivered before the failure. journal.go holds the record layout.
package campaign

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Config parameterizes one campaign run.
type Config struct {
	// Label names the campaign in progress callbacks
	// ("landscape Germany", "cookies accept", ...).
	Label string
	// Workers is the size of the run's one worker pool, which serves
	// every shard of the run (default GOMAXPROCS).
	Workers int
	// Shards is the number of contiguous target partitions. Zero picks
	// DefaultShards(len(targets)). Sharding never changes results — a
	// shard is a journal file and a unit of progress and error
	// accounting, not a pool lifetime.
	Shards int
	// Window bounds in-flight results awaiting in-order delivery
	// (default 4×Workers, minimum 16). Larger windows absorb more
	// per-visit latency skew at the cost of buffered results.
	Window int
	// OnProgress, when set, receives progress snapshots from the
	// delivery goroutine: every ProgressEvery deliveries and at every
	// shard boundary. Callbacks never influence results.
	OnProgress func(Progress)
	// ProgressEvery is the delivery interval between progress callbacks
	// (default 1000).
	ProgressEvery int
	// Checkpoint, when set, journals every delivered result so a killed
	// campaign can continue with Resume (see the package doc). Run and
	// RunRange start FRESH journals, wiping leftover files in the
	// directory; Resume replays them.
	Checkpoint *Checkpoint
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) window() int {
	if c.Window > 0 {
		return c.Window
	}
	w := 4 * c.workers()
	if w < 16 {
		w = 16
	}
	return w
}

func (c Config) shards(n int) int {
	s := c.Shards
	if s <= 0 {
		s = DefaultShards(n)
	}
	if n > 0 && s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	return s
}

// DefaultShards derives a shard count from the target-list size: one
// shard per 4096 targets, at least 1, at most 64. The paper-scale
// 45 222-target list lands at 12 shards. A shard costs a journal file
// and an account, never a worker pool: one pool serves the whole run.
func DefaultShards(n int) int {
	s := (n + 4095) / 4096
	if s < 1 {
		return 1
	}
	if s > 64 {
		return 64
	}
	return s
}

// Counts is the engine's one counter set. A shard's account
// (ShardStats), a campaign's (Stats) and every progress snapshot
// (Progress) embed it, so the counters are declared, documented and
// summed once.
type Counts struct {
	// Done counts delivered results (successes and errors alike),
	// replayed or fresh.
	Done int64
	// Errors counts deliveries whose visit returned an error (replayed
	// errors included — a resumed run's ledger matches the
	// uninterrupted one's).
	Errors int64
	// Canceled counts targets never delivered because the campaign was
	// canceled first: delivery stops at the first target left unvisited,
	// so a result visited past it is discarded and counted here too.
	Canceled int64
	// Replayed counts deliveries served from the checkpoint journal
	// instead of a fresh visit (always ≤ Done; zero outside Resume).
	Replayed int64
	// Retries, BreakerTrips and BreakerDenials count the resilience
	// events visits reported to their worker's Meter: retried request
	// attempts, circuit breakers tripped open, and requests refused by
	// an open breaker. All three stay zero when the visit layer runs
	// without retries or breakers.
	Retries        int64
	BreakerTrips   int64
	BreakerDenials int64
}

// Fresh returns the deliveries that ran a real visit (Done - Replayed).
func (c Counts) Fresh() int64 { return c.Done - c.Replayed }

func (c *Counts) add(o Counts) {
	c.Done += o.Done
	c.Errors += o.Errors
	c.Canceled += o.Canceled
	c.Replayed += o.Replayed
	c.Retries += o.Retries
	c.BreakerTrips += o.BreakerTrips
	c.BreakerDenials += o.BreakerDenials
}

// Progress is a point-in-time snapshot of a running campaign. Its
// Counts cover every shard of the run so far.
type Progress struct {
	Label  string
	Shard  int // 1-based index of the shard in flight
	Shards int
	Total  int64 // targets the run covers (see Stats.Targets)
	Counts
}

// progress hands OnProgress, when set, a snapshot taken in shard.
func (c Config) progress(shard, shards int, total int64, counts Counts) {
	if c.OnProgress != nil {
		c.OnProgress(Progress{Label: c.Label, Shard: shard + 1, Shards: shards, Total: total, Counts: counts})
	}
}

// Meter counts resilience events — retries, breaker trips, breaker
// denials — from a campaign worker's visits. The engine gives every
// worker its own Meter for the whole run and injects it into the
// worker's visit context; visits (or the browser layer beneath them)
// retrieve it with MeterFrom and report events. After each visit the
// worker moves the count onto the visit's result, so every event lands
// in the account of the shard the visit belongs to, however far the
// workers run ahead of delivery. A worker runs its visits strictly one
// after another, so a Meter needs no locking. All methods are safe on
// a nil receiver, so visit code never needs a guard.
type Meter struct {
	retries, breakerTrips, breakerDenials int64
}

// VisitRetry counts one retried request attempt.
func (m *Meter) VisitRetry() {
	if m != nil {
		m.retries++
	}
}

// BreakerTrip counts one circuit breaker opening.
func (m *Meter) BreakerTrip() {
	if m != nil {
		m.breakerTrips++
	}
}

// BreakerDenial counts one request refused by an open breaker.
func (m *Meter) BreakerDenial() {
	if m != nil {
		m.breakerDenials++
	}
}

// addTo adds the counted events to c.
func (m *Meter) addTo(c *Counts) {
	c.Retries += m.retries
	c.BreakerTrips += m.breakerTrips
	c.BreakerDenials += m.breakerDenials
}

type meterKey struct{}

// MeterFrom returns the worker's Meter from a visit context, or nil
// when the visit is not running under a campaign engine (direct
// Visit calls, tests). The nil Meter is fully usable.
func MeterFrom(ctx context.Context) *Meter {
	m, _ := ctx.Value(meterKey{}).(*Meter)
	return m
}

func withMeter(ctx context.Context, m *Meter) context.Context {
	return context.WithValue(ctx, meterKey{}, m)
}

// Affinity is a worker-affine scratch slot. Every worker goroutine of a
// campaign run carries its own Affinity in the visit context, one slot
// for the worker's whole run across every shard, so the visit layer can
// keep expensive per-session state (a browser, its parser arenas, its
// cookie-jar map) pinned to one worker instead of allocating it on
// every visit: one session per worker per run. A worker runs its visits strictly
// sequentially, so the slot needs no locking; it must never be shared
// outside the visit that read it from its context.
//
// The slot holds state only between visits of one worker: take the
// value with Take at acquire time (leaving the slot empty guards
// against nested acquires aliasing one session) and Put it back at
// release time. Visits running outside a campaign see a nil
// *Affinity, on which both methods are safe no-ops — callers then
// allocate fresh state per visit. A caller outside a campaign that
// wants one reused session opens a slot with WithAffinity, exactly as
// a worker does.
type Affinity struct {
	val any
}

// Take removes and returns the slot's value (nil when empty or when a
// is nil).
func (a *Affinity) Take() any {
	if a == nil {
		return nil
	}
	v := a.val
	a.val = nil
	return v
}

// Put stores v in the slot (no-op on a nil receiver).
func (a *Affinity) Put(v any) {
	if a != nil {
		a.val = v
	}
}

type affinityKey struct{}

// AffinityFrom returns the worker's Affinity slot from a visit
// context, or nil outside a campaign worker.
func AffinityFrom(ctx context.Context) *Affinity {
	a, _ := ctx.Value(affinityKey{}).(*Affinity)
	return a
}

// WithAffinity returns ctx carrying a new, empty Affinity slot. The
// slot belongs to the one goroutine that runs visits under the
// returned context, strictly one after another.
func WithAffinity(ctx context.Context) context.Context {
	return context.WithValue(ctx, affinityKey{}, &Affinity{})
}

// Result carries one visit's outcome to the sink.
type Result[R any] struct {
	// Index is the global position in the target list.
	Index int
	// Shard is the 0-based shard the target belongs to.
	Shard int
	// Value is visit's return value (also populated when Err != nil:
	// visits may return partial results alongside their error).
	Value R
	// Err is the visit error, counted in the shard's error tally.
	Err error
}

// ShardStats is the per-shard account of one campaign.
type ShardStats struct {
	Shard   int
	Targets int
	Counts
}

// Stats is the account of one run, the sum of its shards. Targets is
// the number of targets the run covers: the whole list for Run and
// Resume, the shard's range for RunRange.
type Stats struct {
	Targets int
	Counts
	Shards []ShardStats
}

func (s *Stats) addShard(sh ShardStats) {
	s.add(sh.Counts)
	s.Shards = append(s.Shards, sh)
}

// Run executes visit over targets and streams every Result — in
// strictly increasing Index order, from the calling goroutine — into
// sink. It returns when every target is accounted for: visited, failed,
// or canceled. The error is non-nil exactly when ctx was canceled
// before the campaign finished, or — for checkpointed campaigns — when
// the journal could not be set up or written (setup failures abort
// before any visit; write failures let the campaign finish correctly
// and are reported at the end, since only durability was lost). Stats
// is valid either way.
//
// sink may be nil when only Stats are wanted. It needs no locking: the
// engine never calls it concurrently.
func Run[T, R any](ctx context.Context, cfg Config, targets []T,
	visit func(context.Context, T) (R, error), sink func(Result[R])) (Stats, error) {
	n := cfg.shards(len(targets))
	return run(ctx, cfg, targets, visit, sink, 0, n, n, false)
}

// run is the one engine behind Run, Resume and RunRange. It runs shards
// [first, last) of the nShards-way partition of targets through one
// worker pool and one delivery loop, and accounts only that span. With
// a checkpoint, indices present in replay are decoded from the journal
// instead of visited, and fresh results are journaled at delivery time
// — in index order, so every journal is a prefix-consistent log;
// resume replays the journals, otherwise the run starts fresh ones.
func run[T, R any](ctx context.Context, cfg Config, targets []T,
	visit func(context.Context, T) (R, error), sink func(Result[R]),
	first, last, nShards int, resume bool) (Stats, error) {

	ck, replay, err := openCheckpoint(cfg, len(targets), resume)
	if err != nil {
		return Stats{}, err
	}
	lo, _ := ShardRange(len(targets), nShards, first)
	_, hi := ShardRange(len(targets), nShards, last-1)
	stats := Stats{Targets: hi - lo}

	window := cfg.window()
	// Never more goroutines than targets: single-visit campaigns
	// (AnalyzeOne) and tiny ranges get a right-sized pool.
	workers := min(cfg.workers(), hi-lo)
	// tokens caps claimed-but-undelivered indices at window. A worker
	// takes a token before it claims the next index from claimed, so
	// claims stay in index order and every in-flight index i satisfies
	// next <= i < next+window: ring[i%window] is i's alone (shardResult
	// says when a slot changes hands).
	tokens := make(chan struct{}, window)
	var claimed atomic.Int64
	claimed.Store(int64(lo))
	ring := make([]shardResult[R], window)
	// wake tells the delivery loop that a slot became ready. It holds one
	// signal, so wake-ups that arrive while delivery is busy coalesce.
	wake := make(chan struct{}, 1)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One Meter and one Affinity per worker for the whole run, in
			// one context wrap each: the visit layer keeps its session in
			// the slot across every shard the worker visits.
			meter := new(Meter)
			vctx := WithAffinity(withMeter(ctx, meter))
			for {
				// Room in the window takes the cheap one-case send; only a
				// full window pays for the select that also watches ctx.
				select {
				case tokens <- struct{}{}:
				default:
					select {
					case tokens <- struct{}{}:
					case <-ctx.Done():
						return
					}
				}
				i := int(claimed.Add(1)) - 1
				if i >= hi || ctx.Err() != nil {
					// No index left, or the run is canceled: hand the token
					// back and stop. A canceled index is never delivered:
					// the delivery loop stops at it and accounts it, and
					// every index after it, as canceled.
					<-tokens
					return
				}
				q := &ring[i%window]
				q.res.Index = i
				// An undecodable record (codec change, bit rot that slipped
				// past the checksum) is not fatal: the target is visited
				// fresh, and the visit overwrites the slot.
				if replay != nil && replay[i].ok && ck.cp.Codec.DecodeInto(replay[i].value, &q.res.Value) == nil {
					q.replayed = true
					if replay[i].errStr != "" {
						q.res.Err = errors.New(replay[i].errStr)
					}
				} else {
					q.res.Value, q.res.Err = visit(vctx, targets[i])
					// The visit's resilience events ride on its result into
					// the account of its own shard.
					q.events, *meter = *meter, Meter{}
				}
				q.ready.Store(true)
				select {
				case wake <- struct{}{}:
				default:
				}
			}
		}()
	}
	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()

	progressEvery := int64(cfg.ProgressEvery)
	if progressEvery <= 0 {
		progressEvery = 1000
	}
	// The shard in flight: its index, end, account and journal. The
	// delivery loop enters a shard when its first index is delivered and
	// leaves it when its last one is, so the workers may already be
	// visiting the next shards.
	shard := first
	_, shardHi := ShardRange(len(targets), nShards, shard)
	sh := ShardStats{Shard: shard, Targets: shardHi - lo}
	var jw *journalWriter
	enter := func() {
		if ck != nil && ck.err == nil {
			var err error
			if jw, err = openJournal(shardFile(ck.cp.Dir, shard), ck.cp.FlushEvery); err != nil {
				ck.fail(err)
			}
		}
	}
	// leave closes the shard in flight: its journal made durable, its
	// undelivered targets accounted as canceled, its account added, and
	// a boundary snapshot sent.
	leave := func() {
		if jw != nil {
			if err := jw.close(); err != nil {
				ck.fail(err)
			}
			jw = nil
		}
		sh.Canceled = int64(sh.Targets) - sh.Done
		stats.addShard(sh)
		cfg.progress(shard, nShards, int64(stats.Targets), stats.Counts)
		if shard++; shard < last {
			slo, shi := ShardRange(len(targets), nShards, shard)
			shardHi, sh = shi, ShardStats{Shard: shard, Targets: shi - slo}
		}
	}
	next := lo
	// advance leaves every shard whose targets have all been delivered.
	// A shard without targets is entered and left where delivery reaches
	// it, unless the run is canceled.
	advance := func() {
		for shard < last && next == shardHi {
			if sh.Targets == 0 && ctx.Err() == nil {
				enter()
			}
			leave()
		}
	}
	advance()
	// Deliver every ready slot from next onwards, in index order, then
	// wait for a wake-up. Once every worker has returned, one last pass
	// delivers what they left behind.
	for finished := false; !finished; {
		select {
		case <-wake:
		case <-workersDone:
			finished = true
		}
		for {
			// q points into the ring, so the journal encodes the value in
			// place.
			q := &ring[next%window]
			if !q.ready.Load() {
				break
			}
			if sh.Done == 0 {
				enter()
			}
			sh.Done++
			if q.replayed {
				sh.Replayed++
			}
			if q.res.Err != nil {
				sh.Errors++
			}
			q.events.addTo(&sh.Counts)
			q.res.Shard = shard
			if sink != nil {
				sink(q.res)
			}
			if jw != nil && !q.replayed {
				// Journal AFTER the sink observed the result: a record on
				// disk always describes a delivery that really happened.
				// An encode or write failure ends journaling at this
				// record, so the journal holds exactly the records
				// delivered before it.
				if err := jw.append(q.res.Index, errString(q.res.Err), ck.cp.Codec, &q.res.Value); err != nil {
					ck.fail(err)
					jw.close()
					jw = nil
				}
			}
			// Only a cleared slot frees its token: the token lets a worker
			// claim next+window, whose slot this is.
			q.res, q.events, q.replayed = Result[R]{}, Meter{}, false
			q.ready.Store(false)
			<-tokens
			next++
			if cfg.OnProgress != nil && sh.Done%progressEvery == 0 {
				c := stats.Counts
				c.add(sh.Counts)
				cfg.progress(shard, nShards, int64(stats.Targets), c)
			}
			advance()
		}
	}
	// Every worker has returned. Delivery stopped short only on
	// cancellation: the shard in flight and every shard not yet entered
	// account their undelivered targets as canceled, and a shard never
	// entered opens no journal.
	for shard < last {
		leave()
	}
	if stats.Canceled > 0 || ctx.Err() != nil {
		if err := context.Cause(ctx); err != nil {
			return stats, err
		}
	}
	if ck != nil && ck.err != nil {
		return stats, ck.err
	}
	return stats, nil
}

// shardResult is one slot of the delivery ring: a Result with the
// engine-internal markers — the resilience events its visit reported,
// and whether it came from the journal (never re-journaled, counted
// separately). Slot i%window belongs to index i from the moment a
// worker claims i: the worker decodes a replayed value or runs the
// visit straight into the slot and then sets ready; the delivery loop
// reads the slot only once ready is set, and clears it before it hands
// back the token that lets a worker claim i+window. So no value is
// copied or boxed between the visit, the sink and the journal. ready
// lives in the slot, beside the data its worker writes anyway, rather
// than in a separate []bool whose neighbouring flags every worker would
// write in one cache line.
type shardResult[R any] struct {
	res      Result[R]
	events   Meter
	replayed bool
	ready    atomic.Bool
}

// errString renders a visit error for the journal ("" for success).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
