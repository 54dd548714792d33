// Package campaign is the streaming, sharded execution engine behind
// every measurement crawl. It replaces the ad-hoc materialize-then-scan
// plumbing (run all visits, collect a giant result slice, fold it) with
// a pipeline that streams each visit's result into an incrementally
// updated aggregator the moment it becomes available — in input order,
// so aggregation is byte-for-byte deterministic regardless of worker
// count, shard count, or scheduling.
//
// A campaign partitions its target list into contiguous shards. Shards
// run one after another, each with its own worker pool; inside a shard,
// visits run concurrently but their results are re-sequenced through a
// bounded in-flight window before reaching the sink. The window gives
// backpressure (at most Window results are ever buffered, never the
// full target list) and the re-sequencing gives determinism: the sink
// observes results exactly as if the targets had been visited one by
// one, left to right.
//
// Cancellation is first-class: cancel the context and the engine stops
// dispatching, lets in-flight visits finish (visit functions receive
// the context and may abort early), accounts every undone target as
// canceled, and returns context.Cause promptly with no goroutine left
// behind. Per-shard counters (done / errors / canceled) survive in the
// returned Stats, so callers can report exactly which slice of the
// campaign failed or was cut short.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Config parameterizes one campaign run.
type Config struct {
	// Label names the campaign in progress callbacks
	// ("landscape Germany", "cookies accept", ...).
	Label string
	// Workers is the per-shard worker pool size (default GOMAXPROCS).
	Workers int
	// Shards is the number of contiguous target partitions. Zero picks
	// DefaultShards(len(targets)). Sharding never changes results — it
	// bounds the re-sequencing scope and structures progress/error
	// accounting into reportable units.
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
	// Checkpoint, when set, journals every delivered result to durable
	// per-shard files so a killed campaign can continue with Resume
	// instead of starting over. Run starts a FRESH journal (wiping any
	// leftover files in the directory); Resume replays one. See the
	// Checkpoint type and journal.go for the format and crash-safety
	// guarantees.
	Checkpoint *Checkpoint
	// Budget, when set, is a weighted worker budget shared across
	// campaigns: every visit holds one budget slot while it runs, so N
	// campaigns executing concurrently draw from one bounded pool
	// instead of oversubscribing the machine with N × Workers busy
	// goroutines. Replayed (journaled) deliveries never consume a slot.
	// Purely a scheduling knob — results are identical with or without
	// it.
	Budget *Budget
}

// Budget is a weighted visit budget shared by concurrent campaigns.
// Each in-flight visit holds one slot; campaigns block dispatching
// further visits while the pool is exhausted. A nil *Budget is valid
// and grants every request immediately.
type Budget struct {
	slots chan struct{}
}

// NewBudget returns a budget of n concurrent visit slots (n <= 0 means
// GOMAXPROCS).
func NewBudget(n int) *Budget {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Budget{slots: make(chan struct{}, n)}
}

// acquire blocks until a slot is free or ctx is canceled; it reports
// whether a slot was obtained (and must be released).
func (b *Budget) acquire(ctx context.Context) bool {
	if b == nil {
		return true
	}
	select {
	case b.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (b *Budget) release() {
	if b != nil {
		<-b.slots
	}
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
// 45 222-target list lands at 12 shards.
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

// Progress is a point-in-time snapshot of a running campaign.
type Progress struct {
	Label  string
	Shard  int // 1-based index of the shard in flight
	Shards int
	Done   int64 // visits delivered so far, across all shards
	Total  int64
	Errors int64
	// Replayed counts deliveries served from a checkpoint journal
	// (always ≤ Done; zero outside Resume). Done - Replayed is the
	// fresh-visit count.
	Replayed int64
	// Retries counts retried request attempts across all visits so far
	// (see Meter) — zero unless the visit layer runs with resilience
	// enabled.
	Retries int64
	// BreakerTrips counts per-host circuit breakers tripped open.
	BreakerTrips int64
	// BreakerDenials counts requests refused outright by an open
	// breaker.
	BreakerDenials int64
}

// Fresh returns the deliveries that ran a real visit (Done - Replayed).
func (p Progress) Fresh() int64 { return p.Done - p.Replayed }

// Meter accumulates resilience events — retries, breaker trips,
// breaker denials — from a campaign's visit functions. The engine
// creates one per campaign and injects it into every visit's context;
// visits (or the browser layer beneath them) retrieve it with
// MeterFrom and report events. All methods are safe for concurrent
// use and on a nil receiver, so visit code never needs a guard.
type Meter struct {
	retries        atomic.Int64
	breakerTrips   atomic.Int64
	breakerDenials atomic.Int64
}

// VisitRetry counts one retried request attempt.
func (m *Meter) VisitRetry() {
	if m != nil {
		m.retries.Add(1)
	}
}

// BreakerTrip counts one circuit breaker opening.
func (m *Meter) BreakerTrip() {
	if m != nil {
		m.breakerTrips.Add(1)
	}
}

// BreakerDenial counts one request refused by an open breaker.
func (m *Meter) BreakerDenial() {
	if m != nil {
		m.breakerDenials.Add(1)
	}
}

func (m *Meter) counts() (retries, trips, denials int64) {
	if m == nil {
		return 0, 0, 0
	}
	return m.retries.Load(), m.breakerTrips.Load(), m.breakerDenials.Load()
}

type meterKey struct{}

// MeterFrom returns the campaign's Meter from a visit context, or nil
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
// campaign carries its own Affinity in the visit context, so the visit
// layer can keep expensive per-session state (a browser, its parser
// arenas, its cookie-jar map) pinned to one worker instead of
// allocating it on every visit. A worker runs its visits strictly
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

// ShardStats is the per-shard account of one campaign. All counters
// share Progress's int64 width, so accounting never narrows on its
// way to a progress line.
type ShardStats struct {
	Shard   int
	Targets int
	// Done counts delivered results (successes and errors alike),
	// replayed or fresh.
	Done int64
	// Errors counts deliveries whose visit returned an error (replayed
	// errors included — a resumed run's ledger matches the
	// uninterrupted one's).
	Errors int64
	// Canceled counts targets never visited because the campaign was
	// canceled first.
	Canceled int64
	// Replayed counts deliveries served from the checkpoint journal
	// instead of a fresh visit (always ≤ Done; zero outside Resume).
	Replayed int64
	// Retries, BreakerTrips and BreakerDenials account the resilience
	// events this shard's visits reported to the campaign Meter (zero
	// when the visit layer runs without retries/breakers).
	Retries        int64
	BreakerTrips   int64
	BreakerDenials int64
}

// Stats is the whole-campaign account, the sum of its shards.
type Stats struct {
	Targets  int
	Done     int64
	Errors   int64
	Canceled int64
	// Replayed counts deliveries served from the checkpoint journal
	// (see ShardStats.Replayed).
	Replayed int64
	// Retries, BreakerTrips and BreakerDenials sum the per-shard
	// resilience counters (see ShardStats).
	Retries        int64
	BreakerTrips   int64
	BreakerDenials int64
	Shards         []ShardStats
}

// Fresh returns the campaign's fresh-visit count (Done - Replayed).
func (s Stats) Fresh() int64 { return s.Done - s.Replayed }

func (s *Stats) add(sh ShardStats) {
	s.Done += sh.Done
	s.Errors += sh.Errors
	s.Canceled += sh.Canceled
	s.Replayed += sh.Replayed
	s.Retries += sh.Retries
	s.BreakerTrips += sh.BreakerTrips
	s.BreakerDenials += sh.BreakerDenials
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
	return run(ctx, cfg, targets, visit, sink, nil)
}

// run is the engine shared by Run and Resume. A nil replay map means a
// fresh campaign; non-nil (possibly empty) means resume mode, where
// journaled indices are replayed instead of visited.
func run[T, R any](ctx context.Context, cfg Config, targets []T,
	visit func(context.Context, T) (R, error), sink func(Result[R]),
	replay map[int]journalRecord) (Stats, error) {

	var ck *checkpointState
	if cfg.Checkpoint != nil {
		var err error
		ck, err = prepareCheckpoint(cfg, len(targets), replay != nil)
		if err != nil {
			return Stats{}, err
		}
	}
	nShards := cfg.shards(len(targets))
	stats := Stats{Targets: len(targets)}
	total := int64(len(targets))
	// One Meter per campaign: visits report resilience events into it
	// through their context, and per-shard deltas are cut at shard
	// boundaries (shards run strictly one after another).
	meter := &Meter{}
	for shard := 0; shard < nShards; shard++ {
		lo, hi := ShardRange(len(targets), nShards, shard)
		if ctx.Err() != nil {
			// Campaign cut short: account the remaining shards without
			// spinning up their pools. Progress consumers still see each
			// skipped shard so the final snapshot reaches Shards/Shards.
			stats.add(ShardStats{Shard: shard, Targets: hi - lo, Canceled: int64(hi - lo)})
		} else {
			preR, preT, preD := meter.counts()
			sh := runShard(ctx, cfg, targets, visit, sink, shard, nShards, lo, hi, &stats, total, meter, ck, replay)
			postR, postT, postD := meter.counts()
			sh.Retries = postR - preR
			sh.BreakerTrips = postT - preT
			sh.BreakerDenials = postD - preD
			stats.add(sh)
		}
		if cfg.OnProgress != nil {
			cfg.OnProgress(Progress{
				Label: cfg.Label, Shard: shard + 1, Shards: nShards,
				Done: stats.Done, Total: total, Errors: stats.Errors,
				Replayed: stats.Replayed,
				Retries:  stats.Retries, BreakerTrips: stats.BreakerTrips,
				BreakerDenials: stats.BreakerDenials,
			})
		}
	}
	if stats.Canceled > 0 || ctx.Err() != nil {
		if err := context.Cause(ctx); err != nil {
			return stats, err
		}
	}
	if ck != nil {
		if err := ck.firstErr(); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// shardResult pairs a Result with the engine-internal markers:
// canceled targets never reach the sink but must be accounted and
// re-sequenced like everything else; replayed results came from the
// journal (never re-journaled, counted separately); enc carries the
// journal encoding of a fresh result, serialized on the worker so the
// single-threaded delivery loop only writes bytes.
type shardResult[R any] struct {
	res      Result[R]
	canceled bool
	replayed bool
	enc      []byte
	encOK    bool
}

// runShard runs one contiguous target range [lo, hi) through a fresh
// worker pool and delivers its results in order. With a checkpoint,
// indices present in replay are decoded from the journal instead of
// visited, and fresh results are journaled at delivery time — in index
// order, so the journal is always a prefix-consistent log.
func runShard[T, R any](ctx context.Context, cfg Config, targets []T,
	visit func(context.Context, T) (R, error), sink func(Result[R]),
	shard, nShards, lo, hi int, sofar *Stats, total int64,
	meter *Meter, ck *checkpointState, replay map[int]journalRecord) ShardStats {

	var jw *journalWriter
	if ck != nil && !ck.dead.Load() {
		var err error
		if jw, err = openJournal(shardFile(ck.cp.Dir, shard), ck.cp.FlushEvery); err != nil {
			ck.fail(err)
			jw = nil
		}
	}

	window := cfg.window()
	workers := cfg.workers()
	if workers > hi-lo {
		// Never more goroutines than targets: single-visit campaigns
		// (AnalyzeOne) and tiny tail shards get a right-sized pool.
		workers = hi - lo
	}
	idxCh := make(chan int)
	// Workers hand results to the delivery loop in batches, amortizing
	// the per-visit channel synchronization: a worker keeps appending to
	// its private batch while more work is immediately available and
	// flushes when the batch fills OR before it would block on idxCh —
	// so under load batches run full, and when the pipeline drains (or
	// the dispatcher stalls on the token window) every partial batch is
	// flushed rather than held. Batch boundaries are therefore pure
	// scheduling: the re-sequencer below delivers the same results in
	// the same order regardless of how they were grouped in transit.
	batchCap := 1
	if workers > 0 {
		batchCap = window / workers
	}
	if batchCap < 1 {
		batchCap = 1
	}
	if batchCap > 32 {
		batchCap = 32
	}
	resCh := make(chan []shardResult[R], workers)
	// freeCh recycles drained batch slices back to the workers.
	freeCh := make(chan []shardResult[R], workers)
	// tokens caps dispatched-but-undelivered visits at window, which
	// bounds the re-sequencing buffer below.
	tokens := make(chan struct{}, window)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One context wrap per worker goroutine, not per visit: the
			// meter and the worker-affine scratch slot ride to the visit
			// layer as context values.
			vctx := WithAffinity(withMeter(ctx, meter))
			var batch []shardResult[R]
			flush := func() {
				if len(batch) > 0 {
					resCh <- batch
					batch = nil
				}
			}
			for {
				var i int
				var ok bool
				if len(batch) == 0 {
					i, ok = <-idxCh
				} else {
					select {
					case i, ok = <-idxCh:
					default:
						// Nothing immediately dispatchable: flush the
						// partial batch before blocking, so the delivery
						// loop (and through it the token window) can make
						// progress on what this worker already finished.
						flush()
						i, ok = <-idxCh
					}
				}
				if !ok {
					break
				}
				if batch == nil {
					select {
					case batch = <-freeCh:
					default:
						batch = make([]shardResult[R], 0, batchCap)
					}
				}
				r := Result[R]{Index: i, Shard: shard}
				if ctx.Err() != nil {
					// Dispatched before cancellation won the race: report
					// the target as unvisited rather than calling visit.
					batch = append(batch, shardResult[R]{res: r, canceled: true})
					if len(batch) == cap(batch) {
						flush()
					}
					continue
				}
				if rec, ok := replay[i]; ok {
					if v, err := ck.cp.Codec.Decode(rec.value); err == nil {
						if val, ok := v.(R); ok {
							r.Value = val
							if rec.errStr != "" {
								r.Err = errors.New(rec.errStr)
							}
							batch = append(batch, shardResult[R]{res: r, replayed: true})
							if len(batch) == cap(batch) {
								flush()
							}
							continue
						}
					}
					// An undecodable record (codec change, bit rot that
					// slipped past the checksum) is not fatal: fall through
					// and re-visit the target fresh.
				}
				// A real visit holds one slot of the (possibly shared)
				// worker budget; cancellation while waiting accounts the
				// target as canceled, exactly like the dispatch-race path
				// above.
				if !cfg.Budget.acquire(ctx) {
					batch = append(batch, shardResult[R]{res: r, canceled: true})
					if len(batch) == cap(batch) {
						flush()
					}
					continue
				}
				r.Value, r.Err = visit(vctx, targets[i])
				cfg.Budget.release()
				sr := shardResult[R]{res: r}
				if ck != nil && !ck.dead.Load() {
					// Serialize on the worker so the single-threaded
					// delivery loop below only appends bytes. Once
					// journaling has failed, skip the (dropped-anyway)
					// encoding work for the rest of the campaign.
					if enc, err := ck.cp.Codec.Encode(r.Value); err == nil {
						sr.enc, sr.encOK = enc, true
					} else {
						ck.fail(fmt.Errorf("encode index %d: %w", i, err))
					}
				}
				batch = append(batch, sr)
				if len(batch) == cap(batch) {
					flush()
				}
			}
			flush()
		}()
	}
	go func() { // dispatcher
		defer close(idxCh)
		for i := lo; i < hi; i++ {
			select {
			case tokens <- struct{}{}:
			case <-ctx.Done():
				return
			}
			select {
			case idxCh <- i:
			case <-ctx.Done():
				// The token for this index is never consumed; harmless,
				// the channel is garbage-collected with the shard.
				return
			}
		}
	}()
	go func() { wg.Wait(); close(resCh) }()

	sh := ShardStats{Shard: shard, Targets: hi - lo}
	progressEvery := int64(cfg.ProgressEvery)
	if progressEvery <= 0 {
		progressEvery = 1000
	}
	next := lo
	// Re-sequencing ring: the token window caps dispatched-but-
	// undelivered indices at `window`, and delivery below frees a token
	// only when `next` advances — so every in-flight index i satisfies
	// next <= i < next+window, and i%window addresses a unique live
	// slot. A fixed ring therefore replaces the old pending map: no
	// per-result map assignment/deletion, no rehashing, same order.
	ring := make([]shardResult[R], window)
	ringSet := make([]bool, window)
	for batch := range resCh {
		for _, r := range batch {
			slot := r.res.Index % window
			ring[slot] = r
			ringSet[slot] = true
		}
		// Recycle the drained batch slice (clearing it first so pooled
		// slices don't pin delivered result values).
		clear(batch)
		select {
		case freeCh <- batch[:0]:
		default:
		}
		for {
			slot := next % window
			if !ringSet[slot] {
				break
			}
			q := ring[slot]
			ring[slot] = shardResult[R]{}
			ringSet[slot] = false
			<-tokens
			next++
			if q.canceled {
				sh.Canceled++
				continue
			}
			sh.Done++
			if q.replayed {
				sh.Replayed++
			}
			if q.res.Err != nil {
				sh.Errors++
			}
			if sink != nil {
				sink(q.res)
			}
			if jw != nil && q.encOK {
				// Journal AFTER the sink observed the result: a record on
				// disk always describes a delivery that really happened.
				if err := jw.append(q.res.Index, errString(q.res.Err), q.enc); err != nil {
					ck.fail(err)
					jw.close()
					jw = nil
				}
			}
			if cfg.OnProgress != nil && (sh.Done+sh.Canceled)%progressEvery == 0 {
				retries, trips, denials := meter.counts()
				cfg.OnProgress(Progress{
					Label: cfg.Label, Shard: shard + 1, Shards: nShards,
					Done:     sofar.Done + sh.Done,
					Total:    total,
					Errors:   sofar.Errors + sh.Errors,
					Replayed: sofar.Replayed + sh.Replayed,
					// The meter counts campaign-globally and shards run
					// sequentially, so its totals are exact here.
					Retries: retries, BreakerTrips: trips, BreakerDenials: denials,
				})
			}
		}
	}
	if jw != nil {
		// Shard complete (or canceled): make its journal durable.
		if err := jw.close(); err != nil {
			ck.fail(err)
		}
	}
	// Dispatch stopped early on cancellation: the never-dispatched tail.
	sh.Canceled += int64(hi-lo) - sh.Done - sh.Canceled
	return sh
}

// errString renders a visit error for the journal ("" for success).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
