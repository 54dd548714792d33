package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records the spans of one traced repetition. Every span
// brackets a call the benchmark makes into a layer from outside;
// nothing inside the program is instrumented. Spans stay in memory and
// are written as Chrome trace-event JSON when the repetition ends.
//
// Hot-path spans (visits, sink deliveries, HTTP requests) run into the
// millions on a full-scale crawl, so each span name keeps at most
// keepPerName spans for the trace file, while every duration lands in
// the name's histogram. Per-layer metrics are read from the
// histograms, never from the kept sample.
//
// Layer spans — the spans of calls into one measured layer, opened
// with beginLayer or enter/leave — also feed attr, the union over time
// of the working layers. A timed phase's unattributed share is the part
// of its wall time attr does not cover. Spans that only wrap a phase
// (a whole fleet, a whole trend round) are not layer spans.
//
// A nil *tracer is the untraced run: every method is a no-op.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
	attr   cover

	mu    sync.Mutex
	spans []traceSpan
	kinds map[string]*spanKind
}

// keepPerName bounds the spans kept for the trace file per span name.
const keepPerName = 4000

type traceSpan struct {
	Name       string
	ID, Parent int64
	Lane       int
	Start, End time.Duration // since origin
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), kinds: map[string]*spanKind{}}
}

// spanKind is one span name: its duration histogram and its count of
// spans kept for the trace file. Hot paths look a kind up once and
// record through it without taking the tracer's lock per span.
type spanKind struct {
	t    *tracer
	name string
	hist hist
	kept atomic.Int64
}

// kind returns the named span kind (nil on a nil tracer).
func (t *tracer) kind(name string) *spanKind {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := t.kinds[name]
	if k == nil {
		k = &spanKind{t: t, name: name}
		t.kinds[name] = k
	}
	return k
}

// histogram returns the kind's duration histogram (nil on a nil kind).
func (k *spanKind) histogram() *hist {
	if k == nil {
		return nil
	}
	return &k.hist
}

// record adds one finished span of this kind.
func (k *spanKind) record(parent int64, lane int, start, end time.Time) {
	if k != nil {
		k.add(k.t.nextID.Add(1), parent, lane, start, end)
	}
}

func (k *spanKind) add(id, parent int64, lane int, start, end time.Time) {
	k.hist.add(int64(end.Sub(start)))
	if k.kept.Add(1) > keepPerName {
		return
	}
	t := k.t
	t.mu.Lock()
	t.spans = append(t.spans, traceSpan{Name: k.name, ID: id, Parent: parent, Lane: lane,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	t.mu.Unlock()
}

// span is an open span; end closes it.
type span struct {
	k      *spanKind
	id     int64
	parent int64
	lane   int
	start  time.Time
	layer  bool
}

// begin opens a span on a lane (one row of the trace: a worker or a
// goroutine) under parent (0 marks a top-level span).
func (t *tracer) begin(name string, lane int, parent int64) span {
	if t == nil {
		return span{}
	}
	return span{k: t.kind(name), id: t.nextID.Add(1), parent: parent, lane: lane, start: time.Now()}
}

// beginLayer opens a layer span.
func (t *tracer) beginLayer(name string, lane int, parent int64) span {
	s := t.begin(name, lane, parent)
	if t != nil {
		s.layer = true
		t.attr.enter(s.start)
	}
	return s
}

// end closes the span and returns its duration.
func (s span) end() time.Duration {
	if s.k == nil {
		return 0
	}
	now := time.Now()
	if s.layer {
		s.k.t.attr.leave(now)
	}
	s.k.add(s.id, s.parent, s.lane, s.start, now)
	return now.Sub(s.start)
}

// enter and leave bracket a layer span recorded through a spanKind.
func (t *tracer) enter(now time.Time) {
	if t != nil {
		t.attr.enter(now)
	}
}

func (t *tracer) leave(now time.Time) {
	if t != nil {
		t.attr.leave(now)
	}
}

// attributed returns how long layer spans have covered up to now; the
// difference of two readings is the attributed time between them.
func (t *tracer) attributed(now time.Time) time.Duration {
	if t == nil {
		return 0
	}
	return t.attr.covered(now)
}

// hist returns a span kind's histogram, or nil when the name was never
// recorded.
func (t *tracer) hist(name string) *hist {
	t.mu.Lock()
	defer t.mu.Unlock()
	if k := t.kinds[name]; k != nil {
		return &k.hist
	}
	return nil
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the kept spans as a Chrome trace-event array
// (chrome://tracing or Perfetto load it). pid separates workloads when
// several traces are merged into one file.
func (t *tracer) writeChrome(path string, pid int, process string) error {
	t.mu.Lock()
	spans := append([]traceSpan(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	events := []chromeEvent{{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": process}}}
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", PID: pid, TID: s.Lane,
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(events); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}

// mergeChrome concatenates per-workload trace files into one array.
func mergeChrome(out string, parts []string) error {
	var all []json.RawMessage
	for _, p := range parts {
		data, err := os.ReadFile(p)
		if err != nil {
			return fmt.Errorf("trace part: %w", err)
		}
		var evs []json.RawMessage
		if err := json.Unmarshal(data, &evs); err != nil {
			return fmt.Errorf("trace part %s: %w", p, err)
		}
		all = append(all, evs...)
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// cover accumulates the time during which at least one of a set of
// concurrent spans is open: the union of every visit and sink span of
// a campaign, which the campaign's self time is measured against, or
// of every layer span.
type cover struct {
	mu     sync.Mutex
	active int
	since  time.Time
	total  time.Duration
}

func (c *cover) enter(now time.Time) {
	c.mu.Lock()
	if c.active == 0 {
		c.since = now
	}
	c.active++
	c.mu.Unlock()
}

func (c *cover) leave(now time.Time) {
	c.mu.Lock()
	c.active--
	if c.active == 0 {
		c.total += now.Sub(c.since)
	}
	c.mu.Unlock()
}

// covered returns the covered time up to now, counting a span still
// open.
func (c *cover) covered(now time.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.active > 0 {
		return c.total + now.Sub(c.since)
	}
	return c.total
}

// farmMeter times round trips into the synthetic web through a
// Config.WrapTransport wrapper while active. The wrapper forwards both
// RoundTrip and the browser's RoundTripBody fast path, so a wrapped
// crawl takes the same code path, and allocates the same, as an
// unwrapped one.
type farmMeter struct {
	active atomic.Bool
	hist   hist
	busy   atomic.Int64
	calls  atomic.Int64
}

type bodyRoundTripper interface {
	RoundTripBody(req *http.Request) (status int, header http.Header, body string, fp uint64, err error)
}

func (m *farmMeter) wrap(next http.RoundTripper) http.RoundTripper {
	return m.wrapWith(next, nil)
}

// wrapWith is wrap with a callback that also receives each round
// trip's duration.
func (m *farmMeter) wrapWith(next http.RoundTripper, onTrip func(time.Duration)) *meteredTransport {
	bt, ok := next.(bodyRoundTripper)
	if !ok {
		// The farm's in-process transport always has the fast path; a
		// wrapper without it would silently measure a slower crawl.
		panic("cwbench: the farm transport has no RoundTripBody fast path")
	}
	return &meteredTransport{m: m, next: next, body: bt, onTrip: onTrip}
}

type meteredTransport struct {
	m      *farmMeter
	next   http.RoundTripper
	body   bodyRoundTripper
	onTrip func(time.Duration)
}

func (t *meteredTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	t.done(time.Since(start))
	return resp, err
}

func (t *meteredTransport) RoundTripBody(req *http.Request) (int, http.Header, string, uint64, error) {
	start := time.Now()
	status, header, body, fp, err := t.body.RoundTripBody(req)
	t.done(time.Since(start))
	return status, header, body, fp, err
}

func (t *meteredTransport) done(d time.Duration) {
	if t.m.active.Load() {
		t.m.hist.add(int64(d))
		t.m.busy.Add(int64(d))
		t.m.calls.Add(1)
	}
	if t.onTrip != nil {
		t.onTrip(d)
	}
}
