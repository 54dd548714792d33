package cookiewalk

import (
	"context"
	"fmt"
	"slices"
	"strings"
)

// The experiment DAG. Every artefact of the study — the landscape
// campaign, derived domain lists, follow-up campaign results, and each
// experiment's rendered report section — is a node in a registry
// declaring the artefacts it consumes. Report, ReportContext and
// BuildDataset resolve the nodes they need; each node runs at most
// once per Study (its result is memoized in the study-wide store), and
// nodes run one at a time, each after its dependencies, in declared
// order. Each campaign already uses every core through its own worker
// pool, so running experiments side by side would only reorder the
// same work.
//
// Determinism invariant: every node's artefact is a pure function of
// its declared inputs and the study seed. TestGoldenMatrix pins the
// assembled report against the golden snapshot.

// Artefact node ids (experiment nodes use their Experiment id).
const (
	artLandscape = "landscape"
	artGerman    = "german"
	artWalls     = "wallDomains"
	artFig4      = "fig4cookies"
	// artSummary is the per-round aggregate bundle the continuous-
	// measurement service stores and serves (Study.RoundSummary).
	artSummary = "roundSummary"
)

// node is one vertex of the experiment DAG.
type node struct {
	id string
	// deps lists every artefact the run func consumes, resolved before
	// it runs. Dependencies and JournalDirs are built from these
	// entries, so a run func must never touch an undeclared artefact:
	// resolving one panics (see resolve).
	deps []string
	run  func(ctx context.Context, s *Study) (any, error)
}

// nodeState is one node's slot in the study-wide artefact store. The
// first resolver becomes the runner; everyone else waits on done.
// value and err are written once, before done closes, and latched for
// the lifetime of the Study.
type nodeState struct {
	done  chan struct{}
	value any
	err   error
}

// runningKey is the context key under which runNode hands a node's
// run func the node itself.
type runningKey struct{}

// resolve returns the memoized artefact of a registry node, running it
// (and, transitively, its dependencies) on first demand. Concurrent
// resolvers of the same node share one execution: callers may share
// one Study across goroutines. A waiter whose ctx is canceled returns
// early; the runner keeps going under ITS ctx and latches whatever it
// produces.
//
// Called from a run func for an artefact its node does not declare,
// resolve panics: the accessors discard its error, so an error would
// quietly become an empty artefact.
func (s *Study) resolve(ctx context.Context, id string) (any, error) {
	if cur, ok := ctx.Value(runningKey{}).(*node); ok && !slices.Contains(cur.deps, id) {
		panic(fmt.Sprintf("cookiewalk: node %q resolves %q, which is not in its deps", cur.id, id))
	}
	n, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("cookiewalk: unknown artefact %q", id)
	}
	s.mu.Lock()
	st, running := s.nodes[id]
	if !running {
		st = &nodeState{done: make(chan struct{})}
		s.nodes[id] = st
	}
	s.mu.Unlock()
	if running {
		// A completed artefact always wins over a canceled waiter: the
		// two-channel select below picks RANDOMLY when both are ready,
		// and honoring cancellation for an already-latched node would
		// hand a nil value to accessors that discard the error (a node
		// body re-reading a dependency runNode already proved done
		// must never see anything but the memoized result).
		select {
		case <-st.done:
			return st.value, st.err
		default:
		}
		select {
		case <-st.done:
			return st.value, st.err
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	st.value, st.err = s.runNode(ctx, n)
	close(st.done)
	return st.value, st.err
}

// runNode resolves a node's dependencies in declared order, under the
// caller's ctx, then runs its body with the node in the body's ctx
// (see resolve). Any dependency error — cancellation, a campaign
// failure, or the landscape's latched crawl error — fails the
// dependent at once: a failed landscape may be PARTIAL (cancellation
// aborts remaining vantage points, a journal setup failure aborts
// mid-crawl), and computing campaigns over partial target sets would
// waste work and write journals keyed to wrong targets, only for
// assembly to discard everything anyway. Assembly still reports the
// landscape error once, under its own stable wrapping.
func (s *Study) runNode(ctx context.Context, n *node) (any, error) {
	for _, dep := range n.deps {
		if _, err := s.resolve(ctx, dep); err != nil {
			return nil, err
		}
	}
	return n.run(context.WithValue(ctx, runningKey{}, n), s)
}

// peek returns a completed node's state without triggering a run (nil
// when the node never ran or is still running).
func (s *Study) peek(id string) *nodeState {
	s.mu.Lock()
	st := s.nodes[id]
	s.mu.Unlock()
	if st == nil {
		return nil
	}
	select {
	case <-st.done:
		return st
	default:
		return nil
	}
}

// registry is the experiment DAG, built once at init (assigned there
// rather than in the var initializer: node run funcs call resolve,
// which reads registry — a false initialization cycle to the
// compiler).
var registry map[string]*node

func init() { registry = buildRegistry() }

// expandExperiments validates a requested experiment list, expands
// ExpAll, dedupes, and returns the set in fixed Experiments() order —
// the order report sections are assembled in, independent of request
// order and scheduling.
func expandExperiments(exps []Experiment) ([]Experiment, error) {
	if len(exps) == 0 {
		return nil, fmt.Errorf("cookiewalk: no experiments requested")
	}
	known := make(map[Experiment]bool, len(Experiments()))
	for _, e := range Experiments() {
		known[e] = true
	}
	want := map[Experiment]bool{}
	for _, e := range exps {
		if e == ExpAll {
			for _, all := range Experiments() {
				want[all] = true
			}
			continue
		}
		if !known[e] {
			return nil, fmt.Errorf("cookiewalk: unknown experiment %q", e)
		}
		want[e] = true
	}
	var set []Experiment
	for _, e := range Experiments() {
		if want[e] {
			set = append(set, e)
		}
	}
	return set, nil
}

// ParseExperiments parses a comma-separated experiment list
// ("table1,bypass,smp"; "all" expands to every experiment) and
// validates each id against the registry. Whitespace around ids is
// ignored.
func ParseExperiments(list string) ([]Experiment, error) {
	var exps []Experiment
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			return nil, fmt.Errorf("cookiewalk: empty experiment id in %q", list)
		}
		exps = append(exps, Experiment(f))
	}
	if _, err := expandExperiments(exps); err != nil {
		return nil, err
	}
	return exps, nil
}

// Dependencies returns an experiment's artefact dependencies,
// transitively, in topological order (every artefact listed after the
// artefacts it consumes). An experiment with no dependencies returns
// nil.
func Dependencies(exp Experiment) []string {
	n, ok := registry[string(exp)]
	if !ok {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	var walk func(deps []string)
	walk = func(deps []string) {
		for _, dep := range deps {
			if seen[dep] {
				continue
			}
			seen[dep] = true
			if d, ok := registry[dep]; ok {
				walk(d.deps)
			}
			out = append(out, dep)
		}
	}
	walk(n.deps)
	return out
}

// ReportContext runs one or more experiments — ExpAll expands to every
// experiment — one at a time in fixed Experiments() order, and
// assembles their report sections in that order.
//
// Canceling ctx aborts the campaign in flight promptly. Artefacts
// are memoized per Study, including failures: after a canceled or
// failed run, later reports on the same Study return the latched
// error — build a fresh Study (with Config.Resume to continue
// checkpointed campaigns) to retry.
//
// For checkpointed studies a campaign journal failure fails the
// report: the numbers would be fine, but the durability the caller
// asked for is not, and silently continuing would let a later -resume
// replay a broken journal.
func (s *Study) ReportContext(ctx context.Context, exps ...Experiment) (string, error) {
	set, err := expandExperiments(exps)
	if err != nil {
		return "", err
	}
	// One experiment (after dedup, and not via ExpAll) renders its raw
	// section; any larger request joins sections with a separating
	// newline. Computed from the deduped set so "table1,table1" is
	// byte-identical to "table1".
	single := len(set) == 1
	for _, e := range exps {
		if e == ExpAll {
			single = false
		}
	}
	texts := make([]string, 0, len(set))
	var failed error
	for _, e := range set {
		v, err := s.resolve(ctx, string(e))
		if err != nil {
			failed = fmt.Errorf("cookiewalk: experiment %s: %w", e, err)
			break
		}
		texts = append(texts, v.(string))
	}
	// One latched-error check for the whole assembly: a landscape error
	// is reported once, under its own wrapping, in place of the
	// experiment that ran into it.
	if lerr := s.landscapeError(); lerr != nil {
		return "", fmt.Errorf("cookiewalk: landscape crawl: %w", lerr)
	}
	if failed != nil {
		return "", failed
	}
	if single {
		return texts[0], nil
	}
	var b strings.Builder
	for _, t := range texts {
		b.WriteString(t)
		b.WriteByte('\n')
	}
	return b.String(), nil
}
