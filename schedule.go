package cookiewalk

import (
	"context"
	"fmt"
	"strings"
	"sync"
)

// The experiment DAG scheduler. Every artefact of the study — the
// landscape campaign, derived domain lists, follow-up campaign
// results, and each experiment's rendered report section — is a node
// in a registry declaring the artefacts it consumes. Report,
// ReportContext and BuildDataset resolve the nodes they need; each
// node runs at most once per Study (its result is memoized in the
// study-wide store, replacing the old ad-hoc s.landscape/s.fig4 mutex
// fields), independent nodes run concurrently up to
// Config.ExperimentParallelism, and dependencies are awaited before a
// node claims a parallelism slot, so the scheduler can never deadlock
// on its own semaphore.
//
// Determinism invariant: every node's artefact is a pure function of
// its declared inputs and the study seed — never of scheduling — so
// the assembled report is byte-identical for any parallelism level
// (pinned against the golden snapshot by TestGoldenMatrix's
// parallelism rows).

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
	// deps lists every artefact the run func consumes. The scheduler
	// resolves them BEFORE the node takes a parallelism slot; a run
	// func must never touch an undeclared artefact (under
	// ExperimentParallelism 1 that would self-deadlock — which is
	// exactly how the test suite catches a missing declaration).
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

// resolve returns the memoized artefact of a registry node, running it
// (and, transitively, its dependencies) on first demand. Concurrent
// resolvers of the same node share one execution. A waiter whose ctx
// is canceled returns early; the runner keeps going under ITS ctx and
// latches whatever it produces.
func (s *Study) resolve(ctx context.Context, id string) (any, error) {
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
		// body re-reading a dependency resolveDeps already proved done
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

// runNode resolves a node's dependencies (concurrently), then runs its
// body under an experiment-parallelism slot. Slots are held only while
// the body runs — never while waiting on dependencies — so any
// parallelism level schedules the full DAG.
func (s *Study) runNode(ctx context.Context, n *node) (any, error) {
	if err := s.resolveDeps(ctx, n.deps); err != nil {
		return nil, err
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
	defer func() { <-s.sem }()
	return n.run(ctx, s)
}

func (s *Study) resolveDeps(ctx context.Context, deps []string) error {
	if len(deps) == 0 {
		return nil
	}
	errs := make([]error, len(deps))
	var wg sync.WaitGroup
	for i, dep := range deps {
		wg.Add(1)
		go func(i int, dep string) {
			defer wg.Done()
			_, errs[i] = s.resolve(ctx, dep)
		}(i, dep)
	}
	wg.Wait()
	// Any dependency error — cancellation, a campaign failure, or the
	// landscape's latched crawl error — fails the dependent: a failed
	// landscape may be PARTIAL (cancellation aborts remaining vantage
	// points, a journal setup failure aborts mid-crawl), and computing
	// campaigns over partial target sets would waste work and write
	// journals keyed to wrong targets, only for assembly to discard
	// everything anyway. Assembly still reports the landscape error
	// once, under its own stable wrapping.
	for i := range deps {
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
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
// experiment — and assembles their report sections in fixed
// Experiments() order. Independent experiments (and the campaigns
// behind them) are scheduled concurrently up to
// Config.ExperimentParallelism, sharing one campaign worker budget;
// the assembled output is byte-identical for any parallelism level.
//
// Canceling ctx aborts every in-flight campaign promptly. Artefacts
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
	texts := make([]string, len(set))
	errs := make([]error, len(set))
	var wg sync.WaitGroup
	for i, e := range set {
		wg.Add(1)
		go func(i int, e Experiment) {
			defer wg.Done()
			v, err := s.resolve(ctx, string(e))
			if err != nil {
				errs[i] = err
				return
			}
			texts[i] = v.(string)
		}(i, e)
	}
	wg.Wait()
	// One latched-error check for the whole assembly (the landscape's
	// journal error used to be re-checked and re-wrapped by every
	// sub-experiment of ExpAll); the first failing experiment in fixed
	// report order decides the error, so its text is stable for any
	// scheduling.
	if lerr := s.landscapeError(); lerr != nil {
		return "", fmt.Errorf("cookiewalk: landscape crawl: %w", lerr)
	}
	for i, e := range set {
		if errs[i] != nil {
			return "", fmt.Errorf("cookiewalk: experiment %s: %w", e, errs[i])
		}
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
