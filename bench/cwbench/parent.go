package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cookiewalk"
)

// parentOptions configures the parent process, which runs every
// repetition as a child and aggregates, checks and prints the results.
type parentOptions struct {
	repOptions
	workloads []string
	seconds   int
	traceFile string // "" the untraced run, "-" traced to the default trace file
	out       string
	scratch   string
}

// nominalRep is each workload's repetition time at scale 1 on the
// reference machine (see bench/README.md). -seconds divided by it
// fixes the repetition count, so a run's length is set in repetitions,
// not in time, and both sides of a comparison do identical work.
var nominalRep = map[string]float64{crawlWarm: 14.5, studyCold: 7, fleetLoopback: 7.5, trendServe: 18}

func (p parentOptions) repetitions(workload string) int {
	return max(1, int(math.Round(float64(p.seconds)/nominalRep[workload])))
}

// minSetups is the fewest set-up samples a run takes: a run with fewer
// repetitions adds one child that times the rest of them back to back,
// so setup_s is a median of at least minSetups set-ups however long the
// workload's repetitions are. A single set-up takes 0.15 to 0.6 s and
// jitters by ±20 % on a shared machine, hence the sample count. The
// traced run skips the extra set-ups: it reports the per-layer metrics.
const minSetups = 11

// childTimeout bounds one repetition.
const childTimeout = 170 * time.Second

// childEnv marks a child process, so a test binary re-executed as a
// child runs the benchmark instead of the tests.
const childEnv = "CWBENCH_CHILD"

//go:embed baseline.json
var baselineJSON []byte

// baseline pins the output digests of the default configuration.
type baseline struct {
	Seed    uint64            `json:"seed"`
	Scale   float64           `json:"scale"`
	Reps    int               `json:"reps"`
	Digests map[string]string `json:"digests"`
}

// summary aggregates one workload's repetitions.
type summary struct {
	name      string
	runs      []repResult // untraced: the repetitions, or the traced run's reference
	setups    []float64   // setup_s of the set-up-only child
	traced    *repResult
	digests   map[string]string
	attempted int64
	failed    int64
	problems  []string
}

func (s *summary) check(ok bool, format string, args ...any) {
	s.attempted++
	if !ok {
		s.failed++
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
}

func (s *summary) add(res repResult) {
	s.attempted += res.Attempted
	s.failed += res.Failed
	for _, p := range res.Problems {
		s.problems = append(s.problems, fmt.Sprintf("%s: %s", s.name, p))
	}
}

// values returns one end-to-end metric across the untraced repetitions
// (setup_s also across the set-up-only child's set-ups).
func (s *summary) values(metric string) []float64 {
	var vs []float64
	if metric == "setup_s" {
		vs = append(vs, s.setups...)
	}
	for _, r := range s.runs {
		if v, ok := r.Metrics[metric]; ok {
			vs = append(vs, v)
		}
	}
	return vs
}

func (s *summary) failedShare() float64 {
	if s.attempted == 0 {
		return 1
	}
	return float64(s.failed) / float64(s.attempted)
}

func parentMain(ctx context.Context, p parentOptions, stdout, stderr io.Writer) int {
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "cwbench:", err)
		return 1
	}
	scratch := p.scratch
	if scratch == "" {
		scratch = filepath.Join(root, ".bench_build")
	}
	if err := os.MkdirAll(filepath.Join(scratch, "tmp"), 0o755); err != nil {
		fmt.Fprintln(stderr, "cwbench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "cwbench:", err)
		return 1
	}
	env := stampEnv(root, p.repOptions)
	started := time.Now()
	fmt.Fprintf(stdout, "# cwbench seed=%d scale=%g reps=%d nproc=%d gomaxprocs=%d go=%s commit=%s cpu=%q\n",
		env.Seed, env.Scale, env.Reps, env.NProc, env.GOMAXPROCS, env.Go, env.Commit, env.CPU)

	// The correctness gate: the pinned golden report, before any timing.
	gateErr := goldenGate(root)
	if gateErr != nil {
		fmt.Fprintln(stderr, "cwbench: golden gate:", gateErr)
	}

	var sums []*summary
	var traceParts []string
	for _, w := range p.workloads {
		s := &summary{name: w}
		s.check(gateErr == nil, "golden gate: %v", gateErr)
		repetition := func(label string, o repOptions) (repResult, bool) {
			fmt.Fprintf(stderr, "cwbench: %s %s\n", w, label)
			res, err := runChild(ctx, self, o, scratch, stderr)
			s.check(err == nil, "%s %s: %v", w, label, err)
			if err == nil {
				s.add(res)
			}
			return res, err == nil
		}
		if p.traceFile == "" {
			n := p.repetitions(w)
			for i := 1; i <= n; i++ {
				if res, ok := repetition(fmt.Sprintf("repetition %d/%d", i, n), p.child(w, false, "")); ok {
					s.runs = append(s.runs, res)
				}
			}
			if n < minSetups {
				o := p.child(w, false, "")
				o.Setups = minSetups - n
				res, err := runChild(ctx, self, o, scratch, stderr)
				s.check(err == nil && len(res.Setups) == o.Setups, "%s set-ups: %d of %d timed, err %v", w, len(res.Setups), o.Setups, err)
				s.setups = res.Setups
			}
		} else {
			// The traced run: an untraced reference repetition, then the
			// traced one, both at the traced size.
			if res, ok := repetition("untraced reference repetition", p.child(w, true, "")); ok {
				s.runs = append(s.runs, res)
			}
			part := filepath.Join(scratch, "tmp", "trace-"+w+".json")
			if res, ok := repetition("traced repetition", p.child(w, true, part)); ok {
				s.traced = &res
				traceParts = append(traceParts, part)
				s.traceLayers()
			}
		}
		sums = append(sums, s)
	}
	checkDigests(sums, p.repOptions, filepath.Join(scratch, "cwbench-digests.json"))

	for _, s := range sums {
		printSummary(stdout, s)
	}
	if p.traceFile != "" && len(traceParts) > 0 {
		path := p.traceFile
		if path == "-" {
			path = filepath.Join(scratch, "cwbench-trace.json")
		}
		if err := mergeChrome(path, traceParts); err != nil {
			fmt.Fprintln(stderr, "cwbench:", err)
		} else {
			fmt.Fprintf(stdout, "# trace: %s\n", path)
		}
		for _, part := range traceParts {
			os.Remove(part)
		}
	}
	if p.out != "" {
		if err := appendResults(p.out, started, env, sums); err != nil {
			fmt.Fprintln(stderr, "cwbench:", err)
			return 1
		}
	}

	if len(sums) == 1 {
		// The contract line is the last line of standard output.
		printContract(stdout, sums[0], p.traceFile != "")
	}
	code := 0
	for _, s := range sums {
		for _, msg := range s.problems {
			fmt.Fprintln(stderr, "cwbench: FAILED:", msg)
		}
		if s.failed > 0 {
			code = 1
		}
	}
	return code
}

func (p parentOptions) child(workload string, traceSize bool, traceOut string) repOptions {
	o := p.repOptions
	o.Workload = workload
	o.TraceSize = traceSize
	o.TraceOut = traceOut
	return o
}

// runChild runs one repetition in a fresh process and returns its
// result, with the child's peak RSS added as peak_rss_mb.
func runChild(ctx context.Context, self string, o repOptions, scratch string, stderr io.Writer) (repResult, error) {
	var res repResult
	tmp, err := os.MkdirTemp(filepath.Join(scratch, "tmp"), "rep-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(tmp)
	cctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(cctx, self, o.args()...)
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp, childEnv+"=1")
	cmd.WaitDelay = 5 * time.Second
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("child: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("child result: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res, nil
}

// traceLayers derives the per-layer numbers that need both the traced
// repetition and its untraced reference.
func (s *summary) traceLayers() {
	t := s.traced
	if wall, ok := t.Metrics["wall_s"]; ok && len(s.values("wall_s")) > 0 {
		t.Layers["trace.overhead_share"] = wall/medianOf(s.values("wall_s")) - 1
	}
	if s.name == crawlWarm && len(s.values("allocs_per_visit")) > 0 {
		// The timing wrapper must keep the browser's fast path: a crawl
		// through it allocates what an unwrapped crawl does.
		want := medianOf(s.values("allocs_per_visit"))
		got := t.Layers["webfarm.wrapped_allocs_per_visit"]
		s.check(got <= want*1.05, "wrapped crawl allocates %.3f per visit, unwrapped %.3f", got, want)
	}
}

// checkDigests compares every output digest across repetitions,
// across workloads (study-cold's and fleet-loopback's reports must be
// identical, and every workload's landscape), against the digests
// pinned for the default seed, and against the digests earlier runs in
// this checkout recorded for the same seed, so workloads run by
// separate invocations are still compared with each other.
func checkDigests(sums []*summary, o repOptions, cachePath string) {
	var pinned baseline
	if err := json.Unmarshal(baselineJSON, &pinned); err != nil {
		for _, s := range sums {
			s.check(false, "baseline.json: %v", err)
		}
		return
	}
	usePinned := pinned.Seed == o.Seed && pinned.Scale == o.Scale && pinned.Reps == o.Reps
	cache := map[string]string{}
	if data, err := os.ReadFile(cachePath); err == nil {
		if json.Unmarshal(data, &cache) != nil {
			cache = map[string]string{}
		}
	}
	seen := map[string]string{} // digest name → value from the first workload
	owner := map[string]string{}
	for _, s := range sums {
		runs := s.runs
		if s.traced != nil {
			runs = append(append([]repResult(nil), runs...), *s.traced)
		}
		s.digests = map[string]string{}
		for _, r := range runs {
			for _, name := range sortedKeys(r.Digests) {
				v := r.Digests[name]
				if first, ok := s.digests[name]; ok {
					s.check(v == first, "%s digest %s differs between repetitions", s.name, name)
					continue
				}
				s.digests[name] = v
				if first, ok := seen[name]; ok {
					s.check(v == first, "%s digest %s differs from %s's", s.name, name, owner[name])
				} else {
					seen[name], owner[name] = v, s.name
				}
				if want, ok := pinned.Digests[name]; ok && usePinned {
					s.check(v == want, "%s digest %s %s differs from the pinned %s", s.name, name, short(v), short(want))
				}
				key := fmt.Sprintf("seed=%d scale=%g reps=%d %s", o.Seed, o.Scale, o.Reps, name)
				if want, ok := cache[key]; ok {
					s.check(v == want, "%s digest %s differs from an earlier run's for the same seed", s.name, name)
				} else {
					cache[key] = v
				}
			}
		}
	}
	data, err := json.MarshalIndent(cache, "", "  ")
	if err == nil {
		err = os.WriteFile(cachePath, data, 0o644)
	}
	if len(sums) > 0 {
		sums[0].check(err == nil, "digest record: %v", err)
	}
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

func fmtNum(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// printSummary prints a workload's end-to-end metrics, or for the
// traced run its per-layer metrics, then failed_share and the digests.
func printSummary(w io.Writer, s *summary) {
	if s.traced != nil {
		layers := s.layers()
		for _, name := range sortedKeys(layers) {
			from := "traced"
			if _, ok := metricByName(name); ok {
				from = "untraced reference"
			}
			fmt.Fprintf(w, "%s %s %s %s (%s)\n", s.name, name, fmtNum(layers[name]), layerUnit(name), from)
		}
	}
	for _, m := range endToEnd {
		if !m.appliesTo(s.name) || (s.traced != nil && m.Name != "failed_share") {
			continue
		}
		if m.Name == "failed_share" {
			fmt.Fprintf(w, "%s failed_share %s ratio (%d of %d operations)\n", s.name, fmtNum(s.failedShare()), s.failed, s.attempted)
			continue
		}
		vs := s.values(m.Name)
		if len(vs) == 0 {
			fmt.Fprintf(w, "%s %s - %s (not measured)\n", s.name, m.Name, m.Unit)
			continue
		}
		q1, med, q3 := quartiles(vs)
		extra := ""
		if m.Name == "query_p99_ms" || m.Name == "query_p50_ms" {
			extra = fmt.Sprintf(", %s samples at %d req/s each", fmtNum(medianOf(s.values("query_samples"))), queryRefRate)
		}
		fmt.Fprintf(w, "%s %s %s %s (q1 %s, q3 %s, n %d%s)\n", s.name, m.Name, fmtNum(med), m.Unit, fmtNum(q1), fmtNum(q3), len(vs), extra)
	}
	for _, name := range sortedKeys(s.digests) {
		fmt.Fprintf(w, "%s digest.%s %s\n", s.name, name, s.digests[name])
	}
}

// layers returns the traced run's per-layer metrics: the traced
// repetition's, plus the wall_s and visits_per_s of its untraced
// reference (BENCHMARK.json lists those two per-layer).
func (s *summary) layers() map[string]float64 {
	out := maps.Clone(s.traced.Layers)
	for _, name := range []string{"wall_s", "visits_per_s"} {
		if vs := s.values(name); len(vs) > 0 {
			out[name] = medianOf(vs)
		}
	}
	return out
}

// contractValue is one metric of the single-workload result line.
type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printContract prints the single-workload result as one JSON line:
// the end-to-end metrics BENCHMARK.json lists (medians over the
// repetitions), or for the traced run the per-layer metrics it lists.
func printContract(w io.Writer, s *summary, traced bool) {
	metrics := map[string]contractValue{}
	if traced {
		var layers map[string]float64
		if s.traced != nil {
			layers = s.layers()
		}
		for _, name := range listedLayers {
			v, ok := layers[name]
			s.check(ok, "per-layer metric %s was not measured", name)
			if ok {
				metrics[name] = contractValue{v, layerUnit(name)}
			}
		}
	} else {
		for _, m := range endToEnd {
			if m.ListedBound == 0 {
				continue
			}
			vs := s.values(m.Name)
			s.check(len(vs) > 0, "%s was not measured", m.Name)
			if len(vs) > 0 {
				metrics[m.Name] = contractValue{medianOf(vs), m.Unit}
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                     `json:"correct"`
		Attempted int64                    `json:"attempted"`
		Failed    int64                    `json:"failed"`
		Metrics   map[string]contractValue `json:"metrics"`
	}{s.failed == 0, max(s.attempted, 1), s.failed, metrics})
	if err != nil {
		panic(err) // plain structs of floats and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}

// findRoot locates the repository root from the working directory
// (the root itself, bench/ or bench/cwbench/).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for i := 0; i < 3; i++ {
		if isFile(filepath.Join(dir, "go.mod")) && isFile(filepath.Join(dir, "testdata", "golden_all.txt")) {
			return dir, nil
		}
		dir = filepath.Dir(dir)
	}
	return "", errors.New("run from the cookiewalk repository root")
}

func isFile(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}

// goldenGate renders the full report at the golden configuration and
// byte-compares it with testdata/golden_all.txt.
func goldenGate(root string) error {
	want, err := os.ReadFile(filepath.Join(root, "testdata", "golden_all.txt"))
	if err != nil {
		return err
	}
	got, err := cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.02, Reps: 2}).Report(cookiewalk.ExpAll)
	if err != nil {
		return err
	}
	if got == string(want) {
		return nil
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if gl[i] != wl[i] {
			return fmt.Errorf("report differs from testdata/golden_all.txt at line %d: %q, want %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Errorf("report has %d lines, testdata/golden_all.txt %d", len(gl), len(wl))
}

// envStamp records what a run ran on. compare refuses to compare runs
// whose machine, GOMAXPROCS, seed or scale differ.
type envStamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"`
	Reps       int     `json:"reps"`
}

func stampEnv(root string, o repOptions) envStamp {
	return envStamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Go: runtime.Version(), Commit: gitHead(root),
		Seed: o.Seed, Scale: o.Scale, Reps: o.Reps,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitHead is git rev-parse HEAD read from .git directly (the benchmark
// reads nothing outside its checkout, git's configuration included);
// "unknown" outside a git checkout.
func gitHead(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if data, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(data))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// resultFile is what -out accumulates and compare reads: one record
// per cwbench run.
type resultFile struct {
	Runs []runRecord `json:"runs"`
}

type runRecord struct {
	Started   time.Time                 `json:"started"`
	Env       envStamp                  `json:"env"`
	Workloads map[string]workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Metrics map[string]statRecord `json:"metrics"`
}

type statRecord struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func appendResults(path string, started time.Time, env envStamp, sums []*summary) error {
	var f resultFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("results file %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rec := runRecord{Started: started, Env: env, Workloads: map[string]workloadRecord{}}
	for _, s := range sums {
		wr := workloadRecord{Metrics: map[string]statRecord{}}
		for _, m := range endToEnd {
			vs := s.values(m.Name)
			if m.Name == "failed_share" {
				vs = []float64{s.failedShare()}
			}
			if len(vs) == 0 {
				continue
			}
			sort.Float64s(vs)
			q1, med, q3 := quartiles(vs)
			wr.Metrics[m.Name] = statRecord{Median: med, Q1: q1, Q3: q3, Values: vs}
		}
		rec.Workloads[s.name] = wr
	}
	f.Runs = append(f.Runs, rec)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
