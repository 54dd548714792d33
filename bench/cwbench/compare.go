package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compare judges a change against its parent from two result files
// that -out accumulated, one run per pair side, the side that runs
// first alternating from pair to pair:
//
//	for i in 1..10:
//	    odd i:  parent -out base.json, then change -out new.json
//	    even i: change -out new.json, then parent -out base.json
//	bash bench/run.sh compare base.json new.json
//
// A gain is claimed for a (workload, metric) only when the change wins
// at least nine tenths of the pairs and the medians differ by more than
// the base's interquartile spread. Every other median must stay within
// the metric's bound, or is reported unresolved when the base's own
// spread is wider than the bound. A higher failed_share fails the
// comparison, as does any regression.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: cwbench compare BASE.json NEW.json")
		return 2
	}
	base, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "cwbench compare:", err)
		return 2
	}
	change, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "cwbench compare:", err)
		return 2
	}
	verdicts, err := compareResults(base, change)
	if err != nil {
		fmt.Fprintln(stderr, "cwbench compare:", err)
		return 2
	}
	code := 0
	for _, v := range verdicts {
		fmt.Fprintln(stdout, v.String())
		if v.Verdict == "regression" || v.Verdict == "more failures" {
			code = 1
		}
	}
	return code
}

func loadResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return f, fmt.Errorf("%s holds no runs", path)
	}
	return f, nil
}

// verdict is one (workload, metric) row of a comparison.
type verdict struct {
	Workload, Metric, Unit string
	Base, New              float64
	BaseQ1, BaseQ3         float64
	Wins, Pairs            int
	Verdict                string
}

func (v verdict) String() string {
	change := 0.0
	if v.Base != 0 {
		change = (v.New - v.Base) / v.Base * 100
	}
	return fmt.Sprintf("%s %s base %s new %s %s (%+.1f%%, base q1 %s q3 %s, change wins %d/%d): %s",
		v.Workload, v.Metric, fmtNum(v.Base), fmtNum(v.New), v.Unit, change,
		fmtNum(v.BaseQ1), fmtNum(v.BaseQ3), v.Wins, v.Pairs, v.Verdict)
}

// minPairs is the fewest pairs the rule accepts.
const minPairs = 10

// compareResults applies the rule to every (workload, metric) both
// files measured.
func compareResults(base, change resultFile) ([]verdict, error) {
	pairs := min(len(base.Runs), len(change.Runs))
	if pairs < minPairs {
		return nil, fmt.Errorf("%d pairs; the rule needs at least %d", pairs, minPairs)
	}
	ref := base.Runs[0].Env
	for _, runs := range [][]runRecord{base.Runs[:pairs], change.Runs[:pairs]} {
		for _, r := range runs {
			e := r.Env
			if e.CPU != ref.CPU || e.NProc != ref.NProc || e.GOMAXPROCS != ref.GOMAXPROCS ||
				e.Seed != ref.Seed || e.Scale != ref.Scale || e.Reps != ref.Reps {
				return nil, fmt.Errorf("runs differ in machine, GOMAXPROCS, seed or scale: %+v vs %+v", e, ref)
			}
		}
	}
	for i := 1; i < pairs; i++ {
		first := base.Runs[i].Started.Before(change.Runs[i].Started)
		prev := base.Runs[i-1].Started.Before(change.Runs[i-1].Started)
		if first == prev {
			return nil, fmt.Errorf("pairs %d and %d ran the same side first; alternate which side runs first", i, i+1)
		}
	}

	var out []verdict
	for _, w := range sortedKeys(base.Runs[0].Workloads) {
		for _, m := range endToEnd {
			bv, nv := pairValues(base.Runs[:pairs], change.Runs[:pairs], w, m.Name)
			if len(bv) < pairs {
				continue
			}
			out = append(out, judge(w, m, bv, nv))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("the two files share no measured (workload, metric)")
	}
	return out, nil
}

// pairValues returns the per-run medians of one metric on both sides,
// or short slices when some run lacks it.
func pairValues(base, change []runRecord, workload, metric string) (bv, nv []float64) {
	for i := range base {
		b, ok1 := base[i].Workloads[workload].Metrics[metric]
		n, ok2 := change[i].Workloads[workload].Metrics[metric]
		if !ok1 || !ok2 {
			return nil, nil
		}
		bv = append(bv, b.Median)
		nv = append(nv, n.Median)
	}
	return bv, nv
}

func judge(workload string, m metricDef, bv, nv []float64) verdict {
	better := func(a, b float64) bool { // a better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	v := verdict{Workload: workload, Metric: m.Name, Unit: m.Unit, Pairs: len(bv)}
	var bmed, nmed float64
	v.BaseQ1, bmed, v.BaseQ3 = quartiles(bv)
	_, nmed, _ = quartiles(nv)
	v.Base, v.New = bmed, nmed
	for i := range bv {
		if better(nv[i], bv[i]) {
			v.Wins++
		}
	}
	spread := v.BaseQ3 - v.BaseQ1
	gap := nmed - bmed
	if gap < 0 {
		gap = -gap
	}
	worse := better(bmed, nmed)
	switch {
	case m.Name == "failed_share":
		v.Verdict = "ok"
		if nmed > bmed {
			v.Verdict = "more failures"
		}
	case m.Name == "query_max_rps":
		v.Verdict = "ok"
		if nmed < bmed {
			v.Verdict = "regression"
		}
	case better(nmed, bmed) && v.Wins*10 >= 9*len(bv) && gap > spread:
		v.Verdict = "gain"
	case bmed != 0 && spread/abs64(bmed) > m.Bound && !allBetter(nv, bv, m.Better == "higher"):
		v.Verdict = "unresolved"
	case worse && bmed != 0 && gap/abs64(bmed) > m.Bound:
		v.Verdict = "regression"
	default:
		v.Verdict = "within bound"
	}
	return v
}

// allBetter reports whether every change run beats every base run:
// the change's worst run beats the base's best.
func allBetter(nv, bv []float64, higher bool) bool {
	n := append([]float64(nil), nv...)
	b := append([]float64(nil), bv...)
	sort.Float64s(n)
	sort.Float64s(b)
	if higher {
		return n[0] > b[len(b)-1]
	}
	return n[len(n)-1] < b[0]
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
