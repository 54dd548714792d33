package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for cwbench's child processes:
// the parent re-executes its own binary, which here is this one.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the harness must agree
// with.
type benchmarkSpec struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesMetricTable: BENCHMARK.json lists exactly the
// workloads, listed end-to-end metrics (with their units and bounds)
// and listed per-layer metrics (with their units) this program reports.
func TestSpecMatchesMetricTable(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, cwbench runs %v", names, workloadNames)
	}
	var listed []metricDef
	for _, m := range endToEnd {
		if m.ListedBound > 0 {
			listed = append(listed, m)
		}
	}
	if len(spec.EndToEnd) != len(listed) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, cwbench %d", len(spec.EndToEnd), len(listed))
	}
	for i, m := range spec.EndToEnd {
		want := listed[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.ListedBound {
			t.Errorf("end_to_end[%d] = %+v, cwbench has %+v", i, m, want)
		}
	}
	if len(spec.PerLayer) != len(listedLayers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, cwbench %d", len(spec.PerLayer), len(listedLayers))
	}
	for i, m := range spec.PerLayer {
		if m.Name != listedLayers[i] || m.Unit != layerUnit(m.Name) {
			t.Errorf("per_layer[%d] = %s (%s), cwbench has %s (%s)", i, m.Name, m.Unit, listedLayers[i], layerUnit(listedLayers[i]))
		}
	}
}

// printedMetrics maps "workload metric" to the unit of every metric
// line cwbench printed.
func printedMetrics(stdout string) map[string]string {
	printed := map[string]string{}
	for _, line := range strings.Split(stdout, "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && !strings.HasPrefix(line, "#") {
			printed[f[0]+" "+f[1]] = f[3]
		}
	}
	return printed
}

// TestSmoke runs all four workloads once at the golden configuration,
// untraced and traced, and checks that every metric BENCHMARK.json
// lists is printed for every workload with its unit, that the trace
// file is valid, and that a single-workload run ends in the result
// line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	scratch := t.TempDir()
	small := []string{"-scale", "0.02", "-reps", "2", "-seconds", "1", "-scratch", scratch}
	cwbench := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		start := time.Now()
		if code := run(context.Background(), append(small, args...), &stdout, &stderr); code != 0 {
			t.Fatalf("cwbench %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
		}
		t.Logf("cwbench %v: %s", args, time.Since(start).Round(time.Millisecond))
		return stdout.String()
	}

	printed := printedMetrics(cwbench("-trace", "0"))
	for _, w := range workloadNames {
		for _, m := range spec.EndToEnd {
			if unit, ok := printed[w+" "+m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s %s not printed with unit %s (got %q)", w, m.Name, m.Unit, unit)
			}
		}
	}
	for _, name := range []string{"round_s", "query_p50_ms", "query_p99_ms", "query_max_rps", "failed_share"} {
		if _, ok := printed[trendServe+" "+name]; !ok {
			t.Errorf("trend-serve %s not printed", name)
		}
	}

	tracePath := filepath.Join(scratch, "trace.json")
	printed = printedMetrics(cwbench("-trace", tracePath))
	for _, w := range workloadNames {
		for _, m := range spec.PerLayer {
			if unit, ok := printed[w+" "+m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s %s not printed with unit %s (got %q)", w, m.Name, m.Unit, unit)
			}
		}
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(data, &events); err != nil || len(events) == 0 {
		t.Fatalf("trace file: %d events, err %v", len(events), err)
	}

	lines := strings.Split(strings.TrimSpace(cwbench("-workload", studyCold, "-trace", "0")), "\n")
	var result struct {
		Correct   bool                     `json:"correct"`
		Attempted int64                    `json:"attempted"`
		Failed    int64                    `json:"failed"`
		Metrics   map[string]contractValue `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !result.Correct || result.Attempted < 1 || result.Failed != 0 || len(result.Metrics) != len(spec.EndToEnd) {
		t.Fatalf("result line %+v", result)
	}
	for _, m := range spec.EndToEnd {
		if v, ok := result.Metrics[m.Name]; !ok || v.Unit != m.Unit || !(v.Value > 0) {
			t.Errorf("result metric %s = %+v", m.Name, v)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data      []float64
		q1, m, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, m, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestHistQuantiles: a quantile read back from the histogram is within
// its bucket precision of the exact sample.
func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v * 37)
	}
	for _, q := range []float64{0.5, 0.99} {
		exact := q * 100000 * 37
		if got := h.quantile(q); math.Abs(got-exact)/exact > 0.016 {
			t.Errorf("quantile(%v) = %v, exact %v", q, got, exact)
		}
	}
}

// TestCoverUnion: layer attribution counts the union of overlapping
// spans once, and a span still open up to the reading.
func TestCoverUnion(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(1700000000, 0).Add(time.Duration(ms) * time.Millisecond) }
	var c cover
	c.enter(at(0))
	c.enter(at(5))
	c.leave(at(10))
	c.leave(at(15))
	c.enter(at(20))
	if got := c.covered(at(30)); got != 25*time.Millisecond {
		t.Errorf("covered with a span open = %v, want 25ms", got)
	}
	c.leave(at(40))
	if got := c.covered(at(50)); got != 35*time.Millisecond {
		t.Errorf("covered = %v, want 35ms", got)
	}
}

// TestCompareGuards: compare needs ten alternating pairs from one
// machine and configuration.
func TestCompareGuards(t *testing.T) {
	env := envStamp{NProc: 2, GOMAXPROCS: 2, CPU: "cpu", Seed: 42, Scale: 1, Reps: 5}
	t0 := time.Unix(1700000000, 0)
	files := func(pairs int) (base, change resultFile) {
		for i := 0; i < pairs; i++ {
			rec := func(at time.Time, wall float64) runRecord {
				return runRecord{Started: at, Env: env, Workloads: map[string]workloadRecord{
					crawlWarm: {Metrics: map[string]statRecord{"wall_s": {Median: wall}}},
				}}
			}
			b, c := t0.Add(time.Duration(2*i)*time.Minute), t0.Add(time.Duration(2*i+1)*time.Minute)
			if i%2 == 1 {
				b, c = c, b
			}
			base.Runs = append(base.Runs, rec(b, 2))
			change.Runs = append(change.Runs, rec(c, 1.5))
		}
		return base, change
	}

	base, change := files(10)
	v, err := compareResults(base, change)
	if err != nil || len(v) != 1 || v[0].Verdict != "gain" {
		t.Fatalf("ten alternating pairs: %+v, %v", v, err)
	}
	if _, err := compareResults(files(9)); err == nil {
		t.Error("nine pairs accepted")
	}
	base, change = files(10)
	change.Runs[3].Env.Seed = 7
	if _, err := compareResults(base, change); err == nil {
		t.Error("runs of different seeds accepted")
	}
	base, change = files(10)
	change.Runs[4].Started, base.Runs[4].Started = base.Runs[4].Started, change.Runs[4].Started
	if _, err := compareResults(base, change); err == nil {
		t.Error("pairs that did not alternate accepted")
	}
}

// TestCompareRule exercises the decision rule on synthetic runs.
func TestCompareRule(t *testing.T) {
	wall := endToEnd[1]
	noisy := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	faster := make([]float64, len(noisy))
	slower := make([]float64, len(noisy))
	for i, v := range noisy {
		faster[i] = v * 0.8
		slower[i] = v * 1.2
	}
	for _, c := range []struct {
		name     string
		base, nv []float64
		want     string
	}{
		{"gain", noisy, faster, "gain"},
		{"regression", noisy, slower, "regression"},
		{"unchanged", noisy, noisy, "within bound"},
		{"spread wider than the bound", []float64{5, 15, 5, 15, 5, 15, 5, 15, 5, 15}, noisy, "unresolved"},
	} {
		if got := judge(studyCold, wall, c.base, c.nv).Verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
