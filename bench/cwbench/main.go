// Command cwbench is the cookiewalk benchmark. It runs four workloads
// (crawl-warm, study-cold, fleet-loopback, trend-serve), each
// repetition in a fresh child process, checks every output for
// correctness, and prints every end-to-end metric as
//
//	workload metric value unit (q1 …, q3 …, n …)
//
// with the median and quartiles across repetitions. The traced run
// (-trace) prints the per-layer metrics instead, from one traced
// repetition per workload, and writes a Chrome trace-event file of its
// spans.
//
// Run it from the repository root (bench/run.sh builds it with every
// cache under .bench_build/):
//
//	bash bench/run.sh -seed 42                      # all four workloads
//	bash bench/run.sh -seed 42 -trace trace.json    # plus per-layer metrics
//	bash bench/run.sh -workload study-cold -seed 7 -seconds 15 -trace 0
//	bash bench/run.sh compare base.json new.json    # see compare.go
//
// or, from bench/, go run ./cwbench -seed 42. With a single workload
// the last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics that
// BENCHMARK.json lists, or with tracing its per-layer metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// repOptions is everything a child process needs to run one
// repetition; the parent passes it as flags.
type repOptions struct {
	Workload string
	Seed     uint64
	Scale    float64
	Reps     int
	// Setups > 0 times the workload's set-up that many times instead of
	// running the workload.
	Setups int
	// TraceSize runs the workload at the traced run's size (see
	// tracedWarmCrawls and tracedTrendRounds).
	TraceSize bool
	// TraceOut, when set, traces the repetition and names its trace file.
	TraceOut string
}

func (o repOptions) args() []string {
	args := []string{"-child",
		"-workload", o.Workload,
		"-seed", fmt.Sprint(o.Seed),
		"-scale", fmt.Sprint(o.Scale),
		"-reps", fmt.Sprint(o.Reps),
	}
	if o.Setups > 0 {
		args = append(args, "-setups", fmt.Sprint(o.Setups))
	}
	if o.TraceSize {
		args = append(args, "-trace-size")
	}
	if o.TraceOut != "" {
		args = append(args, "-trace-out", o.TraceOut)
	}
	return args
}

// run is the whole program; it returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("cwbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "comma-separated workloads to run (default all: "+strings.Join(workloadNames, ", ")+")")
		seed     = fs.Uint64("seed", 42, "universe seed: the same seed gives the same inputs")
		scale    = fs.Float64("scale", 1, "filler-web scale (1 = the paper's 45 222 targets)")
		reps     = fs.Int("reps", 5, "cookie-measurement repetitions of every study (cookiewalk -reps)")
		seconds  = fs.Int("seconds", 15, "measuring time per workload; sets the repetition count from each workload's nominal repetition time")
		traceArg = fs.String("trace", "0", `"1" or a file name runs the traced run instead: per workload one untraced reference repetition and one traced repetition, printing the per-layer metrics; the trace is written to the file (default .bench_build/cwbench-trace.json)`)
		out      = fs.String("out", "", "append this run's results to a JSON file for compare (untraced runs only)")
		scratch  = fs.String("scratch", "", "directory for temp files, the digest record and the default trace (default .bench_build in the repository root)")

		child     = fs.Bool("child", false, "run one repetition and print its result (internal)")
		setups    = fs.Int("setups", 0, "child: time the workload's set-up this many times instead of running it (internal)")
		traceSize = fs.Bool("trace-size", false, "child: run at the traced run's size (internal)")
		traceOut  = fs.String("trace-out", "", "child: trace the repetition and write its spans here (internal)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "cwbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *scale <= 0 || *reps <= 0 || *seconds <= 0 {
		fmt.Fprintln(stderr, "cwbench: -scale, -reps and -seconds must be positive")
		return 2
	}
	o := repOptions{Seed: *seed, Scale: *scale, Reps: *reps}
	if *child {
		o.Workload = *workload
		o.Setups = *setups
		o.TraceSize = *traceSize
		o.TraceOut = *traceOut
		return childMain(ctx, o, stdout, stderr)
	}

	names := workloadNames
	if *workload != "" {
		names = strings.Split(*workload, ",")
		for _, n := range names {
			if !slices.Contains(workloadNames, n) {
				fmt.Fprintf(stderr, "cwbench: unknown workload %q (have %s)\n", n, strings.Join(workloadNames, ", "))
				return 2
			}
		}
	}
	p := parentOptions{repOptions: o, workloads: names, seconds: *seconds, out: *out, scratch: *scratch}
	switch *traceArg {
	case "0", "":
	case "1":
		p.traceFile = "-"
	default:
		p.traceFile = *traceArg
	}
	if p.traceFile != "" && p.out != "" {
		fmt.Fprintln(stderr, "cwbench: -out records untraced runs only; drop -trace")
		return 2
	}
	return parentMain(ctx, p, stdout, stderr)
}

// childMain runs one repetition in this process and prints its result
// as the last line of standard output.
func childMain(ctx context.Context, o repOptions, stdout, stderr io.Writer) int {
	tmp, err := os.MkdirTemp("", "cwbench-rep-")
	if err != nil {
		fmt.Fprintln(stderr, "cwbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	r := newRep(o, tmp)
	for i := 0; i < max(o.Setups, 1); i++ {
		if o.Setups > 0 {
			// Each set-up starts from a collected heap, as the first one
			// in the fresh process does.
			runtime.GC()
			r.res.Metrics["setup_s"] = 0
		}
		if err := r.run(ctx); err != nil {
			fmt.Fprintln(stderr, "cwbench:", err)
			return 1
		}
		if o.Setups > 0 {
			r.res.Setups = append(r.res.Setups, r.res.Metrics["setup_s"])
		}
	}
	if r.tr != nil {
		pid := slices.Index(workloadNames, o.Workload) + 1
		if err := r.tr.writeChrome(o.TraceOut, pid, o.Workload); err != nil {
			r.fail("%v", err)
		}
	}
	data, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(stderr, "cwbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}
