package main

import "strings"

// metricDef is one metric the benchmark reports.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the base median by which the metric may get
	// worse before compare, judging alternating pairs, calls it a
	// regression. query_max_rps has no share: any drop of a rate level is
	// a regression.
	Bound float64
	// Workloads the metric applies to; nil means every workload.
	Workloads []string
	// ListedBound, when set, lists the metric in BENCHMARK.json's
	// end_to_end with this bound: how far the median of one unpaired set
	// of runs may move from another's. It is wider than Bound only for
	// setup_s, which the machine's drift moves by more than 10 % between
	// unpaired sets (see bench/README.md).
	ListedBound float64
}

// endToEnd is every end-to-end metric, in print order. The listed ones
// are BENCHMARK.json's end_to_end list: measured on every workload,
// never zero, and steady within their bound across seeds. round_s, the
// query metrics and failed_share apply to one workload or are zero by
// design, so they are printed and compared but not listed. wall_s and
// visits_per_s drift with the machine's speed by more than their bound
// across the minutes a set of runs takes, so BENCHMARK.json lists them
// per-layer instead (see bench/README.md); compare still judges them,
// pair by pair.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10, ListedBound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "visits_per_s", Unit: "visits/s", Better: "higher", Bound: 0.10},
	{Name: "allocs_per_visit", Unit: "allocs", Better: "lower", Bound: 0.05, ListedBound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10, ListedBound: 0.10},
	{Name: "round_s", Unit: "s", Better: "lower", Bound: 0.10, Workloads: []string{trendServe}},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Workloads: []string{trendServe}},
	{Name: "query_p99_ms", Unit: "ms", Better: "lower", Bound: 0.10, Workloads: []string{trendServe}},
	{Name: "query_max_rps", Unit: "req/s", Better: "higher", Workloads: []string{trendServe}},
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
}

// listedLayers is BENCHMARK.json's per_layer list: the per-layer
// metrics every workload's traced repetition measures, and the two
// end-to-end times demoted from the end_to_end list. Workload-specific
// layers (the traced engine, study DAG, fleet and trend metrics) are
// printed by the traced run but not listed.
var listedLayers = []string{
	"wall_s", "visits_per_s",
	"synthweb.generate_s", "webfarm.new_s",
	"webfarm.requests_per_visit", "webfarm.roundtrip_ns.p50", "webfarm.roundtrip_ns.p99", "webfarm.busy_share",
	"measure.memo_hits", "measure.memo_misses", "measure.memo_hit_ratio", "measure.visit_error_share",
	"browser.fetch_ns.p50", "browser.fetch_ns.p99",
	"browser.compose_self_ns.p50", "browser.compose_self_ns.p99",
	"dom.parse_ns.p50", "dom.parse_ns.p99", "dom.parse_mb_per_s",
	"core.detect_ns.p50", "core.detect_ns.p99",
	"langdetect.detect_ns.p50", "langdetect.detect_ns.p99",
	"categorize.classify_ns.p50", "categorize.classify_ns.p99",
	"campaign.noop_ns_per_result", "campaign.journal_write_ns_per_record", "campaign.journal_bytes_per_record",
	"campaign.replay_ns_per_record", "campaign.checkjournal_ns_per_record",
	"measure.codec_encode_ns", "measure.codec_decode_ns",
	"runtime.gc_cycles", "runtime.gc_pause_ms", "runtime.bytes_per_visit", "runtime.heap_peak_mb",
	"trace.unattributed_share", "trace.overhead_share",
}

func metricByName(name string) (metricDef, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

func (m metricDef) appliesTo(workload string) bool {
	if m.Workloads == nil {
		return true
	}
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// layerUnit derives a per-layer metric's unit from its name, or takes
// an end-to-end metric's own.
func layerUnit(name string) string {
	if m, ok := metricByName(name); ok {
		return m.Unit
	}
	if strings.HasSuffix(name, ".n") {
		return "count"
	}
	base := strings.TrimSuffix(strings.TrimSuffix(name, ".p50"), ".p99")
	// Handler latencies and generator lags carry a route or rate after
	// their unit (dist.handler_ms.lease, trend.generator_lag_ms.r4000).
	for _, s := range []struct{ part, unit string }{{"_ms.", "ms"}, {"_us.", "us"}} {
		if strings.Contains(base, s.part) {
			return s.unit
		}
	}
	for _, s := range []struct{ suffix, unit string }{
		{"_mb_per_s", "MB/s"},
		{"_share", "ratio"},
		{"_ratio", "ratio"},
		{"_mb", "MB"},
		{"_bytes", "bytes"},
		{"_s", "s"},
		{"_ms", "ms"},
		{"_us", "us"},
		{"_ns", "ns"},
	} {
		if strings.HasSuffix(base, s.suffix) {
			return s.unit
		}
	}
	for _, s := range []struct{ part, unit string }{
		{"_ns_per_", "ns"},
		{"bytes_per_", "bytes"},
		{"requests_per_", "requests/visit"},
		{"allocs_per_", "allocs"},
	} {
		if strings.Contains(base, s.part) {
			return s.unit
		}
	}
	return "count"
}
