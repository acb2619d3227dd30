package main

// metricDef is one named metric. The two tables below are the Go copy
// of BENCHMARK.json's end_to_end and per_layer lists; TestBenchmarkJSON
// fails when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative worsening that counts as a regression
	// (end-to-end metrics only).
	Bound float64
}

// endToEnd is what a user of the served system sees. fail_ratio, the
// ninth metric of the issue, is always 0 on these workloads, so it
// travels as the result line's attempted/failed pair instead of as a
// bounded metric.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.20},
	{"access_p50_us", "us", "lower", 0.20},
	{"access_p99_us", "us", "lower", 0.25},
	{"update_p50_us", "us", "lower", 0.25},
	{"update_p99_us", "us", "lower", 0.25},
	{"sim_ms_per_access", "sim_ms", "lower", 0.20},
	{"server_peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// tracedLayers are the per-layer metrics of the traced run, ladderRows
// the in-process ladder's row names (each reported as <row>_ns and
// <row>_allocs). Layers are this repository's packages.
var tracedLayers = []metricDef{
	{"client.self_us", "us", "lower", 0},
	{"wire.network_us", "us", "lower", 0},
	{"wire.round_trips_per_op", "count", "lower", 0},
	{"server.admission_us", "us", "lower", 0},
	{"server.gate_us", "us", "lower", 0},
	{"server.unsegmented_us", "us", "lower", 0},
	{"engine.lock_wait_us", "us", "lower", 0},
	{"storage.io_us", "us", "lower", 0},
	{"proc.recompute_us", "us", "lower", 0},
	{"engine.compute_us", "us", "lower", 0},
	{"metric.page_reads_per_op", "count", "lower", 0},
	{"metric.page_writes_per_op", "count", "lower", 0},
	{"metric.screens_per_op", "count", "lower", 0},
	{"metric.delta_ops_per_op", "count", "lower", 0},
	{"metric.invalidations_per_op", "count", "lower", 0},
	{"query.screens_per_row", "count", "lower", 0},
	{"cache.hit_ratio", "ratio", "higher", 0},
	{"obs.trace_overhead_ratio", "ratio", "higher", 0},
	{"budget.unexplained_share", "ratio", "lower", 0},
}

var ladderRows = []string{
	"wire.step_encode", "wire.step_decode", "wire.result40_encode", "wire.result40_decode",
	"client.ping_rtt", "client.sql_ping",
	"quel.parse_execute", "quel.parse_replace",
	"engine.exec_access", "engine.exec_update", "engine.lock_acquire",
	"storage.snapshot", "storage.publish", "storage.page_read",
	"proc.access_hit", "proc.access_recompute", "proc.maintain_avm", "proc.maintain_rvm",
	"btree.get", "hashidx.lookup", "ilock.conflicts",
}

// perLayer is tracedLayers followed by the ladder rows.
func perLayer() []metricDef {
	out := append([]metricDef(nil), tracedLayers...)
	for _, row := range ladderRows {
		out = append(out,
			metricDef{row + "_ns", "ns", "lower", 0},
			metricDef{row + "_allocs", "count", "lower", 0})
	}
	return out
}

// value is one measured metric: the number, its unit and how many
// samples stand behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}
