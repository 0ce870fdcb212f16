package main

import "fmt"

// metricDef names one reported metric. BENCHMARK.json declares the same
// names, units and directions; TestBenchmarkJSONMatches keeps the two in
// step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are reported by untraced runs, on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"alloc_mb", "MiB", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// serveOps are the live client operations, in round order.
var serveOps = []string{"echo", "put", "get", "lock", "unlock"}

// catalogueIDs are the experiments of the quick catalogue workload.
var catalogueIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E16"}

// perLayer are reported by traced runs, on every workload; a layer the
// workload does not run reads 0.
func perLayer() []metricDef {
	var ds []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			ds = append(ds, metricDef{n, unit, better})
		}
	}
	for _, l := range cpuLayers {
		add("%", "lower", "cpu."+l)
	}
	add("count", "lower", "sim.events")
	add("ns", "lower", "sim.ns_per_event")
	add("count", "lower", "sim.max_queue", "sim.procs",
		"verbs.conn_establish", "verbs.conn_evict", "verbs.ctx_miss", "verbs.ud_ops",
		"verbs.ops_read", "verbs.ops_write", "verbs.ops_atomic", "verbs.ops_send")
	add("KiB", "lower", "verbs.conn_kb_per_node")
	add("count", "higher", "tier.hits")
	add("count", "lower", "tier.misses", "tier.evictions", "tier.invalidations", "tier.stale_reads",
		"tier.rollbacks", "tier.dead_fallbacks", "tier.spills")
	add("count", "higher", "tier.spill_hits")
	add("count", "lower", "tier.spill_drops")
	add("ratio", "higher", "tier.spill_useful")
	add("ratio", "lower", "dir.max_over_mean")
	add("count", "lower", "dir.migrations", "dir.splits")
	add("%", "higher", "model.hit_pct")
	add("us", "lower", "model.p99_us",
		"fabric.wire_us", "fabric.cpu_us", "nic.tx_busy_us", "nic.tx_stall_us")
	add("count", "lower", "sockets.msgs")
	add("%", "higher", "sockets.zerocopy_share")
	add("us", "lower", "sockets.window_stall_us", "sockets.credit_stall_us", "sockets.pool_stall_us")
	for _, id := range catalogueIDs {
		add("s", "lower", "exp."+id+"_s")
	}
	add("count", "lower", "go.gc_cycles")
	add("us", "lower", "go.gc_pause_us")
	add("count", "lower", "go.allocs_per_req")
	for _, op := range serveOps {
		add("us", "lower", fmt.Sprintf("serve.%s_p50_us", op), fmt.Sprintf("serve.%s_p99_us", op))
	}
	add("1/s", "higher", "live.req_per_s")
	add("us", "lower", "live.p50_us", "live.p99_us")
	add("count", "higher", "live.samples")
	add("%", "lower", "gen.late_pct")
	add("us", "lower", "gen.late_p99_us")
	add("bool", "higher", "gen.valid")
	add("count", "higher", "bench.passes")
	add("s", "lower", "trace.wall_s", "trace.overhead_s")
	return ds
}
