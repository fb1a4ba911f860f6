package main

// metricDef declares one metric exactly as BENCHMARK.json does; the
// schema test holds the two lists equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics have none.
	Bound float64
}

type metricDefs []metricDef

func (ds metricDefs) has(name string) bool {
	for _, d := range ds {
		if d.Name == name {
			return true
		}
	}
	return false
}

// endToEndMetrics are what a corpus owner sees. Every workload reports
// every one of them, so "op" is fixed per workload: a feed record on the
// three ingest workloads (op_ms is then the interval between consecutive
// window closes — the full cost of one 15-minute window), a
// POST /v1/stale batch on the three serve workloads (op_ms is its
// latency). README.md maps these to the issue's per-workload names.
//
// One figure per workload is a time, and it is a median; the cost of an
// op is bounded as a count of allocations, which does not depend on what
// the host's other tenants are doing. Rates, CPU per op and tail
// percentiles are printed with each workload's own figures and not
// bounded: over ten runs of one commit on a shared two-core box they
// spread by more than any bound the contract allows (README.md, "Why one
// time is bounded").
var endToEndMetrics = metricDefs{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"heap_bytes_per_pair", "B", "lower", 0.10},
}

// perLayerMetrics come from the traced pass. Prefix = module. A layer the
// workload bypasses reports 0: that is the prediction "no work here", and
// a later change that makes it non-zero has moved work into the layer.
var perLayerMetrics = metricDefs{
	{"bgp.decode_ns_per_update", "ns", "lower", 0},
	{"bgp.decode_allocs_per_update", "count", "lower", 0},
	{"bgp.rib_apply_ns_per_update", "ns", "lower", 0},
	{"bgp.rib_apply_allocs_per_update", "count", "lower", 0},
	{"traceroute.json_decode_ns_per_trace", "ns", "lower", 0},
	{"trie.lpm_ns_per_lookup", "ns", "lower", 0},
	{"corpus.add_ns_per_trace", "ns", "lower", 0},

	{"core.observe_bgp_ns_per_update", "ns", "lower", 0},
	{"core.observe_trace_ns_per_trace", "ns", "lower", 0},
	{"core.close_window_ms_p50", "ms", "lower", 0},
	{"core.close_window_ms_p90", "ms", "lower", 0},
	{"core.close_allocs_per_window", "count", "lower", 0},
	{"core.close_bytes_per_window", "B", "lower", 0},
	{"core.close_serial_ms_p50", "ms", "lower", 0},
	{"core.shard_speedup", "ratio", "higher", 0},
	{"core.shard_close_skew", "ratio", "lower", 0},
	{"core.signals_total", "count", "higher", 0},
	{"core.signals_sha256", "count", "higher", 0},
	{"events.tap_ns_per_record", "ns", "lower", 0},

	{"rrr.pipeline_self_ns_per_record", "ns", "lower", 0},
	{"rrr.merge_stall_s", "s", "lower", 0},
	{"rrr.pairstates_ns_per_key", "ns", "lower", 0},
	{"rrr.snapshot_ms", "ms", "lower", 0},
	{"rrr.snapshot_bytes_per_pair", "B", "lower", 0},
	{"rrr.restore_ms", "ms", "lower", 0},

	{"wal.append_ns_per_record", "ns", "lower", 0},
	{"wal.bytes_per_record", "B", "lower", 0},
	{"wal.sync_ms_p50", "ms", "lower", 0},
	{"wal.sync_ms_p90", "ms", "lower", 0},
	{"wal.fsyncs_total", "count", "lower", 0},
	{"wal.replay_ns_per_record", "ns", "lower", 0},
	{"wal.recover_records_per_s", "1/s", "higher", 0},

	{"feedwire.encode_ns_per_frame", "ns", "lower", 0},
	{"feedwire.decode_ns_per_frame", "ns", "lower", 0},
	{"feedwire.bytes_per_record", "B", "lower", 0},
	{"feedwire.drain_records_per_s", "1/s", "higher", 0},
	{"feedwire.buffer_depth_max", "count", "lower", 0},
	{"feedwire.reconnects_total", "count", "lower", 0},

	{"server.verdict_hit_ns_per_key", "ns", "lower", 0},
	{"server.verdict_miss_ns_per_key", "ns", "lower", 0},
	{"server.handler_allocs_per_req", "count", "lower", 0},
	{"server.http_self_us_per_req", "us", "lower", 0},
	{"server.cache_hit_ratio", "ratio", "higher", 0},
	{"server.cache_invalidations_total", "count", "lower", 0},
	{"server.hub_publish_ns_per_signal", "ns", "lower", 0},
	{"server.hub_dropped_total", "count", "lower", 0},
	{"server.stale_ms_p99", "ms", "lower", 0},
	{"server.signal_lag_ms_p50", "ms", "lower", 0},
	{"server.signal_lag_ms_p90", "ms", "lower", 0},

	{"cluster.router_self_us_per_req", "us", "lower", 0},
	{"cluster.router_allocs_per_req", "count", "lower", 0},
	{"cluster.subrequests_per_req", "count", "lower", 0},
	{"cluster.ring_lookup_ns_per_key", "ns", "lower", 0},
	{"cluster.retries_total", "count", "lower", 0},
	{"cluster.failovers_total", "count", "lower", 0},
	{"cluster.partial_responses_total", "count", "lower", 0},

	{"runtime.alloc_bytes_per_op", "B", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.gc_cpu_frac", "ratio", "lower", 0},
	{"runtime.gc_pause_ms_p95", "ms", "lower", 0},

	{"trace.core_close_self_frac", "ratio", "lower", 0},
	{"trace.wal_feedwire_self_frac", "ratio", "lower", 0},
	{"trace.router_self_frac", "ratio", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.spans_total", "count", "lower", 0},
}
