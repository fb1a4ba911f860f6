package core

import (
	"strconv"

	"rrr/internal/obs"
)

// Per-shard instrumentation for the engine. Handles are resolved once in
// NewEngine (one labeled series per shard index), so the ingest and close
// paths only touch atomics. The close histogram times a shard's closeOwned
// only — never the shared phase — at every shard count. Shard-labeled series
// accumulate across engine instances sharing a process — in the daemon there
// is exactly one — and expose imbalance: a hot shard shows a fatter
// close-window latency distribution and a larger owned-pairs gauge than its
// peers. Observations are folded into the shared window state exactly once
// regardless of shard count, so they are a single engine-level counter
// rather than a per-shard series.
type shardMetrics struct {
	obs   *obs.Counter     // observations folded into the shared state
	pairs []*obs.Gauge     // corpus pairs owned by the shard
	close []*obs.Histogram // per-shard close latency
}

func newShardMetrics(n int) shardMetrics {
	obs.Default.Help("rrr_engine_observations_total", "observations (BGP changes and prepared traceroutes) folded into the engine's shared window state")
	obs.Default.Help("rrr_shard_pairs", "corpus pairs owned by each shard (imbalance indicator)")
	obs.Default.Help("rrr_shard_close_window_seconds", "per-shard latency of the per-pair close phase for one signal window")
	m := shardMetrics{
		obs:   obs.Default.Counter("rrr_engine_observations_total"),
		pairs: make([]*obs.Gauge, n),
		close: make([]*obs.Histogram, n),
	}
	for i := 0; i < n; i++ {
		shard := strconv.Itoa(i)
		m.pairs[i] = obs.Default.Gauge("rrr_shard_pairs", "shard", shard)
		m.close[i] = obs.Default.Histogram("rrr_shard_close_window_seconds", nil, "shard", shard)
	}
	return m
}
