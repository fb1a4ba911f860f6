package core

import "rrr/internal/obs"

// Engine instrumentation. Handles are resolved once in NewEngine, so the
// ingest and close paths only touch atomics, and accumulate across engine
// instances sharing a process (in the daemon there is exactly one). The
// close histogram times closeOwned only, never the shared phase. Its name
// and constant shard="0" label date from a per-pair phase split across
// goroutines; they stay because the benchmark's traced pass reads that
// series.
type engineMetrics struct {
	obs   *obs.Counter   // observations folded into the shared state
	close *obs.Histogram // per-pair close phase latency
}

func newEngineMetrics() engineMetrics {
	obs.Default.Help("rrr_engine_observations_total", "observations (BGP changes and prepared traceroutes) folded into the engine's shared window state")
	obs.Default.Help("rrr_shard_close_window_seconds", "latency of the per-pair close phase for one signal window (one series, shard=\"0\")")
	return engineMetrics{
		obs:   obs.Default.Counter("rrr_engine_observations_total"),
		close: obs.Default.Histogram("rrr_shard_close_window_seconds", nil, "shard", "0"),
	}
}
