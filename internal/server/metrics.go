package server

import "rrr/internal/obs"

// Serving-layer metric handles (the SSE stream and snapshot I/O),
// resolved once at package init. They live in obs.Default alongside the
// pipeline/monitor/engine series and are served by GET /metrics.
var (
	metHubSubscribers = obs.Default.Gauge("rrr_hub_subscribers")
	metHubPublished   = obs.Default.Counter("rrr_hub_published_total")
	metHubDropped     = obs.Default.Counter("rrr_hub_dropped_total")

	metSnapWrites       = obs.Default.Counter("rrr_snapshot_writes_total")
	metSnapWriteErrors  = obs.Default.Counter("rrr_snapshot_write_errors_total")
	metSnapWriteSeconds = obs.Default.Histogram("rrr_snapshot_write_seconds", nil)
	metSnapBytes        = obs.Default.Gauge("rrr_snapshot_last_bytes")
	metSnapLoads        = obs.Default.Counter("rrr_snapshot_loads_total")
	metSnapLoadSeconds  = obs.Default.Histogram("rrr_snapshot_load_seconds", nil)

	metInflight = obs.Default.Gauge("rrr_server_inflight")
	metShed     = obs.Default.Counter("rrr_server_shed_total")
)

func init() {
	obs.Default.Help("rrr_hub_subscribers", "attached SSE signal-stream subscribers")
	obs.Default.Help("rrr_hub_published_total", "frames published to the SSE stream")
	obs.Default.Help("rrr_hub_dropped_total", "frames a subscriber lost because the stream log trimmed them before it read them")
	obs.Default.Help("rrr_snapshot_writes_total", "restart snapshots written successfully")
	obs.Default.Help("rrr_snapshot_write_errors_total", "snapshot write attempts that failed")
	obs.Default.Help("rrr_snapshot_write_seconds", "snapshot capture+encode+fsync+rename duration")
	obs.Default.Help("rrr_snapshot_last_bytes", "size of the most recently written snapshot")
	obs.Default.Help("rrr_snapshot_loads_total", "snapshots loaded from disk")
	obs.Default.Help("rrr_snapshot_load_seconds", "snapshot read+decode duration")
	obs.Default.Help("rrr_server_inflight", "data requests currently inside the handler tree")
	obs.Default.Help("rrr_server_shed_total", "requests shed by in-flight admission or spent deadlines")
}
