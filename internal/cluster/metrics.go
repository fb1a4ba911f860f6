package cluster

import "rrr/internal/obs"

// Router/cluster metric handles, resolved once at package init and served
// by the router's GET /metrics alongside the engine families.
var (
	metRouterRequests   = obs.Default.Counter("rrr_router_requests_total")
	metRouterFanout     = obs.Default.Counter("rrr_router_fanout_total")
	metRouterRetries    = obs.Default.Counter("rrr_router_retries_total")
	metRouterWorkerErrs = obs.Default.Counter("rrr_router_worker_errors_total")
	metRouterPartial    = obs.Default.Counter("rrr_router_partial_responses_total")

	metRouterFailovers    = obs.Default.Counter("rrr_router_failovers_total")
	metRouterBreakerOpens = obs.Default.Counter("rrr_router_breaker_opens_total")
	metRouterShed         = obs.Default.Counter("rrr_router_shed_total")
	metRouterInflight     = obs.Default.Gauge("rrr_router_inflight")

	metClusterStreamSignals    = obs.Default.Counter("rrr_cluster_stream_signals_total")
	metClusterStreamRouting    = obs.Default.Counter("rrr_cluster_stream_routing_total")
	metClusterStreamWindows    = obs.Default.Counter("rrr_cluster_stream_windows_total")
	metClusterStreamGaps       = obs.Default.Counter("rrr_cluster_stream_gaps_total")
	metClusterStreamLate       = obs.Default.Counter("rrr_cluster_stream_late_dropped_total")
	metClusterWorkerConnected  = obs.Default.Gauge("rrr_cluster_workers_connected")
	metClusterStreamReconnects = obs.Default.Counter("rrr_cluster_stream_reconnects_total")
)

func init() {
	obs.Default.Help("rrr_router_requests_total", "client requests handled by the cluster router")
	obs.Default.Help("rrr_router_fanout_total", "worker sub-requests issued by the router")
	obs.Default.Help("rrr_router_retries_total", "worker sub-requests retried after a first failure")
	obs.Default.Help("rrr_router_worker_errors_total", "worker sub-requests that failed after retry")
	obs.Default.Help("rrr_router_partial_responses_total", "responses served with unavailablePartitions set")
	obs.Default.Help("rrr_router_failovers_total", "key-routed sub-requests served by a standby replica")
	obs.Default.Help("rrr_router_breaker_opens_total", "circuit breakers opened by consecutive worker failures")
	obs.Default.Help("rrr_router_breaker_state", "per-worker breaker state (0=closed 1=open 2=half-open)")
	obs.Default.Help("rrr_router_shed_total", "router requests shed by in-flight admission")
	obs.Default.Help("rrr_router_inflight", "router requests currently in flight")
	obs.Default.Help("rrr_cluster_stream_signals_total", "signals merged into the router's SSE stream")
	obs.Default.Help("rrr_cluster_stream_routing_total", "routing events merged into the router's SSE stream")
	obs.Default.Help("rrr_cluster_stream_windows_total", "window barriers flushed by the stream merger")
	obs.Default.Help("rrr_cluster_stream_gaps_total", "stream discontinuities surfaced after worker reconnects")
	obs.Default.Help("rrr_cluster_stream_late_dropped_total", "worker frames dropped unmerged: cut streams, windows flushed before their stream attached, worker-side drops")
	obs.Default.Help("rrr_cluster_workers_connected", "worker SSE streams currently connected")
	obs.Default.Help("rrr_cluster_stream_reconnects_total", "worker SSE stream reconnect attempts")
}
