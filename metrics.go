package rrr

import "rrr/internal/obs"

// Metric handles for the facade layer (Pipeline and Monitor), resolved
// once at package init so the ingestion hot path touches only atomics.
// Everything lands in obs.Default, which cmd/rrrd serves at GET /metrics.
//
// Gauges describe the most recently constructed Monitor/Pipeline in the
// process — the daemon deployment shape — while counters are cumulative
// across all instances (multiple monitors in one test binary share them).
var (
	metPipeUpdates     = obs.Default.Counter("rrr_pipeline_updates_total")
	metPipeTraces      = obs.Default.Counter("rrr_pipeline_traces_total")
	metPipeWindows     = obs.Default.Counter("rrr_pipeline_windows_closed_total")
	metPipeUpdateQueue = obs.Default.Gauge("rrr_pipeline_update_queue_depth")
	metPipeTraceQueue  = obs.Default.Gauge("rrr_pipeline_trace_queue_depth")
	metPipeStall       = obs.Default.Histogram("rrr_pipeline_merge_stall_seconds", nil)
	metPipeErrBGP      = obs.Default.Counter("rrr_pipeline_feed_errors_total", "feed", "bgp")
	metPipeErrTrace    = obs.Default.Counter("rrr_pipeline_feed_errors_total", "feed", "traceroute")

	metFeedBGP   = newFeedMetrics("bgp")
	metFeedTrace = newFeedMetrics("traceroute")

	metMonTracked   = obs.Default.Gauge("rrr_monitor_tracked_pairs")
	metMonStale     = obs.Default.Gauge("rrr_monitor_stale_pairs")
	metMonWindows   = obs.Default.Counter("rrr_monitor_windows_closed_total")
	metMonRefreshes = obs.Default.Counter("rrr_monitor_refreshes_total")

	// metMonSignals is indexed by Technique (values 0..5), one labeled
	// series per row of the paper's Table 2.
	metMonSignals = func() []*obs.Counter {
		techs := []Technique{
			TechBGPASPath, TechBGPCommunity, TechBGPBurst,
			TechTraceSubpath, TechTraceBorder, TechIXPMembership,
		}
		out := make([]*obs.Counter, len(techs))
		for _, t := range techs {
			out[int(t)] = obs.Default.Counter("rrr_monitor_signals_total", "technique", t.String())
		}
		return out
	}()
)

// feedMetrics groups the per-feed supervisor counters introduced with the
// self-healing pipeline: reopen attempts, faults fully absorbed (recovery
// completed with no duplicated or dropped signals), feeds declared dead,
// plus the absorption machinery's own accounting (adjacent duplicates
// dropped, records skipped as already-ingested replay during a
// window-aligned resume).
type feedMetrics struct {
	retries  *obs.Counter
	absorbed *obs.Counter
	dead     *obs.Counter
	dups     *obs.Counter
	replayed *obs.Counter
	up       *obs.Gauge
}

func newFeedMetrics(feed string) *feedMetrics {
	return &feedMetrics{
		retries:  obs.Default.Counter("rrr_pipeline_feed_retries_total", "feed", feed),
		absorbed: obs.Default.Counter("rrr_pipeline_faults_absorbed_total", "feed", feed),
		dead:     obs.Default.Counter("rrr_pipeline_feeds_dead_total", "feed", feed),
		dups:     obs.Default.Counter("rrr_pipeline_dup_records_dropped_total", "feed", feed),
		replayed: obs.Default.Counter("rrr_pipeline_replayed_records_total", "feed", feed),
		up:       obs.Default.Gauge("rrr_pipeline_feed_up", "feed", feed),
	}
}

func init() {
	obs.Default.Help("rrr_pipeline_feed_retries_total", "feed reopen attempts by the pipeline supervisor")
	obs.Default.Help("rrr_pipeline_faults_absorbed_total", "feed failures fully recovered from: the feed resumed and the open window replay matched exactly")
	obs.Default.Help("rrr_pipeline_feeds_dead_total", "feeds abandoned after exhausting the retry budget or failing permanently")
	obs.Default.Help("rrr_pipeline_dup_records_dropped_total", "adjacent byte-identical records dropped by transport-level dedup")
	obs.Default.Help("rrr_pipeline_replayed_records_total", "already-ingested records skipped during window-aligned resume replay")
	obs.Default.Help("rrr_pipeline_feed_up", "1 while the feed is delivering records, 0 once it ended or died")
	obs.Default.Help("rrr_pipeline_updates_total", "BGP updates consumed by the pipeline merge loop")
	obs.Default.Help("rrr_pipeline_traces_total", "public traceroutes consumed by the pipeline merge loop")
	obs.Default.Help("rrr_pipeline_windows_closed_total", "signal windows closed by the pipeline (boundary, drain, and final closes)")
	obs.Default.Help("rrr_pipeline_update_queue_depth", "decoded BGP updates the merge loop took from the feed's hand-off queue at its last take (0 once the feed ended)")
	obs.Default.Help("rrr_pipeline_trace_queue_depth", "decoded traceroutes the merge loop took from the feed's hand-off queue at its last take (0 once the feed ended)")
	obs.Default.Help("rrr_pipeline_merge_stall_seconds", "time the merge loop spent blocked waiting on an empty feed queue")
	obs.Default.Help("rrr_pipeline_feed_errors_total", "feed decode errors that terminated a pipeline run")
	obs.Default.Help("rrr_monitor_tracked_pairs", "corpus pairs currently tracked by the monitor")
	obs.Default.Help("rrr_monitor_stale_pairs", "tracked pairs with active (unrevoked) staleness signals")
	obs.Default.Help("rrr_monitor_windows_closed_total", "signal-generation windows the monitor has closed")
	obs.Default.Help("rrr_monitor_refreshes_total", "fresh measurements recorded via RecordRefresh")
	obs.Default.Help("rrr_monitor_signals_total", "staleness prediction signals emitted, by technique")
}

// recordSignalMetrics bumps the per-technique counters for one window's
// signal batch.
func recordSignalMetrics(sigs []Signal) {
	for i := range sigs {
		if t := int(sigs[i].Technique); t >= 0 && t < len(metMonSignals) {
			metMonSignals[t].Inc()
		}
	}
}

// floorDiv divides rounding toward negative infinity, so pre-epoch
// (negative) timestamps land in the window that contains them instead of
// the one truncating division would pick. b must be positive.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}
