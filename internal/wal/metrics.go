package wal

import "rrr/internal/obs"

// Metric handles for the WAL layer, resolved once at package init so the
// append hot path touches only atomics. Counters are cumulative across
// all WAL instances in the process; the segments gauge describes the most
// recently active log (the daemon runs exactly one).
var (
	metAppends       = obs.Default.Counter("rrr_wal_appends_total")
	metAppendBytes   = obs.Default.Counter("rrr_wal_append_bytes_total")
	metFsyncs        = obs.Default.Counter("rrr_wal_fsyncs_total")
	metSegments      = obs.Default.Gauge("rrr_wal_segments")
	metRotations     = obs.Default.Counter("rrr_wal_segment_rotations_total")
	metTruncations   = obs.Default.Counter("rrr_wal_tail_truncations_total")
	metReplayed      = obs.Default.Counter("rrr_wal_records_replayed_total")
	metCompacted     = obs.Default.Counter("rrr_wal_compacted_segments_total")
	metReplaySeconds = obs.Default.Histogram("rrr_wal_replay_seconds", nil)
)

func init() {
	obs.Default.Help("rrr_wal_appends_total", "feed records appended to the write-ahead log")
	obs.Default.Help("rrr_wal_append_bytes_total", "framed bytes appended to the write-ahead log")
	obs.Default.Help("rrr_wal_fsyncs_total", "fsync calls issued by the write-ahead log")
	obs.Default.Help("rrr_wal_segments", "segment files currently in the write-ahead log")
	obs.Default.Help("rrr_wal_segment_rotations_total", "segment rotations (active segment sealed, next one opened)")
	obs.Default.Help("rrr_wal_tail_truncations_total", "torn or corrupt final-segment tails truncated during recovery")
	obs.Default.Help("rrr_wal_records_replayed_total", "records read back from the log during recovery replay")
	obs.Default.Help("rrr_wal_compacted_segments_total", "sealed segments deleted because a snapshot watermark covered them")
	obs.Default.Help("rrr_wal_replay_seconds", "wall time of recovery replay passes over the log")
}
