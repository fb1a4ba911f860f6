package feedwire

import "rrr/internal/obs"

// streamMetrics groups the per-stream connector instrumentation; one set
// per stream label ("updates" / "traces").
type streamMetrics struct {
	connects   *obs.Counter // successful dials+handshakes
	reconnects *obs.Counter // connects after the first (retry-driven reopens)
	frames     *obs.Counter // record frames decoded off the wire
	watermarks *obs.Counter // watermark frames decoded
	resumeGaps *obs.Counter // hello-acks admitting trimmed (lost) history
}

func newStreamMetrics(stream string) streamMetrics {
	return streamMetrics{
		connects:   obs.Default.Counter("rrr_feedwire_connects_total", "stream", stream),
		reconnects: obs.Default.Counter("rrr_feedwire_reconnects_total", "stream", stream),
		frames:     obs.Default.Counter("rrr_feedwire_frames_total", "stream", stream),
		watermarks: obs.Default.Counter("rrr_feedwire_watermarks_total", "stream", stream),
		resumeGaps: obs.Default.Counter("rrr_feedwire_resume_gaps_total", "stream", stream),
	}
}

func init() {
	obs.Default.Help("rrr_feedwire_connects_total", "Feed connections established (dial + handshake) per stream.")
	obs.Default.Help("rrr_feedwire_reconnects_total", "Feed connections re-established after the first, i.e. recoveries.")
	obs.Default.Help("rrr_feedwire_frames_total", "Record frames received over the feed wire per stream.")
	obs.Default.Help("rrr_feedwire_watermarks_total", "Watermark frames received over the feed wire per stream.")
	obs.Default.Help("rrr_feedwire_resume_gaps_total", "Reconnects whose resume point was past server retention (records lost).")
}
