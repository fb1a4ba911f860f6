package rrr

// HandoffCap is the most records the merge loop takes from a feed in one
// hand-off batch.
const HandoffCap = handoffCap

// IngestStep is RunPipeline's ingest step, for the tests outside the
// package: no WAL, no pipeline metrics.
type IngestStep struct{ s *ingest }

// NewIngestStep builds the step over m, tapping every record and close to
// tap.
func NewIngestStep(m *Monitor, tap RecordTap) IngestStep {
	return IngestStep{&ingest{m: m, cfg: PipelineConfig{Tap: tap}, window: m.WindowSec()}}
}

// Update ingests the run at the head of ups, a hand-off batch whose next
// trace is at until, as the merge loop does, and returns the run's length.
func (st IngestStep) Update(ups []Update, until int64) int {
	n, _ := st.s.update(ups, until) // no WAL, so nothing can fail
	return n
}

// Trace ingests one traceroute.
func (st IngestStep) Trace(t *Traceroute) {
	_ = st.s.trace(t)
}
