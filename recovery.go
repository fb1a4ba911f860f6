package rrr

// RecordLog receives every record the pipeline ingests, in merged
// ingestion order, before the record reaches the Monitor — plus window-
// close notifications so an on-window-close durability policy knows when
// to sync. *wal.WAL satisfies it (via the facade type aliases); a nil
// PipelineConfig.WAL disables logging. Append errors are fatal to the
// run: a monitor that advanced past records the log lost would recover
// into a different state than it served.
type RecordLog interface {
	AppendUpdate(Update) error
	AppendTrace(*Traceroute) error
	WindowClosed(ws int64) error
}

// ResumeState carries a recovery replay's outcome into RunPipeline: the
// open window's start (ResumeAll when nothing was replayed) and the open
// window's records in per-feed ingestion order. The pipeline seeds its
// positional replay matching from them, so when the reopened feeds
// re-deliver those records they are skipped instead of double-ingested —
// the same exactly-once mechanism a mid-run feed reopen uses.
type ResumeState struct {
	WindowStart int64
	Updates     []Update
	Traces      []*Traceroute
}

// RecoveryStats summarizes one recovery replay.
type RecoveryStats struct {
	// Updates/Traces were replayed into the monitor.
	Updates int
	Traces  int
	// Skipped records predated the snapshot watermark (the snapshot
	// already accounts for them).
	Skipped int
	// Windows were closed during replay; Signals were emitted by them.
	Windows int
	Signals int
}

// Recovery replays WAL records into a Monitor at startup, reproducing
// exactly what the pipeline did before the crash: each record goes through
// RunPipeline's own per-record step, so windows close where they closed
// live and every hook sees what it saw live — tapped records, signals, tap
// closes and window markers, in order. Records from before the monitor's
// restored window clock — covered by the snapshot that set it — are
// skipped, since re-observing them would double-count window contributions
// the snapshot already rolled up.
//
// Feed it via ObserveUpdate/ObserveTrace in log order, then call Finish
// for the ResumeState to hand RunPipeline. Recovery does not close the
// open window: the resumed pipeline continues it.
type Recovery struct {
	s         *ingest
	watermark int64 // ResumeAll without a restored window clock
	stats     RecoveryStats
}

// NewRecovery builds a replayer for m that delivers replayed windows'
// signals to sink (nil discards them — appropriate when no subscriber
// existed at crash time either). It is NewPipelineRecovery with only a
// Sink.
func NewRecovery(m *Monitor, sink func(Signal)) *Recovery {
	return NewPipelineRecovery(m, PipelineConfig{Sink: sink})
}

// NewPipelineRecovery builds a replayer for m that drives the hooks of the
// pipeline that wrote the log — cfg's Sink, Tap and OnWindowClose — as
// that pipeline did. cfg's other fields are not used. The snapshot
// watermark is read from m's window clock, so restore the snapshot (if
// any) before calling this.
func NewPipelineRecovery(m *Monitor, cfg PipelineConfig) *Recovery {
	r := &Recovery{watermark: ResumeAll}
	// The step reports each signal to Sink and each close to
	// OnWindowClose, so the replay counts them there.
	r.s = &ingest{m: m, window: m.WindowSec(), cfg: PipelineConfig{
		Sink: Tee(func(Signal) { r.stats.Signals++ }, cfg.Sink),
		Tap:  cfg.Tap,
		OnWindowClose: func(ws int64) {
			r.stats.Windows++
			if cfg.OnWindowClose != nil {
				cfg.OnWindowClose(ws)
			}
		},
	}}
	if start, opened := m.WindowClock(); opened {
		r.watermark = start
		r.s.resume(start, nil, nil)
	}
	return r
}

// ObserveUpdate replays one logged BGP update.
func (r *Recovery) ObserveUpdate(u Update) {
	if !r.skip(u.Time) {
		_ = r.s.update(u) // a replay has no WAL, so nothing can fail
		r.stats.Updates++
	}
}

// ObserveTrace replays one logged public traceroute.
func (r *Recovery) ObserveTrace(t *Traceroute) {
	if !r.skip(t.Time) {
		_ = r.s.trace(t) // a replay has no WAL, so nothing can fail
		r.stats.Traces++
	}
}

func (r *Recovery) skip(t int64) bool {
	if t < r.watermark {
		r.stats.Skipped++
		return true
	}
	return false
}

// Finish returns the resume state for RunPipeline and the replay stats.
func (r *Recovery) Finish() (*ResumeState, RecoveryStats) {
	return &ResumeState{
		WindowStart: r.s.openStart(),
		Updates:     append([]Update(nil), r.s.ups...),
		Traces:      append([]*Traceroute(nil), r.s.trs...),
	}, r.stats
}

// skipSource drops the leading records of a time-ordered source before a
// resume point, for sources (like the daemon's simulated feeds) that always
// regenerate from their beginning and have no Open(since) form.
type skipSource[T any] struct {
	src    interface{ Read() (T, error) }
	timeOf func(T) int64
	since  int64
	done   bool
}

func (s *skipSource[T]) Read() (T, error) {
	for {
		rec, err := s.src.Read()
		if err != nil {
			return rec, err
		}
		if s.done || s.timeOf(rec) >= s.since {
			s.done = true
			return rec, nil
		}
	}
}

// SkipUpdatesBefore returns src minus its records with Time < since.
func SkipUpdatesBefore(src UpdateSource, since int64) UpdateSource {
	return &skipSource[Update]{src: src, timeOf: func(u Update) int64 { return u.Time }, since: since}
}

// SkipTracesBefore returns src minus its traceroutes with Time < since.
func SkipTracesBefore(src TraceSource, since int64) TraceSource {
	return &skipSource[*Traceroute]{src: src, timeOf: func(t *Traceroute) int64 { return t.Time }, since: since}
}
