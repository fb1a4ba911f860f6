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
// exactly what the pipeline did before the crash: records advance the
// window clock (closing windows and emitting their signals to sink) and
// are observed in log order. Records from before the monitor's restored
// window clock — covered by the snapshot that set it — are skipped, since
// re-observing them would double-count window contributions the snapshot
// already rolled up.
//
// Feed it via ObserveUpdate/ObserveTrace in log order, then call Finish
// for the ResumeState to hand RunPipeline. Recovery does not close the
// open window: the resumed pipeline continues it.
type Recovery struct {
	m    *Monitor
	sink func(Signal)
	clk  windowClock

	watermark int64
	haveWM    bool

	ups   []Update
	trs   []*Traceroute
	stats RecoveryStats
}

// NewRecovery builds a replayer for m. The snapshot watermark is read
// from m's window clock, so restore the snapshot (if any) before calling
// this. sink receives replayed windows' signals (nil discards them —
// appropriate when no subscriber existed at crash time either).
func NewRecovery(m *Monitor, sink func(Signal)) *Recovery {
	r := &Recovery{m: m, sink: sink, clk: windowClock{window: m.WindowSec()}}
	if start, opened := m.WindowClock(); opened {
		r.watermark, r.haveWM = start, true
		r.clk.resume(start)
	}
	return r
}

// ObserveUpdate replays one logged BGP update.
func (r *Recovery) ObserveUpdate(u Update) {
	if r.skip(u.Time) {
		return
	}
	r.advanceTo(u.Time)
	r.m.ObserveBGP(u)
	r.ups = append(r.ups, u)
	r.stats.Updates++
}

// ObserveTrace replays one logged public traceroute.
func (r *Recovery) ObserveTrace(t *Traceroute) {
	if r.skip(t.Time) {
		return
	}
	r.advanceTo(t.Time)
	r.m.ObservePublic(t)
	r.trs = append(r.trs, t)
	r.stats.Traces++
}

func (r *Recovery) skip(t int64) bool {
	if r.haveWM && t < r.watermark {
		r.stats.Skipped++
		return true
	}
	return false
}

// advanceTo closes the windows t leaves behind and, once a boundary has
// completed them, clears the open-window record buffers.
func (r *Recovery) advanceTo(t int64) {
	if r.clk.advanceTo(t, r.closeWindow) {
		r.ups = r.ups[:0]
		r.trs = r.trs[:0]
	}
}

func (r *Recovery) closeWindow(ws int64) {
	sigs := r.m.CloseWindow(ws)
	r.stats.Windows++
	r.stats.Signals += len(sigs)
	if r.sink != nil {
		for _, s := range sigs {
			r.sink(s)
		}
	}
}

// Finish returns the resume state for RunPipeline and the replay stats.
func (r *Recovery) Finish() (*ResumeState, RecoveryStats) {
	return &ResumeState{
		WindowStart: r.clk.openStart(),
		Updates:     append([]Update(nil), r.ups...),
		Traces:      append([]*Traceroute(nil), r.trs...),
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
