package rrr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"rrr/internal/bgp"
)

// memLog is an in-memory RecordLog: it captures the merged ingestion order
// the pipeline would hand a real WAL, optionally failing on cue.
type memLog struct {
	recs      []memRec
	windows   []int64
	failAfter int // fail the append that would be number failAfter+1
	failErr   error
	windowErr error
}

type memRec struct {
	u  *Update
	tr *Traceroute
}

func (l *memLog) AppendUpdate(u Update) error {
	if l.failErr != nil && len(l.recs) >= l.failAfter {
		return l.failErr
	}
	l.recs = append(l.recs, memRec{u: &u})
	return nil
}

func (l *memLog) AppendTrace(t *Traceroute) error {
	if l.failErr != nil && len(l.recs) >= l.failAfter {
		return l.failErr
	}
	l.recs = append(l.recs, memRec{tr: t})
	return nil
}

func (l *memLog) WindowClosed(ws int64) error {
	l.windows = append(l.windows, ws)
	return l.windowErr
}

// logRun runs the clean pipeline with a capturing log and returns it.
func logRun(t *testing.T) *memLog {
	t.Helper()
	m, _ := recoveryMonitor(t)
	wlog := &memLog{}
	if err := RunPipeline(context.Background(), m, PipelineConfig{
		Updates: bgp.NewSliceSource(recoveryUpdates(t)),
		Sink:    func(Signal) {},
		WAL:     wlog,
	}); err != nil {
		t.Fatal(err)
	}
	return wlog
}

// TestRecoveryReplayResumesExactlyOnce is the heart of the crash story at
// the package-rrr level: for crash points throughout the log, replaying
// the logged prefix through Recovery and resuming the pipeline from the
// feed (re-covering the open window, positionally skipped) yields a signal
// stream and stale set identical to the uninterrupted run.
func TestRecoveryReplayResumesExactlyOnce(t *testing.T) {
	wantSigs, wantStale := cleanRecoveryRun(t)
	wlog := logRun(t)
	if len(wlog.recs) != 100 {
		t.Fatalf("log captured %d records, want the full 100-record feed", len(wlog.recs))
	}
	if len(wlog.windows) == 0 {
		t.Fatal("pipeline never notified the log of a window close")
	}

	for _, cut := range []int{1, 2, 17, 57, 89, 99, 100} {
		m, _ := recoveryMonitor(t)
		var sigs []Signal
		rec := NewRecovery(m, func(s Signal) { sigs = append(sigs, s) })
		for _, r := range wlog.recs[:cut] {
			if r.u != nil {
				rec.ObserveUpdate(*r.u)
			} else {
				rec.ObserveTrace(r.tr)
			}
		}
		resume, stats := rec.Finish()
		if stats.Updates != cut {
			t.Fatalf("cut %d: replay observed %d updates", cut, stats.Updates)
		}
		if stats.Skipped != 0 {
			t.Fatalf("cut %d: replay skipped %d records with no snapshot watermark", cut, stats.Skipped)
		}
		// The feed restarts from its beginning, as the daemon's simulated
		// feeds do; the skip wrapper fast-forwards to the open window and
		// the pipeline's positional replay drops the re-delivered records
		// the recovery already ingested.
		err := RunPipeline(context.Background(), m, PipelineConfig{
			Updates: SkipUpdatesBefore(bgp.NewSliceSource(recoveryUpdates(t)), resume.WindowStart),
			Sink:    func(s Signal) { sigs = append(sigs, s) },
			Resume:  resume,
		})
		if err != nil {
			t.Fatalf("cut %d: resumed pipeline: %v", cut, err)
		}
		if !reflect.DeepEqual(sigs, wantSigs) {
			t.Fatalf("cut %d: signal stream diverges from clean run:\n got  %v\n want %v", cut, sigs, wantSigs)
		}
		if !reflect.DeepEqual(m.StaleKeys(), wantStale) {
			t.Fatalf("cut %d: stale set = %v, want %v", cut, m.StaleKeys(), wantStale)
		}
	}
}

// hookLog records, in order, everything a pipeline's Sink, Tap and
// OnWindowClose receive.
type hookLog []string

func (l *hookLog) add(format string, args ...any) { *l = append(*l, fmt.Sprintf(format, args...)) }

func (l *hookLog) TapUpdate(u Update)      { l.add("tap update %d %s %v", u.Time, u.Prefix, u.ASPath) }
func (l *hookLog) TapTrace(tr *Traceroute) { l.add("tap trace %d %v", tr.Time, tr.Key()) }
func (l *hookLog) TapWindowClose(ws int64) { l.add("tap close %d", ws) }

func (l *hookLog) hooks() PipelineConfig {
	return PipelineConfig{
		Sink:          func(s Signal) { l.add("signal %s", s) },
		Tap:           l,
		OnWindowClose: func(ws int64) { l.add("marker %d", ws) },
	}
}

// TestReplayMatchesLiveHooks: replaying a WAL through the pipeline's hooks
// reproduces, for every window the replay closes, exactly what the live
// run that wrote the log handed them — tapped records, signals, tap closes
// and window markers, in order — and taps the open window's records as the
// live run did before it closed that window at end of feed.
func TestReplayMatchesLiveHooks(t *testing.T) {
	var pubs []*Traceroute
	for w := int64(1); w <= 50; w += 3 {
		pubs = append(pubs, trace(t, w*900+5, "9.0.0.1", "4.0.0.8", "9.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.8"))
	}
	var live hookLog
	cfg := live.hooks()
	cfg.Updates = bgp.NewSliceSource(recoveryUpdates(t))
	cfg.Traces = NewTraceSliceSource(pubs)
	wlog := &memLog{}
	cfg.WAL = wlog
	m, _ := recoveryMonitor(t)
	if err := RunPipeline(context.Background(), m, cfg); err != nil {
		t.Fatal(err)
	}

	var replayed hookLog
	m2, _ := recoveryMonitor(t)
	rec := NewPipelineRecovery(m2, replayed.hooks())
	for _, r := range wlog.recs {
		if r.u != nil {
			rec.ObserveUpdate(*r.u)
		} else {
			rec.ObserveTrace(r.tr)
		}
	}
	_, stats := rec.Finish()
	if stats.Traces != len(pubs) || stats.Signals == 0 || stats.Windows != len(wlog.windows)-1 {
		t.Fatalf("replay stats %+v: want %d traces, some signals and all %d windows but the open one",
			stats, len(pubs), len(wlog.windows))
	}
	if markers := strings.Count(strings.Join(replayed, "\n"), "marker "); markers != stats.Windows {
		t.Fatalf("replay closed %d windows but published %d markers", stats.Windows, markers)
	}
	for i := range replayed {
		if i >= len(live) || replayed[i] != live[i] {
			t.Fatalf("hook call %d of %d: replay %q, live %q", i, len(replayed), replayed[i], live[min(i, len(live)-1)])
		}
	}
	if tail := live[len(replayed):]; len(tail) == 0 || !strings.HasPrefix(tail[0], "signal ") && !strings.HasPrefix(tail[0], "tap close ") {
		t.Fatalf("live run continues with %q after the replayed prefix, want the open window's close", tail)
	}
}

// TestRecoverySkipsSnapshotCovered: records before a restored snapshot's
// open window are already rolled into the monitor; replaying them again
// would double-count, so Recovery counts and drops them.
func TestRecoverySkipsSnapshotCovered(t *testing.T) {
	wlog := logRun(t)

	// Run the first 40 windows and snapshot there.
	src, _ := recoveryMonitor(t)
	for _, r := range wlog.recs {
		if r.u != nil && r.u.Time < 40*900 {
			src.ObserveBGP(*r.u)
		}
	}
	src.Advance(40 * 900) // close windows up to the snapshot point
	snap := src.Snapshot()
	if !snap.Opened {
		t.Fatal("snapshot monitor never opened a window")
	}

	m, _ := recoveryMonitor(t)
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	rec := NewRecovery(m, nil)
	for _, r := range wlog.recs {
		if r.u != nil {
			rec.ObserveUpdate(*r.u)
		} else {
			rec.ObserveTrace(r.tr)
		}
	}
	resume, stats := rec.Finish()
	if stats.Skipped == 0 {
		t.Fatal("no records skipped below the snapshot watermark")
	}
	if stats.Updates+stats.Skipped != 100 {
		t.Fatalf("replayed %d + skipped %d != 100 logged records", stats.Updates, stats.Skipped)
	}
	wmStart, opened := src.WindowClock()
	if !opened {
		t.Fatal("source monitor lost its window clock")
	}
	if resume.WindowStart != 50*900 {
		t.Fatalf("resume window start = %d, want the final open window %d", resume.WindowStart, 50*900)
	}
	if wmStart >= resume.WindowStart {
		t.Fatalf("replay did not advance past the snapshot watermark (%d -> %d)", wmStart, resume.WindowStart)
	}
}

// TestPipelineWALAppendErrorFatal: a log that stops accepting records
// kills the run — continuing would let the monitor advance past records
// recovery could never replay — but the open window still drains.
func TestPipelineWALAppendErrorFatal(t *testing.T) {
	m, _ := recoveryMonitor(t)
	diskErr := errors.New("wal device gone")
	wlog := &memLog{failAfter: 30, failErr: diskErr}
	var sigs []Signal
	err := RunPipeline(context.Background(), m, PipelineConfig{
		Updates: bgp.NewSliceSource(recoveryUpdates(t)),
		Sink:    func(s Signal) { sigs = append(sigs, s) },
		WAL:     wlog,
	})
	if err == nil || !errors.Is(err, diskErr) {
		t.Fatalf("err = %v; want the wal append failure", err)
	}
	if !strings.Contains(err.Error(), "wal append") {
		t.Fatalf("err = %v; want it attributed to the wal tee", err)
	}
	if len(wlog.recs) != 30 {
		t.Fatalf("log holds %d records, want exactly the 30 accepted before the failure", len(wlog.recs))
	}
}

// TestPipelineWALWindowSyncErrorFatal: a failing window-close sync also
// surfaces — acknowledged durability that silently stopped being durable
// is the worst failure mode a WAL can have.
func TestPipelineWALWindowSyncErrorFatal(t *testing.T) {
	m, _ := recoveryMonitor(t)
	syncErr := errors.New("fsync: input/output error")
	err := RunPipeline(context.Background(), m, PipelineConfig{
		Updates: bgp.NewSliceSource(recoveryUpdates(t)),
		Sink:    func(Signal) {},
		WAL:     &memLog{windowErr: syncErr},
	})
	if err == nil || !errors.Is(err, syncErr) {
		t.Fatalf("err = %v; want the window sync failure", err)
	}
	if !strings.Contains(err.Error(), "wal window sync") {
		t.Fatalf("err = %v; want it attributed to the window sync", err)
	}
}

// TestSkipSourcesDropOnlyLeadingPrefix: the resume wrappers drop records
// before the resume point but only as a leading prefix — once a record
// passes, later out-of-order records flow through untouched (the pipeline
// owns ordering decisions, not the wrapper).
func TestSkipSourcesDropOnlyLeadingPrefix(t *testing.T) {
	ups := []Update{
		announceUpd(t, 100, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 4}),
		announceUpd(t, 900, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 4}),
		announceUpd(t, 450, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 4}), // late, but past the prefix
	}
	src := SkipUpdatesBefore(bgp.NewSliceSource(ups), 900)
	var times []int64
	for {
		u, err := src.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, u.Time)
	}
	if !reflect.DeepEqual(times, []int64{900, 450}) {
		t.Fatalf("skipped source delivered %v, want [900 450]", times)
	}

	ts := SkipTracesBefore(&sliceTraceSource{traces: []*Traceroute{
		trace(t, 100, "1.0.0.1", "4.0.0.9", "2.0.0.1"),
		trace(t, 1000, "1.0.0.1", "4.0.0.9", "2.0.0.1"),
	}}, 900)
	tr, err := ts.Read()
	if err != nil || tr.Time != 1000 {
		t.Fatalf("trace skip: got %v, %v; want the t=1000 trace", tr, err)
	}
	if _, err := ts.Read(); err != io.EOF {
		t.Fatalf("trace skip: err = %v, want EOF", err)
	}
}

type sliceTraceSource struct {
	traces []*Traceroute
	i      int
}

func (s *sliceTraceSource) Read() (*Traceroute, error) {
	if s.i >= len(s.traces) {
		return nil, io.EOF
	}
	t := s.traces[s.i]
	s.i++
	return t, nil
}

// TestRestoreAllOrNothing: a snapshot holding one unprocessable trace (an
// AS loop the snapshotting mapper never saw), or a signal count for a
// technique that does not exist, must leave the target monitor exactly as
// it was — no partial corpus, no counters.
func TestRestoreAllOrNothing(t *testing.T) {
	good := trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	looped := trace(t, 0, "1.0.0.1", "9.0.0.9", "2.0.0.1", "3.0.0.1", "2.0.0.2", "9.0.0.9")

	m := newTestMonitor(t)
	snap := &MonitorSnapshot{
		WindowSec: m.WindowSec(),
		Traces:    []*Traceroute{good, looped},
		Cur:       900,
		Opened:    true,
		SignalCounts: map[Technique]int{
			TechBGPASPath: 3,
		},
		WindowsClosed: 7,
	}
	err := m.Restore(snap)
	if err == nil {
		t.Fatal("restore of a snapshot with an AS-loop trace succeeded")
	}
	if !strings.Contains(err.Error(), looped.Key().String()) {
		t.Fatalf("err = %v; want it to name the failing pair", err)
	}
	if got := m.Tracked(); len(got) != 0 {
		t.Fatalf("failed restore left %d pairs tracked: %v", len(got), got)
	}
	if n := m.WindowsClosed(); n != 0 {
		t.Fatalf("failed restore bumped WindowsClosed to %d", n)
	}
	for tech, n := range m.Counts().Signals {
		if n != 0 {
			t.Fatalf("failed restore installed a %s count of %d", Technique(tech), n)
		}
	}
	if _, opened := m.WindowClock(); opened {
		t.Fatal("failed restore advanced the window clock")
	}

	snap.Traces = []*Traceroute{good}
	snap.SignalCounts[Technique(99)] = 1
	if err := m.Restore(snap); err == nil || !strings.Contains(err.Error(), "unknown technique 99") {
		t.Fatalf("restore of a count for technique 99: err = %v", err)
	}
	if c := m.Counts(); c.Tracked != 0 || c.WindowsClosed != 0 || c.Signals[TechBGPASPath] != 0 {
		t.Fatalf("failed restore left %+v", c)
	}

	// The same monitor then accepts a clean snapshot: nothing was wedged.
	delete(snap.SignalCounts, Technique(99))
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := m.Tracked(); len(got) != 1 {
		t.Fatalf("clean restore tracked %d pairs, want 1", len(got))
	}
}
