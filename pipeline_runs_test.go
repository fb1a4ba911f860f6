package rrr

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"rrr/internal/bgp"
	"rrr/internal/obs"
)

// engineObs counts the updates and traces engines have observed (the
// core package's counter; the test runs one monitor at a time).
var engineObs = obs.Default.Counter("rrr_engine_observations_total")

// runsWindow is how many updates runsStream puts in each window.
const runsWindow = 65

// runsStream is 50 windows of updates and traces for the run tests. Each
// window carries recoveryUpdates' two routes into the tracked pair (VP 5's
// path shifts at window 45, so signals fire), then two updates tied with
// the window's first trace (one of them a /25, which the engine filters),
// then 60 updates of VP 7 over eight /24s and their /25 halves with path
// flaps and withdrawals. The first of those starts a run tied with the
// window's second trace; the 31st ties with the third trace and is
// followed by a second update at that time. Every update carries its
// index in MED and every trace its index in ProbeID.
func runsStream(t *testing.T) ([]Update, []*Traceroute) {
	t.Helper()
	var ups []Update
	var trs []*Traceroute
	add := func(u Update) {
		u.MED = uint32(len(ups))
		ups = append(ups, u)
	}
	for w := int64(1); w <= 50; w++ {
		b := w * 900
		add(announceUpd(t, b+3, "6.0.0.9", 6, "4.0.0.0/8", []ASN{6, 3, 4}))
		path := []ASN{5, 2, 3, 4}
		if w >= 45 {
			path = []ASN{5, 2, 9, 4}
		}
		add(announceUpd(t, b+7, "5.0.0.9", 5, "4.0.0.0/8", path))
		add(announceUpd(t, b+11, "7.0.0.9", 7, "10.0.0.0/16", []ASN{7, 8, 4}))
		add(announceUpd(t, b+11, "7.0.0.9", 7, "10.0.1.0/25", []ASN{7, 8}))
		pubs := trace(t, b+11, "9.0.0.1", "4.0.0.8", "9.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.2", "4.0.0.8")
		pubs.ProbeID = len(trs)
		trs = append(trs, pubs)
		for f := int64(0); f < 60; f++ {
			tm := b + 20 + 13*f
			pf := fmt.Sprintf("10.0.%d.0/24", 2+f%8)
			if f%7 == 3 {
				pf = fmt.Sprintf("10.0.%d.128/25", 2+f%8)
			}
			hop := ASN(8 + (w+f)%3)
			u := announceUpd(t, tm, "7.0.0.9", 7, pf, []ASN{7, hop, 4})
			if f%5 == 4 {
				u.Type, u.ASPath = bgp.Withdraw, nil
			}
			add(u)
			if f == 30 {
				add(announceUpd(t, tm, "7.0.0.9", 7, "10.0.9.0/24", []ASN{7, hop, 4}))
			}
			if f == 0 || f == 30 {
				tie := trace(t, tm, "9.0.0.3", "10.0.2.7", "9.0.0.4", "7.0.0.1", "8.0.0.1", "10.0.2.7")
				tie.ProbeID = len(trs)
				trs = append(trs, tie)
			}
		}
	}
	if len(ups) != 50*runsWindow {
		t.Fatalf("stream has %d updates, want %d", len(ups), 50*runsWindow)
	}
	return ups, trs
}

// runLog is everything a run shows outside the monitor: the records and
// closes its tap saw, what its log was asked to append and close, the
// engine observation count at each logged update, the signals its sink
// got, and the monitor's window clock and stale pairs after it.
type runLog struct {
	tap, wal []string
	obs      []uint64
	sigs     []Signal
	clock    int64
	opened   bool
	stale    []Key
	err      error
}

// logTap is a RecordTap into a runLog; gate, when set, runs first on each
// update.
type logTap struct {
	lg   *runLog
	gate func(Update)
}

func (l logTap) TapUpdate(u Update) {
	if l.gate != nil {
		l.gate(u)
	}
	l.lg.tap = append(l.lg.tap, fmt.Sprintf("u%d", u.MED))
}
func (l logTap) TapTrace(t *Traceroute) { l.lg.tap = append(l.lg.tap, fmt.Sprintf("t%d", t.ProbeID)) }
func (l logTap) TapWindowClose(ws int64) {
	l.lg.tap = append(l.lg.tap, fmt.Sprintf("c%d", ws))
}

// errAppend is the injected log failure.
var errAppend = errors.New("injected append failure")

// logWAL is a RecordLog into a runLog that fails the append of update
// failAt (-1: none), counting engine observations from base.
type logWAL struct {
	lg     *runLog
	failAt int
	base   uint64
}

func (w logWAL) AppendUpdate(u Update) error {
	if int(u.MED) == w.failAt {
		return errAppend
	}
	w.lg.wal = append(w.lg.wal, fmt.Sprintf("u%d", u.MED))
	w.lg.obs = append(w.lg.obs, engineObs.Value()-w.base)
	return nil
}

func (w logWAL) AppendTrace(t *Traceroute) error {
	w.lg.wal = append(w.lg.wal, fmt.Sprintf("t%d", t.ProbeID))
	return nil
}

func (w logWAL) WindowClosed(ws int64) error {
	w.lg.wal = append(w.lg.wal, fmt.Sprintf("c%d", ws))
	return nil
}

// finish records the monitor's state after a run.
func (lg *runLog) finish(m *Monitor, err error) *runLog {
	lg.clock, lg.opened = m.WindowClock()
	lg.stale = m.StaleKeys()
	lg.err = err
	return lg
}

// serialRuns is the oracle: the stream merged by timestamp (updates first
// on ties) and fed one record at a time — log, advance the clock closing
// each window it leaves, tap, observe — until the log fails update failAt
// (-1: never), then the open window closed.
func serialRuns(t *testing.T, ups []Update, trs []*Traceroute, failAt int) *runLog {
	m, _ := recoveryMonitor(t)
	lg := &runLog{}
	wal := logWAL{lg: lg, failAt: failAt, base: engineObs.Value()}
	tap := logTap{lg: lg}
	var idx int64
	started := false
	win := m.WindowSec()
	closeWin := func(ws int64) {
		lg.sigs = append(lg.sigs, m.CloseWindow(ws)...)
		_ = wal.WindowClosed(ws)
		tap.TapWindowClose(ws)
	}
	advance := func(tm int64) {
		i := floorDiv(tm, win)
		if !started {
			started, idx = true, i
		}
		for ; idx < i; idx++ {
			closeWin(idx * win)
		}
	}
	var err error
	for i, j := 0, 0; i < len(ups) || j < len(trs); {
		if i < len(ups) && (j == len(trs) || ups[i].Time <= trs[j].Time) {
			u := ups[i]
			i++
			if err = wal.AppendUpdate(u); err != nil {
				break
			}
			advance(u.Time)
			tap.TapUpdate(u)
			m.ObserveBGP(u)
			continue
		}
		tr := trs[j]
		j++
		_ = wal.AppendTrace(tr)
		advance(tr.Time)
		tap.TapTrace(tr)
		m.ObservePublic(tr)
	}
	if started {
		closeWin(idx * win)
	}
	return lg.finish(m, err)
}

// runsPipeline runs the stream through RunPipeline. The tap holds update
// gate until the reader has queued the next handoffCap updates, so the
// merge loop's next batch is exactly those. transientAt (-1: never) breaks
// the update feed with a transient error; its reopen is held so that the
// replay of the open window ends in the middle of a batch. failAt is the
// update the log fails.
func runsPipeline(t *testing.T, ups []Update, trs []*Traceroute, gate, transientAt, failAt int) (*runLog, *PipelineHealth) {
	m, _ := recoveryMonitor(t)
	lg := &runLog{}
	var pos atomic.Int64

	// The gate: the reader cannot read past gate before the tap has it,
	// and the tap holds it until the reader asks for the update after a
	// full queue of handoffCap more.
	tappedGate, queueFull := make(chan struct{}), make(chan struct{})
	fullAt := min(gate+1+handoffCap, len(ups))
	direct := &gatedUpdates{recs: ups, failAt: transientAt, pos: &pos, before: func(i int) {
		switch i {
		case gate + 1:
			await(t, tappedGate, "the tap to see the gate update")
		case fullAt:
			close(queueFull)
		}
	}}
	tap := logTap{lg: lg, gate: func(u Update) {
		if int(u.MED) == gate {
			close(tappedGate)
			await(t, queueFull, "the reader to fill its queue")
		}
	}}

	// The reopen: the reopened reader holds the health registry's lock
	// from its first update on, so the merge loop, which takes that update
	// alone, stalls on replaying it until the reader has queued the rest
	// of the replay and 30 updates past it. The merge loop's next batch
	// holds the replay's end and the first updates after it.
	health := NewPipelineHealth()
	open := func(since int64) (UpdateSource, error) {
		lo := sort.Search(len(ups), func(i int) bool { return ups[i].Time >= since })
		return &gatedUpdates{recs: ups, i: lo, failAt: -1, pos: &pos, before: func(i int) {
			switch i {
			case lo:
				health.mu.Lock()
			case lo + 1:
				deadline := time.Now().Add(10 * time.Second)
				for metPipeUpdateQueue.Value() != 1 && time.Now().Before(deadline) {
					time.Sleep(100 * time.Microsecond)
				}
				if metPipeUpdateQueue.Value() != 1 {
					t.Errorf("the merge loop took %d updates first after the reopen, want 1", metPipeUpdateQueue.Value())
				}
			case transientAt + 30:
				health.mu.Unlock()
			}
		}}, nil
	}

	err := RunPipeline(context.Background(), m, PipelineConfig{
		Updates:     direct,
		OpenUpdates: open,
		Traces:      NewTraceSliceSource(trs),
		Sink:        func(s Signal) { lg.sigs = append(lg.sigs, s) },
		WAL:         logWAL{lg: lg, failAt: failAt, base: engineObs.Value()},
		Tap:         tap,
		Health:      health,
		Retry:       RetryPolicy{MaxRetries: 2, Backoff: time.Microsecond},
	})
	return lg.finish(m, err), health
}

// TestPipelineRunsMatchSerial holds the merge loop's runs to a serial
// per-record loop. Each pipeline run has a gated hand-off batch of
// handoffCap updates spanning several windows, each with a trace tied
// with updates. The first run breaks its update feed mid-window and
// replays the open window's prefix with the replay ending mid-batch; the
// second fails its log in the middle of a run. The tap sequence, the
// signals, the log's contents, the window clock and the stale pairs must
// be the serial loop's, and no update may be observed before it is
// logged, though runs do observe updates later than the serial loop.
func TestPipelineRunsMatchSerial(t *testing.T) {
	ups, trs := runsStream(t)
	same := func(t *testing.T, got, want *runLog) {
		t.Helper()
		if !reflect.DeepEqual(got.tap, want.tap) {
			t.Errorf("tap saw %d events, serial %d; first difference at %d", len(got.tap), len(want.tap), firstDiff(got.tap, want.tap))
		}
		if !reflect.DeepEqual(got.wal, want.wal) {
			t.Errorf("log got %d events, serial %d; first difference at %d", len(got.wal), len(want.wal), firstDiff(got.wal, want.wal))
		}
		if !reflect.DeepEqual(got.sigs, want.sigs) {
			t.Errorf("sink got %d signals, serial %d, or not the same", len(got.sigs), len(want.sigs))
		}
		if got.clock != want.clock || got.opened != want.opened {
			t.Errorf("window clock (%d, %v), serial (%d, %v)", got.clock, got.opened, want.clock, want.opened)
		}
		if !reflect.DeepEqual(got.stale, want.stale) {
			t.Errorf("stale pairs %v, serial %v", got.stale, want.stale)
		}
		// A record is logged before the monitor observes any of its run,
		// so at each logged update the engine has observed at most what
		// the serial loop had.
		later := 0
		for i := range min(len(got.obs), len(want.obs)) {
			if got.obs[i] > want.obs[i] {
				t.Fatalf("logged update %d with %d records observed, serial %d: observed before logged", i, got.obs[i], want.obs[i])
			}
			if got.obs[i] < want.obs[i] {
				later++
			}
		}
		if later == 0 {
			t.Errorf("every update was observed as soon as it was logged: no run had more than one update")
		}
		t.Logf("%d signals, %d stale pairs, %d log events; %d of %d updates logged while earlier ones of their run were unobserved",
			len(got.sigs), len(got.stale), len(got.wal), later, len(got.obs))
	}

	t.Run("reopen replay ends mid-batch", func(t *testing.T) {
		// The gated batch is updates 1..512 (windows 1 to 8); the feed
		// breaks 40 updates into window 20.
		const transientAt = 19*runsWindow + 40
		want := serialRuns(t, ups, trs, -1)
		if len(want.sigs) == 0 || len(want.stale) == 0 {
			t.Fatal("the serial run raised no signal; the comparison would be vacuous")
		}
		got, health := runsPipeline(t, ups, trs, 0, transientAt, -1)
		if got.err != nil {
			t.Fatal(got.err)
		}
		same(t, got, want)
		for _, fh := range health.Snapshot() {
			if fh.Feed == "bgp" && (fh.Retries != 1 || fh.Replayed != 40 || fh.Absorbed != 1) {
				t.Errorf("bgp feed health %+v, want 1 retry and 40 updates replayed, absorbed", fh)
			}
		}
	})

	t.Run("log fails mid-run", func(t *testing.T) {
		// The gated batch is windows 44 to 50. In window 45 a run starts
		// after the second trace, at the window's sixth update; the log
		// fails the run's tenth.
		const gate, failAt = 43*runsWindow - 1, 44*runsWindow + 4 + 10
		want := serialRuns(t, ups, trs, failAt)
		if !errors.Is(want.err, errAppend) {
			t.Fatalf("serial run ended with %v, want the injected failure", want.err)
		}
		got, _ := runsPipeline(t, ups, trs, gate, -1, failAt)
		if !errors.Is(got.err, errAppend) {
			t.Fatalf("pipeline ended with %v, want the injected failure", got.err)
		}
		same(t, got, want)
	})
}

// firstDiff is the first index where a and b differ.
func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
