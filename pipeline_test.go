package rrr

import (
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"rrr/internal/bgp"
	"rrr/internal/bordermap"
)

func TestPipelineInterleavesAndSignals(t *testing.T) {
	aliases := bordermap.OracleFunc(func(v uint32) (int, bool) { return int(v), true })
	m, err := NewMonitor(Options{Mapper: facadeMapper{}, Aliases: aliases})
	if err != nil {
		t.Fatal(err)
	}
	// Prime and track outside the pipeline (table dump + corpus).
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	tr := trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if err := m.Track(tr); err != nil {
		t.Fatal(err)
	}

	// BGP feed: quiet keepalive announcements every window, then the
	// suffix shift at window 45.
	var updates []Update
	for w := int64(1); w < 45; w++ {
		updates = append(updates,
			announceUpd(t, w*900+5, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	}
	updates = append(updates,
		announceUpd(t, 45*900+5, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 9, 4}))
	updates = append(updates,
		announceUpd(t, 46*900+5, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 9, 4}))

	// A public traceroute feed interleaved with the updates.
	var traces []*Traceroute
	for w := int64(0); w < 46; w += 4 {
		traces = append(traces, trace(t, w*900+100, "9.0.0.1", "4.0.0.8",
			"9.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.8"))
	}

	var got []Signal
	err = RunPipeline(context.Background(), m, PipelineConfig{
		Updates: bgp.NewSliceSource(updates), Traces: NewTraceSliceSource(traces),
		Sink: func(s Signal) { got = append(got, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("pipeline produced no signals")
	}
	found := false
	for _, s := range got {
		if s.Technique == TechBGPASPath && s.Key == tr.Key() {
			found = true
		}
	}
	if !found {
		t.Fatalf("no AS-path signal in %v", got)
	}
	if !m.Stale(tr.Key()) {
		t.Fatal("pair not stale after pipeline")
	}
}

func TestPipelineNilFeeds(t *testing.T) {
	m := newTestMonitor(t)
	if err := RunPipeline(context.Background(), m, PipelineConfig{}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineContextCancel(t *testing.T) {
	m := newTestMonitor(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	updates := []Update{announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 4})}
	err := RunPipeline(ctx, m, PipelineConfig{Updates: bgp.NewSliceSource(updates)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
}

type failingTraceSource struct{}

func (failingTraceSource) Read() (*Traceroute, error) { return nil, io.ErrUnexpectedEOF }

// blockingUpdateSource serves updates from an unbuffered channel, blocking
// between items like a live feed; reads (when non-nil) gets a token each
// time Read is entered, so tests can tell when the reader is parked.
type blockingUpdateSource struct {
	ch    chan Update
	reads chan struct{}
}

func (s *blockingUpdateSource) Read() (Update, error) {
	if s.reads != nil {
		select {
		case s.reads <- struct{}{}:
		default:
		}
	}
	u, ok := <-s.ch
	if !ok {
		return Update{}, io.EOF
	}
	return u, nil
}

type blockingTraceSource struct {
	ch chan *Traceroute
}

func (s *blockingTraceSource) Read() (*Traceroute, error) {
	t, ok := <-s.ch
	if !ok {
		return nil, io.EOF
	}
	return t, nil
}

// TestPipelineCancelWhileBlocked is the live-daemon shutdown case: both
// reader goroutines are parked inside Read (feeds with no pending data)
// when the context fires. RunPipeline must still return promptly with
// context.Canceled instead of waiting for the feeds.
func TestPipelineCancelWhileBlocked(t *testing.T) {
	m := newTestMonitor(t)
	us := &blockingUpdateSource{ch: make(chan Update)}
	ts := &blockingTraceSource{ch: make(chan *Traceroute)}
	defer close(us.ch)
	defer close(ts.ch)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- RunPipeline(ctx, m, PipelineConfig{Updates: us, Traces: ts}) }()

	// Hand the pipeline one update so it is mid-stream (not at EOF), then
	// leave both feeds silent and cancel.
	us.ch <- announceUpd(t, 5, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 4})
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v; want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunPipeline did not honor cancellation while readers were blocked")
	}
}

// TestPipelineCancelClosesOpenWindow checks the graceful-shutdown drain:
// observations already ingested when the context fires still produce their
// signals via a final window close.
func TestPipelineCancelClosesOpenWindow(t *testing.T) {
	m := newTestMonitor(t)
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	tr := trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if err := m.Track(tr); err != nil {
		t.Fatal(err)
	}
	m.Advance(45 * 900)

	us := &blockingUpdateSource{ch: make(chan Update), reads: make(chan struct{}, 8)}
	defer close(us.ch)
	var got []Signal
	var mu sync.Mutex
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- RunPipeline(ctx, m, PipelineConfig{Updates: us, Sink: func(s Signal) {
			mu.Lock()
			got = append(got, s)
			mu.Unlock()
		}})
	}()

	// The change lands in window 45, which stays open (no later-window item
	// arrives to close it); cancellation must close it and emit the signal.
	<-us.reads // reader is inside Read
	us.ch <- announceUpd(t, 45*900+5, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 9, 4})
	// The reader re-entering Read means the update was handed to the merge
	// loop's queue; give the merge a beat to observe it.
	<-us.reads
	time.Sleep(100 * time.Millisecond)
	if m.Stale(tr.Key()) {
		t.Fatal("window closed before cancellation; scenario broken")
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("cancellation dropped the open window's signals")
	}
	if !m.Stale(tr.Key()) {
		t.Fatal("pair not stale after drain")
	}
}

func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("empty Tee should be nil (RunPipeline's discard)")
	}
	var a, b []int64
	one := Tee(func(s Signal) { a = append(a, s.WindowStart) })
	one(Signal{WindowStart: 1})
	if len(a) != 1 {
		t.Fatal("single-sink Tee did not deliver")
	}
	both := Tee(func(s Signal) { a = append(a, s.WindowStart) }, nil,
		func(s Signal) { b = append(b, s.WindowStart) })
	both(Signal{WindowStart: 2})
	both(Signal{WindowStart: 3})
	if len(a) != 3 || len(b) != 2 || a[2] != 3 || b[1] != 3 {
		t.Fatalf("fan-out = %v / %v", a, b)
	}
}

// erroringUpdateSource serves a fixed slice, then fails with err — a decode
// failure mid-feed rather than a clean EOF.
type erroringUpdateSource struct {
	updates []Update
	err     error
}

func (s *erroringUpdateSource) Read() (Update, error) {
	if len(s.updates) == 0 {
		return Update{}, s.err
	}
	u := s.updates[0]
	s.updates = s.updates[1:]
	return u, nil
}

// TestPipelineFeedErrorDrain checks that a mid-feed decode error drains the
// open window just like cancellation does: a change observed before the
// error must still surface as a signal instead of being silently discarded
// along with everything buffered since the last window boundary.
func TestPipelineFeedErrorDrain(t *testing.T) {
	m := newTestMonitor(t)
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	tr := trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if err := m.Track(tr); err != nil {
		t.Fatal(err)
	}
	m.Advance(45 * 900)

	// The change lands in window 45; the very next Read fails, so nothing
	// in-stream ever closes that window.
	us := &erroringUpdateSource{
		updates: []Update{announceUpd(t, 45*900+5, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 9, 4})},
		err:     io.ErrUnexpectedEOF,
	}
	var got []Signal
	err := RunPipeline(context.Background(), m, PipelineConfig{Updates: us, Sink: func(s Signal) { got = append(got, s) }})
	if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v; want wrapped unexpected EOF", err)
	}
	if len(got) == 0 {
		t.Fatal("feed error dropped the open window's signals")
	}
	if !m.Stale(tr.Key()) {
		t.Fatal("pair not stale after feed-error drain")
	}
}

// TestPipelineNegativeTimestampWindows pins the floor-division window
// indexing: a pre-epoch observation must land in the window containing it
// ([-900, 0)), not share truncation's window 0 with post-epoch items.
func TestPipelineNegativeTimestampWindows(t *testing.T) {
	m := newTestMonitor(t)
	updates := []Update{
		announceUpd(t, -450, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}),
		announceUpd(t, 450, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}),
	}
	if err := RunPipeline(context.Background(), m, PipelineConfig{Updates: bgp.NewSliceSource(updates)}); err != nil {
		t.Fatal(err)
	}
	// t=-450 opens window -900, t=450 closes it and opens window 0, and the
	// final close finishes window 0: two windows. Truncating division would
	// fold both updates into a single window.
	if n := m.WindowsClosed(); n != 2 {
		t.Fatalf("WindowsClosed = %d; want 2", n)
	}
}

func TestPipelineFeedErrorPropagates(t *testing.T) {
	m := newTestMonitor(t)
	err := RunPipeline(context.Background(), m, PipelineConfig{Traces: failingTraceSource{}})
	if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v; want wrapped unexpected EOF", err)
	}
}

func TestPipelineClosesFinalWindow(t *testing.T) {
	m := newTestMonitor(t)
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	tr := trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if err := m.Track(tr); err != nil {
		t.Fatal(err)
	}
	// Warm up through Advance, then a single-update feed whose change
	// should be signaled by the *final* window close inside RunPipeline.
	m.Advance(45 * 900)
	updates := []Update{
		announceUpd(t, 45*900+5, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 9, 4}),
		announceUpd(t, 46*900+5, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 9, 4}),
	}
	var got []Signal
	if err := RunPipeline(context.Background(), m, PipelineConfig{
		Updates: bgp.NewSliceSource(updates), Sink: func(s Signal) { got = append(got, s) },
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("final window close produced no signals")
	}
}
