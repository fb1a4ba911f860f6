package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rrr"
	"rrr/internal/events"
)

func sig(w int64) rrr.Signal {
	return rrr.Signal{Technique: rrr.TechBGPASPath, WindowStart: w}
}

// testFrame renders frame i as a signal frame of exactly size bytes.
func testFrame(i, size int) []byte {
	f := fmt.Appendf(nil, "event: signal\ndata: {\"i\":%d}", i)
	f = append(f, bytes.Repeat([]byte{' '}, size-len(f)-2)...)
	return append(f, "\n\n"...)
}

// readAll drains c to the tail of s.
func readAll(s *Stream, c *cursor) [][]byte {
	var out [][]byte
	for f, _ := s.next(c); f != nil; f, _ = s.next(c) {
		out = append(out, f)
	}
	return out
}

// TestHubSlowSubscriberDrops is the backpressure guarantee: Publish
// returns without blocking on a subscriber that never reads, the log keeps
// only the newest streamBytes of frames, and the subscriber loses exactly
// the frames trimmed before it read them. Over SSE the loss is reported
// as `event: dropped` with the count, ahead of the oldest frame kept.
func TestHubSlowSubscriberDrops(t *testing.T) {
	const size = 1 << 10
	const keep = streamBytes / size
	const n = 3*keep + 5

	var s Stream
	slow := s.subscribe()
	dropped := metHubDropped.Value()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			s.Publish(testFrame(i, size))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a slow subscriber")
	}
	got := readAll(&s, slow)
	if slow.dropped != n-keep || len(got) != keep {
		t.Fatalf("dropped %d, read %d; want %d dropped, %d read", slow.dropped, len(got), n-keep, keep)
	}
	if d := metHubDropped.Value() - dropped; d != n-keep {
		t.Fatalf("rrr_hub_dropped_total moved by %d; want %d", d, n-keep)
	}
	// What survives is the newest tail, in publish order.
	for j, f := range got {
		if want := testFrame(n-keep+j, size); !bytes.Equal(f, want) {
			t.Fatalf("frame %d read is %.24q; want frame %d", j, f, n-keep+j)
		}
	}

	// Over SSE: park the handler inside its first frame's write, overtake
	// its cursor, and expect the count before the oldest frame kept.
	srv := New(newTestMonitor(t), Config{})
	gw := &gatedWriter{header: http.Header{}, parked: make(chan struct{}), gate: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Handler().ServeHTTP(gw, httptest.NewRequest("GET", "/v1/signals", nil).WithContext(ctx))
	}()
	for srv.hub.Subscribers() == 0 {
		time.Sleep(time.Millisecond)
	}
	srv.hub.Publish(testFrame(0, size))
	<-gw.parked
	for i := 1; i < n; i++ {
		srv.hub.Publish(testFrame(i, size))
	}
	close(gw.gate)
	last := string(testFrame(n-1, size))
	deadline := time.Now().Add(5 * time.Second)
	for body, _ := gw.snapshot(); !strings.HasSuffix(body, last); body, _ = gw.snapshot() {
		if time.Now().After(deadline) {
			t.Fatal("stream never delivered the last frame")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-served
	body, _ := gw.snapshot()
	// The handler held frame 0; frames 1 … n-keep-1 went before it read on.
	want := string(testFrame(0, size)) + fmt.Sprintf("event: dropped\ndata: {\"dropped\":%d}\n\n", n-keep-1) +
		string(testFrame(n-keep, size))
	if !strings.Contains(body, want) {
		t.Fatalf("stream lacks frame 0, the drop count %d and frame %d in a row", n-keep-1, n-keep)
	}
	if strings.Count(body, "event: dropped") != 1 {
		t.Fatalf("%d drop reports; want 1", strings.Count(body, "event: dropped"))
	}
}

func TestHubFanoutAndUnsubscribe(t *testing.T) {
	var s Stream
	a, b := s.subscribe(), s.subscribe()
	if s.Subscribers() != 2 {
		t.Fatalf("Subscribers = %d", s.Subscribers())
	}
	one := testFrame(1, 64)
	s.Publish(one)
	for _, c := range []*cursor{a, b} {
		if got := readAll(&s, c); len(got) != 1 || !bytes.Equal(got[0], one) {
			t.Fatalf("subscriber read %q; want the one frame published", got)
		}
	}
	s.unsubscribe(b)
	if s.Subscribers() != 1 {
		t.Fatalf("Subscribers after unsubscribe = %d", s.Subscribers())
	}
	two := testFrame(2, 64)
	s.Publish(two)
	if got := readAll(&s, a); len(got) != 1 || !bytes.Equal(got[0], two) {
		t.Fatalf("remaining subscriber read %q; want the second frame", got)
	}
	// The last one out releases the log, and a publish after it keeps
	// nothing.
	s.unsubscribe(a)
	s.Publish(testFrame(3, 64))
	if s.Subscribers() != 0 || s.n != 0 || s.frames != nil {
		t.Fatalf("%d subscribers, %d frames kept in %d slots after the last left", s.Subscribers(), s.n, len(s.frames))
	}
}

// TestHubWindowMarkers checks that a subscriber reads signals, routing
// events and window markers in publish order, each rendered as its wire
// frame.
func TestHubWindowMarkers(t *testing.T) {
	srv := New(newTestMonitor(t), Config{})
	c := srv.hub.subscribe()
	ev := events.Event{Class: events.HijackOrigin, WindowStart: 900}
	srv.Publish(sig(900))
	srv.PublishEvent(ev)
	srv.PublishWindowClose(900)
	srv.Publish(sig(1800))

	want := [][]byte{
		jsonFrame("signal", toSignalJSON(sig(900))),
		jsonFrame("routing", toEventJSON(ev)),
		[]byte("event: window\ndata: {\"windowStart\":900}\n\n"),
		jsonFrame("signal", toSignalJSON(sig(1800))),
	}
	got := readAll(srv.hub, c)
	if len(got) != len(want) {
		t.Fatalf("read %d frames; want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d = %q; want %q", i, got[i], want[i])
		}
	}
}

// TestStreamIdleKeepsNothing: with no subscriber attached, publishing a
// signal, a routing event or a marker renders nothing (no allocation) and
// keeps nothing — replay and durable-ingest runs publish every signal into
// a stream no one reads.
func TestStreamIdleKeepsNothing(t *testing.T) {
	srv := New(newTestMonitor(t), Config{})
	ev := events.Event{Class: events.HijackOrigin, WindowStart: 900}
	published := metHubPublished.Value()
	allocs := testing.AllocsPerRun(100, func() {
		srv.Publish(sig(900))
		srv.PublishEvent(ev)
		srv.PublishWindowClose(900)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per idle publish round; want 0 (nothing rendered)", allocs)
	}
	if srv.hub.n != 0 || srv.hub.frames != nil {
		t.Fatalf("idle stream keeps %d frames in %d slots", srv.hub.n, len(srv.hub.frames))
	}
	if n := metHubPublished.Value() - published; n < 3*100 {
		t.Fatalf("rrr_hub_published_total moved by %d; idle publishes still count", n)
	}
}

// attach subscribes n idle cursors to s and fills its log to the byte
// bound with frame, so later publishes run at the steady state: one frame
// in, one trimmed.
func attach(s *Stream, n int, frame []byte) {
	for i := 0; i < n; i++ {
		s.subscribe()
	}
	for i := 0; i < 2*streamBytes/len(frame); i++ {
		s.Publish(frame)
	}
}

// TestStreamPublishAllocs: a publish allocates the same with 10 000 idle
// subscribers as with none — nothing is done per subscriber.
func TestStreamPublishAllocs(t *testing.T) {
	frame := testFrame(0, 238)
	var idle, busy Stream
	attach(&busy, 10000, frame)
	a0 := testing.AllocsPerRun(1000, func() { idle.Publish(frame) })
	a1 := testing.AllocsPerRun(1000, func() { busy.Publish(frame) })
	if a0 != a1 {
		t.Fatalf("Publish allocates %v with no subscriber, %v with 10 000", a0, a1)
	}
}

// BenchmarkStreamPublish times one publish of a 238-byte frame (the
// serve-ingest mean) with 0, 10 and 10 000 idle subscribers attached as
// cursors: no goroutine reads them, so every publish past the byte bound
// also trims.
func BenchmarkStreamPublish(b *testing.B) {
	frame := testFrame(0, 238)
	for _, subs := range []int{0, 10, 10000} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			var s Stream
			attach(&s, subs, frame)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Publish(frame)
			}
		})
	}
}

// gatedWriter is a flushable ResponseWriter whose first frame Write parks
// until the gate opens, so a test can queue a burst behind it.
type gatedWriter struct {
	header  http.Header
	parked  chan struct{} // closed when the first frame's Write is reached
	gate    chan struct{} // close to let that Write proceed
	once    sync.Once
	mu      sync.Mutex
	body    bytes.Buffer
	flushes int
}

func (g *gatedWriter) Header() http.Header { return g.header }
func (g *gatedWriter) WriteHeader(int)     {}

func (g *gatedWriter) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("event: ")) {
		g.once.Do(func() {
			close(g.parked)
			<-g.gate
		})
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.body.Write(p)
}

func (g *gatedWriter) Flush() {
	g.mu.Lock()
	g.flushes++
	g.mu.Unlock()
}

func (g *gatedWriter) snapshot() (string, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.body.String(), g.flushes
}

// TestSSEFlushesOncePerBurst holds the stream handler inside its first
// frame write while a window close's worth of signals lands in the ring,
// then requires the whole burst to reach the client in order, undropped,
// behind a single flush: a handler that flushes per frame is the one that
// overflows the ring when a real window closes.
func TestSSEFlushesOncePerBurst(t *testing.T) {
	srv := New(newTestMonitor(t), Config{})
	gw := &gatedWriter{header: http.Header{}, parked: make(chan struct{}), gate: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Handler().ServeHTTP(gw, httptest.NewRequest("GET", "/v1/signals", nil).WithContext(ctx))
	}()
	for srv.hub.Subscribers() == 0 {
		time.Sleep(time.Millisecond)
	}

	const burst = 100
	srv.Publish(sig(0))
	<-gw.parked
	for i := 1; i <= burst; i++ {
		srv.Publish(sig(int64(i)))
	}
	close(gw.gate)

	deadline := time.Now().Add(5 * time.Second)
	for {
		body, _ := gw.snapshot()
		if strings.Count(body, "event: signal") == burst+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream delivered %d of %d frames", strings.Count(body, "event: signal"), burst+1)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-served

	body, flushes := gw.snapshot()
	if strings.Contains(body, "event: dropped") {
		t.Fatal("burst within the ring size reported drops")
	}
	at := 0
	for i := 0; i <= burst; i++ {
		next := strings.Index(body[at:], fmt.Sprintf(`"windowStart":%d}`, i))
		if next < 0 {
			t.Fatalf("frame %d missing or out of order", i)
		}
		at += next
	}
	// One flush for the preamble and one for the burst; the bound leaves
	// one spare.
	if flushes > 3 {
		t.Fatalf("%d flushes for a %d-frame burst; want one per burst", flushes, burst)
	}
}
