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
)

func sig(w int64) rrr.Signal {
	return rrr.Signal{Technique: rrr.TechBGPASPath, WindowStart: w}
}

// TestHubSlowSubscriberDrops is the backpressure guarantee: a subscriber
// that never drains loses its oldest signals while Publish returns without
// blocking — feed ingestion must never stall on a stuck SSE client.
func TestHubSlowSubscriberDrops(t *testing.T) {
	h := newHub(4)
	slow := h.subscribe()

	const n = 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			h.Publish(sig(int64(i)))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a slow subscriber")
	}

	if d := slow.Dropped(); d < n-4-4 {
		// At most ring (4) buffered plus the bounded-retry slack can
		// survive; everything else must be counted dropped.
		t.Fatalf("Dropped() = %d; want >= %d", d, n-8)
	}
	if buffered := len(slow.ch); buffered > 4 {
		t.Fatalf("ring holds %d > cap 4", buffered)
	}
	// What survives is the newest tail, not the oldest head.
	got := <-slow.C()
	if got.Signal.WindowStart < 4 {
		t.Fatalf("survivor window %d; drop-oldest should keep the tail", got.Signal.WindowStart)
	}
}

func TestHubFanoutAndUnsubscribe(t *testing.T) {
	h := newHub(8)
	a, b := h.subscribe(), h.subscribe()
	if h.Subscribers() != 2 {
		t.Fatalf("Subscribers = %d", h.Subscribers())
	}
	h.Publish(sig(1))
	for _, sub := range []*subscriber[Event]{a, b} {
		select {
		case s := <-sub.C():
			if s.Signal.WindowStart != 1 {
				t.Fatalf("got window %d", s.Signal.WindowStart)
			}
		default:
			t.Fatal("subscriber missed fan-out")
		}
	}
	h.unsubscribe(b)
	if h.Subscribers() != 1 {
		t.Fatalf("Subscribers after unsubscribe = %d", h.Subscribers())
	}
	h.Publish(sig(2))
	if len(b.ch) != 0 {
		t.Fatal("unsubscribed channel still receives")
	}
	select {
	case s := <-a.C():
		if s.Signal.WindowStart != 2 {
			t.Fatalf("got window %d", s.Signal.WindowStart)
		}
	default:
		t.Fatal("remaining subscriber missed publish")
	}
	// Double unsubscribe and publish-after-unsubscribe must not panic.
	h.unsubscribe(b)
	h.Publish(sig(3))
}

// TestHubWindowMarkers checks that publishWindow interleaves markers with
// signals in publish order on a subscriber's stream.
func TestHubWindowMarkers(t *testing.T) {
	h := newHub(8)
	sub := h.subscribe()
	h.Publish(sig(900))
	h.publishWindow(900)
	h.Publish(sig(1800))

	want := []Event{
		{Signal: sig(900)},
		{WindowStart: 900, Window: true},
		{Signal: sig(1800)},
	}
	for i, w := range want {
		select {
		case ev := <-sub.C():
			if ev.Window != w.Window || ev.WindowStart != w.WindowStart ||
				ev.Signal.WindowStart != w.Signal.WindowStart {
				t.Fatalf("event %d = %+v; want %+v", i, ev, w)
			}
		default:
			t.Fatalf("event %d missing", i)
		}
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
