package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"rrr"
	"rrr/internal/server"
)

// endFrame closes what a streamTap collects; no merger publishes its kind.
var endFrame = server.SSEFrame("end", []byte("{}"))

// streamTap is an SSE client of a server.Stream, served in-process by
// server.ServeSSE as a real subscriber is.
type streamTap struct {
	hub    *server.Stream
	header http.Header
	mu     sync.Mutex
	body   bytes.Buffer
	ended  chan struct{}
	cancel context.CancelFunc
	served chan struct{}
}

// tapStream attaches a tap to hub and returns once it is subscribed.
func tapStream(t testing.TB, hub *server.Stream) *streamTap {
	ctx, cancel := context.WithCancel(context.Background())
	tap := &streamTap{hub: hub, header: http.Header{}, ended: make(chan struct{}), cancel: cancel, served: make(chan struct{})}
	before := hub.Subscribers()
	go func() {
		defer close(tap.served)
		server.ServeSSE(tap, httptest.NewRequest("GET", "/v1/signals", nil).WithContext(ctx), hub)
	}()
	for hub.Subscribers() == before {
		time.Sleep(50 * time.Microsecond)
	}
	t.Cleanup(tap.stop)
	return tap
}

func (tap *streamTap) Header() http.Header { return tap.header }
func (tap *streamTap) WriteHeader(int)     {}
func (tap *streamTap) Flush()              {}

func (tap *streamTap) Write(p []byte) (int, error) {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if bytes.Equal(p, endFrame) {
		close(tap.ended)
		return len(p), nil
	}
	return tap.body.Write(p)
}

func (tap *streamTap) stop() {
	tap.cancel()
	<-tap.served
}

// frames publishes the end frame, waits for the tap to read up to it, and
// returns the frames read before it, preamble stripped.
func (tap *streamTap) frames(t testing.TB) string {
	tap.hub.Publish(endFrame)
	select {
	case <-tap.ended:
	case <-time.After(5 * time.Second):
		t.Fatal("stream tap never read the end frame")
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return strings.TrimPrefix(tap.body.String(), ": rrrd signal stream\n\n")
}

// testMerger is a merger over workers whose streams are all attached, on
// a fresh stream with a tap.
func testMerger(t testing.TB, workers int) (*merger, []*sseClient, *streamTap) {
	ring, err := NewRing(workers, 8)
	if err != nil {
		t.Fatal(err)
	}
	hub := new(server.Stream)
	tap := tapStream(t, hub)
	m := newMerger(workers, hub, ring)
	clients := make([]*sseClient, workers)
	for w := range clients {
		m.setConnected(w, true)
		clients[w] = newSSEClient(w, "http://worker", nil, m, 0)
	}
	return m, clients, tap
}

func signalData(src int, ws int64) string {
	return fmt.Sprintf(`{"technique":%q,"key":"10.0.0.%d-10.9.9.9","monitorId":0,"windowStart":%d}`,
		rrr.TechBGPASPath.String(), src, ws)
}

func windowData(ws int64) string { return fmt.Sprintf(`{"windowStart":%d}`, ws) }

func frame(kind, data string) string { return "event: " + kind + "\ndata: " + data + "\n\n" }

// TestMergerRelaysWorkerDrop drives a worker's `event: dropped` through the
// router's stream reader: the merged stream carries exactly one `gap` with
// the worker and the frames it lost, between two windows; a repeat of the
// same cumulative count adds nothing.
func TestMergerRelaysWorkerDrop(t *testing.T) {
	_, c, tap := testMerger(t, 2)
	// Each worker's signals arrive before either marker: replicas flush a
	// window on the first marker.
	window := func(ws int64) {
		for w := 0; w < 2; w++ {
			c[w].dispatch("signal", signalData(w, ws))
		}
		for w := 0; w < 2; w++ {
			c[w].dispatch("window", windowData(ws))
		}
	}
	window(0)
	c[1].dispatch("dropped", `{"dropped":5}`)
	c[1].dispatch("dropped", `{"dropped":5}`)
	window(900)
	want := frame("signal", signalData(0, 0)) + frame("signal", signalData(1, 0)) + frame("window", windowData(0)) +
		frame("gap", `{"worker":1,"droppedUpstream":5}`) +
		frame("signal", signalData(0, 900)) + frame("signal", signalData(1, 900)) + frame("window", windowData(900))
	if got := tap.frames(t); got != want {
		t.Fatalf("merged stream:\n%s\nwant:\n%s", got, want)
	}
}

// TestMergerWindowFromMarker: a frame belongs to the window whose marker
// follows it on its worker's stream, even when it is about an older
// window (as a subpath signal about a longer series window is).
func TestMergerWindowFromMarker(t *testing.T) {
	late := metClusterStreamLate.Value()
	t.Run("one worker", func(t *testing.T) {
		_, c, tap := testMerger(t, 1)
		c[0].read(strings.NewReader(oldSignalStream))
		want := frame("window", windowData(0)) + frame("signal", signalData(1, 0)) + frame("window", windowData(900))
		if got := tap.frames(t); got != want {
			t.Fatalf("merged stream:\n%s\nwant:\n%s", got, want)
		}
	})
	t.Run("two workers", func(t *testing.T) {
		// Worker 0 closes windows 0 and 900 before worker 1's stream
		// attaches, so both flush together; window 0's flush must not
		// take the older signal from worker 0's segment 900.
		ring, err := NewRing(2, 8)
		if err != nil {
			t.Fatal(err)
		}
		hub := new(server.Stream)
		tap := tapStream(t, hub)
		m := newMerger(2, hub, ring)
		c := []*sseClient{newSSEClient(0, "http://worker", nil, m, 0), newSSEClient(1, "http://worker", nil, m, 0)}
		m.setConnected(0, true)
		for _, f := range [][2]string{
			{"signal", signalData(0, 0)}, {"window", windowData(0)},
			{"signal", signalData(2, 0)}, {"window", windowData(900)},
		} {
			c[0].dispatch(f[0], f[1])
		}
		m.setConnected(1, true)
		c[1].dispatch("signal", signalData(0, 0))
		c[1].dispatch("window", windowData(0))
		want := frame("signal", signalData(0, 0)) + frame("window", windowData(0)) +
			frame("signal", signalData(2, 0)) + frame("window", windowData(900))
		if got := tap.frames(t); got != want {
			t.Fatalf("merged stream:\n%s\nwant:\n%s", got, want)
		}
	})
	if n := metClusterStreamLate.Value() - late; n != 0 {
		t.Fatalf("merger dropped %d frames as late", n)
	}
}

// oldSignalStream is one worker's stream whose window-900 close publishes
// a signal about window 0.
var oldSignalStream = frame("window", windowData(0)) + frame("signal", signalData(1, 0)) + frame("window", windowData(900))

// TestMergerGapNeverSplitsWindow relays worker drops while the other
// worker's markers flush windows: every gap must land between windows,
// never among a window's signals.
func TestMergerGapNeverSplitsWindow(t *testing.T) {
	const windows, perWindow, drops = 60, 20, 300
	_, c, tap := testMerger(t, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < windows; i++ {
			ws := int64(i) * 900
			for s := 0; s < perWindow; s++ {
				c[s%2].dispatch("signal", signalData(s, ws))
			}
			c[0].dispatch("window", windowData(ws))
			c[1].dispatch("window", windowData(ws))
		}
	}()
	for i := 1; i <= drops; i++ {
		c[1].dispatch("dropped", fmt.Sprintf(`{"dropped":%d}`, i))
	}
	wg.Wait()
	stream := tap.frames(t)
	if n := strings.Count(stream, "event: gap"); n != drops {
		t.Fatalf("%d gap frames; want %d", n, drops)
	}
	if n := strings.Count(stream, "event: window"); n != windows {
		t.Fatalf("%d window frames; want %d", n, windows)
	}
	inWindow := false
	for _, kind := range regexp.MustCompile(`(?m)^event: (\w+)$`).FindAllStringSubmatch(stream, -1) {
		switch kind[1] {
		case "signal":
			inWindow = true
		case "window":
			inWindow = false
		case "gap":
			if inWindow {
				t.Fatal("a gap frame landed among a window's signals")
			}
		}
	}
}

// wellFormed is the merged stream's grammar: whole frames, each one event
// line and one data line.
var wellFormed = regexp.MustCompile(`^(event: [a-z]+\ndata: [^\r\n]+\n\n)*$`)

// FuzzSSEReader feeds arbitrary bytes to the router's reader of a worker
// stream, into a merger on a server.Stream: nothing may panic, and every
// frame the merger publishes must be one event line and one data line.
func FuzzSSEReader(f *testing.F) {
	f.Add([]byte(frame("signal", signalData(1, 0)) + frame("window", windowData(0)) + ": keepalive\n\n" +
		frame("dropped", `{"dropped":3}`)))
	f.Add([]byte("event: signal\r\ndata: " + signalData(2, 900) + "\r\n\r\nevent: window\rdata: " + windowData(900) + "\r\r"))
	f.Add([]byte("event: signal\ndata: {\"technique\":\"bgp-aspath\",\r\"key\":\"10.0.0.1-10.9.9.9\",\"windowStart\":0}\n\n" +
		frame("window", windowData(0))))
	f.Add([]byte(frame("routing", `{"class":"hijack-origin","windowStart":0,"prefix":"10.0.0.0/8","as":7}`) +
		frame("window", windowData(0)) + "event: window\ndata: {\"windowStart\":-1}\n\n"))
	f.Add([]byte("data: x\nevent: dropped\ndata: {\"dropped\":18446744073709551615}\n\n\x00\xff"))
	f.Add([]byte(oldSignalStream))
	f.Fuzz(func(t *testing.T, in []byte) {
		_, c, tap := testMerger(t, 1)
		c[0].read(bytes.NewReader(in))
		if got := tap.frames(t); !wellFormed.MatchString(got) {
			t.Fatalf("merged stream is not whole frames of one data line each:\n%q", got)
		}
	})
}
