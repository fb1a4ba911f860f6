package server

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// streamBytes bounds the frames a Stream keeps. A window close publishes
// hundreds of frames at once; the deepest backlog measured on a reader
// that keeps up was about 1 000 frames (≈ 250 KB), so the log holds four
// times that before a reader loses anything.
const streamBytes = 1 << 20

// Stream is the append-only frame log behind both SSE tiers: the worker's
// signals, routing events and window markers, and the cluster router's
// merged frames. Publishers append frames they rendered once; a
// subscriber is only a position in the log, read on its own HTTP handler
// goroutine, so Publish costs the same whatever the number of subscribers
// and never blocks. The log keeps the newest frames up to streamBytes: a
// subscriber the trim overtakes loses the frames it had not read, is told
// how many (`event: dropped`, counted in rrr_hub_dropped_total), and goes
// on from the oldest frame still kept. With no subscriber attached it
// keeps nothing. The zero value is ready to use.
type Stream struct {
	mu     sync.Mutex
	frames [][]byte // ring of the kept frames, oldest at frames[head]
	head   int
	n      int    // frames kept
	bytes  int    // their total length
	end    uint64 // position of the next frame; the oldest kept is end-n
	// wake, while a subscriber waits at the tail, is closed by the next
	// Publish.
	wake chan struct{}
	// subs is written under mu and read without it, so a publisher can
	// skip rendering while no one is subscribed.
	subs atomic.Int64
}

// cursor is one subscriber: the position of the next frame it reads.
type cursor struct {
	pos     uint64
	dropped uint64 // frames the trim took before this cursor read them
}

// subscribe attaches a cursor at the tail: it reads what is published
// from now on.
func (s *Stream) subscribe() *cursor {
	s.mu.Lock()
	defer s.mu.Unlock()
	metHubSubscribers.Set(s.subs.Add(1))
	return &cursor{pos: s.end}
}

// unsubscribe detaches a cursor; the last subscriber to leave releases
// the log.
func (s *Stream) unsubscribe(*cursor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.subs.Add(-1)
	metHubSubscribers.Set(n)
	if n == 0 {
		s.frames, s.head, s.n, s.bytes = nil, 0, 0, 0
	}
}

// Subscribers reports the number of attached subscribers.
func (s *Stream) Subscribers() int { return int(s.subs.Load()) }

// Publish appends one rendered frame to the log without blocking. With no
// subscriber attached the frame is counted and kept nowhere, so a
// publisher that checks Subscribers first may pass nil instead of
// rendering it.
func (s *Stream) Publish(frame []byte) {
	metHubPublished.Inc()
	if frame == nil || s.subs.Load() == 0 {
		return
	}
	s.mu.Lock()
	if s.subs.Load() == 0 {
		s.mu.Unlock()
		return
	}
	if s.n == len(s.frames) {
		grown := make([][]byte, max(64, 2*len(s.frames)))
		for i := 0; i < s.n; i++ {
			grown[i] = s.frames[s.slot(i)]
		}
		s.frames, s.head = grown, 0
	}
	s.frames[s.slot(s.n)] = frame
	s.n++
	s.end++
	s.bytes += len(frame)
	for s.bytes > streamBytes && s.n > 1 {
		s.bytes -= len(s.frames[s.head])
		s.frames[s.head] = nil
		s.head = s.slot(1)
		s.n--
	}
	if s.wake != nil {
		close(s.wake)
		s.wake = nil
	}
	s.mu.Unlock()
}

// slot is the index in frames of the i-th oldest kept frame. The ring's
// length is a power of two.
func (s *Stream) slot(i int) int { return (s.head + i) & (len(s.frames) - 1) }

// next returns c's next frame and advances c past it, first moving c up
// to the oldest kept frame if the trim overtook it (adding the frames it
// skipped to c.dropped). At the tail it returns nil and a channel the next
// Publish closes.
func (s *Stream) next(c *cursor) ([]byte, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	oldest := s.end - uint64(s.n)
	if c.pos < oldest {
		c.dropped += oldest - c.pos
		metHubDropped.Add(oldest - c.pos)
		c.pos = oldest
	}
	if c.pos == s.end {
		if s.wake == nil {
			s.wake = make(chan struct{})
		}
		return nil, s.wake
	}
	frame := s.frames[s.slot(int(c.pos-oldest))]
	c.pos++
	return frame, nil
}

// sseHeartbeat is the keepalive interval on an idle stream.
const sseHeartbeat = 15 * time.Second

// SSEFrame renders one Server-Sent-Events frame.
func SSEFrame(kind string, data []byte) []byte {
	frame := make([]byte, 0, len(kind)+len(data)+16)
	frame = append(frame, "event: "...)
	frame = append(frame, kind...)
	frame = append(frame, "\ndata: "...)
	frame = append(frame, data...)
	return append(frame, "\n\n"...)
}

// ServeSSE subscribes the client to s and streams its frames until the
// client goes away. Both stream tiers — a worker's signals, the router's
// merged frames — are served here, so the preamble, the drop report and
// the keepalive are spelled once.
func ServeSSE(w http.ResponseWriter, r *http.Request, s *Stream) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	c := s.subscribe()
	defer s.unsubscribe(c)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, ": rrrd signal stream\n\n")
	fl.Flush()

	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	var reported uint64
	for {
		// Write every frame from the cursor to the tail, then flush once: a
		// window close publishes hundreds of frames at once. The lock is
		// taken per frame and never held across a write, so a stalled
		// client pins one frame and delays no publisher.
		frame, wake := s.next(c)
		if frame != nil {
			for ; frame != nil; frame, wake = s.next(c) {
				if c.dropped > reported {
					w.Write(SSEFrame("dropped", fmt.Appendf(nil, `{"dropped":%d}`, c.dropped)))
					reported = c.dropped
				}
				if _, err := w.Write(frame); err != nil {
					return
				}
			}
			fl.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		case <-heartbeat.C:
			io.WriteString(w, ": keepalive\n\n")
			fl.Flush()
		}
	}
}
