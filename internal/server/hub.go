package server

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rrr"
	"rrr/internal/events"
)

// DefaultRingSize is the per-subscriber signal buffer used when Config
// leaves RingSize zero.
const DefaultRingSize = 256

// Fanout is the drop-oldest fan-out behind both SSE tiers: the worker's Hub
// carries Events, the cluster router's merger carries pre-rendered frames.
// Publish never blocks: each subscriber owns a bounded ring (a buffered
// channel with drop-oldest overflow), so a slow or stalled client loses its
// oldest queued items — counted in the rrr_hub_* families and reported on
// its stream — while the publisher proceeds at full speed. One goroutine
// publishes; each subscriber drains on its own HTTP handler goroutine.
type Fanout[T any] struct {
	mu   sync.Mutex
	subs map[*Sub[T]]struct{}
	ring int
}

// NewFanout builds a fan-out with the given per-subscriber ring capacity
// (<= 0 uses DefaultRingSize).
func NewFanout[T any](ring int) *Fanout[T] {
	if ring <= 0 {
		ring = DefaultRingSize
	}
	return &Fanout[T]{subs: make(map[*Sub[T]]struct{}), ring: ring}
}

// Hub fans the pipeline's signal stream out to SSE subscribers: a
// Fanout[Event] with one publish method per kind of event.
type Hub struct{ *Fanout[Event] }

// NewHub builds a hub with the given per-subscriber ring capacity (<= 0
// uses DefaultRingSize).
func NewHub(ring int) *Hub { return &Hub{NewFanout[Event](ring)} }

// Event is one item on a subscriber's stream: a pipeline signal, a
// routing event from the event detector (Routing set), or a window-close
// marker (Window true) delimiting the engine's emission windows. Markers
// let downstream mergers — the cluster router — establish a barrier: once
// every worker has reported window W closed, every signal and routing
// event of W is in hand and the merged stream can be flushed in total
// order (routing events are published between a window's signals and its
// marker).
type Event struct {
	Signal      rrr.Signal
	Routing     *events.Event
	WindowStart int64
	Window      bool
}

// Sub is one attached consumer of a Fanout.
type Sub[T any] struct {
	ch      chan T
	dropped atomic.Uint64
}

// Subscriber is one attached Hub consumer.
type Subscriber = Sub[Event]

// C is the subscriber's channel; drain it promptly or lose the oldest
// buffered items.
func (s *Sub[T]) C() <-chan T { return s.ch }

// Dropped reports how many items overflow has discarded so far.
func (s *Sub[T]) Dropped() uint64 { return s.dropped.Load() }

// offer enqueues without ever blocking the publisher: on a full ring it
// evicts the oldest buffered item and retries. The retry count is
// bounded; under pathological contention the new item itself is counted
// dropped instead of spinning.
func (s *Sub[T]) offer(v T) {
	for i := 0; i < 4; i++ {
		select {
		case s.ch <- v:
			return
		default:
		}
		select {
		case <-s.ch:
			s.dropped.Add(1)
			metHubDropped.Inc()
		default:
		}
	}
	s.dropped.Add(1)
	metHubDropped.Inc()
}

// Subscribe attaches a new subscriber.
func (f *Fanout[T]) Subscribe() *Sub[T] {
	sub := &Sub[T]{ch: make(chan T, f.ring)}
	f.mu.Lock()
	f.subs[sub] = struct{}{}
	metHubSubscribers.Set(int64(len(f.subs)))
	f.mu.Unlock()
	return sub
}

// Unsubscribe detaches a subscriber; its channel is left open (the fan-out
// simply stops publishing to it), so a racing Publish never sends on a
// closed channel.
func (f *Fanout[T]) Unsubscribe(sub *Sub[T]) {
	f.mu.Lock()
	delete(f.subs, sub)
	metHubSubscribers.Set(int64(len(f.subs)))
	f.mu.Unlock()
}

// Subscribers reports the number of attached consumers.
func (f *Fanout[T]) Subscribers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}

// Publish delivers v to every subscriber without blocking.
func (f *Fanout[T]) Publish(v T) {
	metHubPublished.Inc()
	f.mu.Lock()
	defer f.mu.Unlock()
	for sub := range f.subs {
		sub.offer(v)
	}
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

// ServeSSE subscribes the client to f and streams every item as the frame
// the caller renders for it, until the client goes away. Both stream tiers
// — a worker's signals, the router's merged frames — are served here, so
// the preamble, the drop report and the keepalive are spelled once.
func ServeSSE[T any](w http.ResponseWriter, r *http.Request, f *Fanout[T], frame func(T) []byte) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	sub := f.Subscribe()
	defer f.Unsubscribe(sub)

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
	write := func(v T) {
		if d := sub.Dropped(); d > reported {
			w.Write(SSEFrame("dropped", fmt.Appendf(nil, `{"dropped":%d}`, d)))
			reported = d
		}
		w.Write(frame(v))
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case v := <-sub.C():
			write(v)
			// A window close publishes its frames in one burst; flushing per
			// frame would let the ring overflow behind the syscalls. Write
			// what is already queued, then flush once.
			for queued := true; queued; {
				select {
				case v = <-sub.C():
					write(v)
				default:
					queued = false
				}
			}
			fl.Flush()
		case <-heartbeat.C:
			io.WriteString(w, ": keepalive\n\n")
			fl.Flush()
		}
	}
}

// Publish delivers a signal to every subscriber without blocking. Safe for
// use as a Pipeline sink.
func (h *Hub) Publish(sig rrr.Signal) {
	h.Fanout.Publish(Event{Signal: sig})
}

// PublishRouting delivers a routing event to every subscriber. The event
// detector emits at window close, after the window's signals and before
// the pipeline's OnWindowClose marker, so per-stream ordering is
// signals → routing events → window marker.
func (h *Hub) PublishRouting(ev events.Event) {
	h.Fanout.Publish(Event{Routing: &ev, WindowStart: ev.WindowStart})
}

// PublishWindow delivers a window-close marker to every subscriber. The
// pipeline calls it after all of a window's signals have been published,
// so on any single subscriber's stream the marker strictly follows the
// window's signals (drop-oldest overflow can discard either — dropped
// counts surface the gap).
func (h *Hub) PublishWindow(ws int64) {
	h.Fanout.Publish(Event{WindowStart: ws, Window: true})
}
