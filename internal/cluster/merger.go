package cluster

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"rrr"
	"rrr/internal/events"
	"rrr/internal/server"
)

// --- window-barrier merger ---

// sigEvent pairs a worker signal's parsed form (for ordering) with the
// exact bytes the worker put on the wire (for re-emission): the merged
// stream never re-marshals, so it cannot drift from worker output.
type sigEvent struct {
	sig rrr.Signal
	raw []byte
}

// routingEvent pairs a worker routing event's parsed form (for ordering
// and dedup) with its wire bytes, like sigEvent. Every worker ingests the
// full feed and runs an identical detector, so the merged stream is the
// per-window union-dedup of identical emissions.
type routingEvent struct {
	ev  events.Event
	raw []byte
}

// segment is one worker's frames up to its window marker ws.
type segment struct {
	ws    int64
	sigs  []sigEvent
	routs []routingEvent
}

// workerStream is the merger's view of one worker's SSE stream.
type workerStream struct {
	connected, everConn bool
	attached            int64     // the flushed window when the stream attached
	last                int64     // the stream's last marker; math.MinInt64 before one
	open                segment   // frames since the last marker
	closed              []segment // marked, unflushed segments, oldest first
}

// merger multiplexes K workers' SSE streams into one totally-ordered
// stream. Workers delimit engine windows with `window` marker frames
// (every worker ingests the full feed, so all close the same windows). A
// close publishes its signals, its routing events, then its marker, so a
// frame belongs to the window whose marker follows it on its worker's
// stream, even when it is about an older series window (§4.2.1 subpaths
// choose their own). The merger flushes window W — W's frames sorted by
// rrr.SignalLess and events.EventLess, then W's marker — once the barrier
// admits W. A single engine also emits each window signalLess-sorted and
// marker-terminated, so the merged stream is byte-identical to a single
// daemon's.
//
// Replication: each partition's signals arrive from every connected
// replica, so the flush dedups identical signal bytes down to their
// per-worker multiplicity (a lone daemon can legitimately emit the same
// bytes twice in a window; two replicas each reporting it once must not).
// That same redundancy is what makes failover invisible: while at least
// one replica of every partition stays connected, a window's merged
// signal set is complete and byte-identical to a single daemon's, so a
// worker disconnecting and reconnecting leaves no mark on the stream.
//
// Degradation: a disconnected worker is excluded from the barrier so the
// survivors' stream keeps flowing. Only when some partition has no
// connected replica at all do flushed windows actually lose signals; the
// merger counts those lossy windows and surfaces a `gap` frame —
// with the count and window range, so consumers can size a catch-up
// fetch — once coverage is restored.
type merger struct {
	mu      sync.Mutex
	started bool // all workers connected at least once; no flush before
	streams []workerStream
	// partReps maps each partition to its replica workers, for coverage.
	partReps [][]int
	// Windows flushed while some partition had no connected replica: the
	// gap surfaced once coverage returns.
	lossyCount int
	lossyFirst int64
	lossyLast  int64
	flushed    int64 // the last flushed window; math.MinInt64 before the first
	hub        *server.Stream
}

func newMerger(workers int, hub *server.Stream, ring *Ring) *merger {
	partReps := make([][]int, ring.Partitions())
	for p := range partReps {
		partReps[p] = ring.Replicas(p)
	}
	return &merger{
		streams:  make([]workerStream, workers),
		partReps: partReps,
		flushed:  math.MinInt64,
		hub:      hub,
	}
}

func (m *merger) setConnected(w int, up bool) {
	m.mu.Lock()
	s := &m.streams[w]
	wasUp := s.connected
	s.connected = up
	if up {
		s.everConn = true
		s.attached, s.last = m.flushed, math.MinInt64
		if m.lossyCount > 0 && m.coveredLocked() {
			// Coverage is back, but the windows flushed while some
			// partition had no connected replica are missing signals the
			// merged stream will never re-send; say so — with the count
			// and range, so consumers can size their catch-up fetch —
			// rather than splicing silently.
			m.publishGap(`{"missedWindows":%d,"firstMissedWindow":%d,"lastMissedWindow":%d}`,
				m.lossyCount, m.lossyFirst, m.lossyLast)
			m.lossyCount = 0
		}
	} else if wasUp {
		// The stream died: nothing it delivered since the last flush will
		// be re-sent on reconnect.
		for _, seg := range append(s.closed, s.open) {
			metClusterStreamLate.Add(uint64(len(seg.sigs) + len(seg.routs)))
		}
		s.open, s.closed = segment{}, nil
	}
	n, all := int64(0), true
	for _, o := range m.streams {
		if o.connected {
			n++
		}
		all = all && o.everConn
	}
	m.started = all
	metClusterWorkerConnected.Set(n)
	m.tryFlushLocked()
	m.mu.Unlock()
}

// coveredLocked reports whether every partition has at least one replica
// whose stream is attached — the condition under which flushed windows
// carry their complete signal set. Callers hold m.mu.
func (m *merger) coveredLocked() bool {
	for _, reps := range m.partReps {
		live := false
		for _, w := range reps {
			if m.streams[w].connected {
				live = true
				break
			}
		}
		if !live {
			return false
		}
	}
	return true
}

// covered is coveredLocked for external callers (router readiness).
func (m *merger) covered() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.coveredLocked()
}

// allConnected reports whether every worker stream is currently attached.
func (m *merger) allConnected() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.streams {
		if !s.connected {
			return false
		}
	}
	return true
}

func (m *merger) signal(w int, sig rrr.Signal, raw []byte) {
	m.mu.Lock()
	m.streams[w].open.sigs = append(m.streams[w].open.sigs, sigEvent{sig: sig, raw: raw})
	m.mu.Unlock()
}

func (m *merger) routing(w int, ev events.Event, raw []byte) {
	m.mu.Lock()
	m.streams[w].open.routs = append(m.streams[w].open.routs, routingEvent{ev: ev, raw: raw})
	m.mu.Unlock()
}

// marker closes worker w's open segment as window ws. A flushed window's
// segment is dropped: a replica's duplicate, or, from a stream that
// attached after the flush (a recovered worker replaying), late.
func (m *merger) marker(w int, ws int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &m.streams[w]
	seg := s.open
	seg.ws, s.last, s.open = ws, ws, segment{}
	if ws <= m.flushed {
		if ws <= s.attached {
			metClusterStreamLate.Add(uint64(len(seg.sigs) + len(seg.routs)))
		}
		return
	}
	s.closed = append(s.closed, seg)
	m.tryFlushLocked()
}

// workerDropped propagates a worker-side loss: the worker's stream log
// trimmed n frames before we read them, so the merged stream has an
// unquantifiable hole. Surface it like a reconnect gap. The gap is
// published under m.mu, so it lands between windows, never inside one
// that another worker's marker is flushing.
func (m *merger) workerDropped(w int, n uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	metClusterStreamLate.Add(n)
	m.publishGap(`{"worker":%d,"droppedUpstream":%d}`, w, n)
}

// publishGap puts a `gap` frame — the router's own frame kind; no worker
// emits one — on the merged stream. Callers hold m.mu.
func (m *merger) publishGap(format string, args ...any) {
	metClusterStreamGaps.Inc()
	m.hub.Publish(server.SSEFrame("gap", fmt.Appendf(nil, format, args...)))
}

// tryFlushLocked advances the barrier. The candidate is the smallest head
// segment's window among connected workers; it flushes once every
// partition that has a connected replica at all has one that confirmed
// the candidate (head segment stamped with it — a later head means the
// replica's frames for this window were lost to a disconnect, an empty
// queue that it hasn't closed the window yet). Replicas deliver identical
// bytes, so flushing on the first confirming replica emits the same
// window a full barrier would; the flush takes what a laggard has
// delivered of the window, and marker drops the rest. Waiting
// for every connected worker instead would wedge the stream on a replica
// that reconnected after its feed ended and will never mark again.
// Partitions with no connected replica cannot be saved by waiting; they
// flush lossy and are accounted by the gap frame. Callers hold m.mu.
func (m *merger) tryFlushLocked() {
	if !m.started {
		return
	}
	for {
		ws := int64(0)
		have := false
		for _, s := range m.streams {
			if !s.connected || len(s.closed) == 0 {
				continue
			}
			if head := s.closed[0].ws; !have || head < ws {
				ws = head
				have = true
			}
		}
		if !have {
			return
		}
		for _, reps := range m.partReps {
			anyConnected := false
			confirmed := false
			for _, w := range reps {
				if !m.streams[w].connected {
					continue
				}
				anyConnected = true
				if c := m.streams[w].closed; len(c) > 0 && c[0].ws == ws {
					confirmed = true
					break
				}
			}
			if anyConnected && !confirmed {
				return // a live replica of this partition hasn't closed ws yet
			}
		}
		m.flushWindowLocked(ws)
	}
}

func (m *merger) flushWindowLocked(ws int64) {
	// Signals: replicas deliver identical bytes for the same signal, so
	// the window keeps each distinct byte string at its maximum per-worker
	// multiplicity — one replica's full view, never the replica-count
	// multiple, and a reconnect's partial buffer never shadows its
	// partner's complete one.
	type sigAgg struct {
		ev    sigEvent
		count int
	}
	aggs := make(map[string]*sigAgg)
	var routs []routingEvent
	seenRout := make(map[string]bool)
	for w := range m.streams {
		s := &m.streams[w]
		var seg segment
		switch {
		case len(s.closed) > 0 && s.closed[0].ws == ws:
			seg, s.closed = s.closed[0], s.closed[1:]
		case s.last == m.flushed: // a laggard: its frames so far are ws's
			seg, s.open = s.open, segment{}
		default:
			continue
		}
		perWorker := make(map[string]int)
		for _, ev := range seg.sigs {
			raw := string(ev.raw)
			perWorker[raw]++
			if a := aggs[raw]; a == nil {
				aggs[raw] = &sigAgg{ev: ev, count: perWorker[raw]}
			} else if perWorker[raw] > a.count {
				a.count = perWorker[raw]
			}
		}
		// Routing events: every worker emits the identical stream (full
		// feed, identical detector), so the window's merged set is the
		// byte-level union-dedup of worker emissions.
		for _, rev := range seg.routs {
			if !seenRout[string(rev.raw)] {
				seenRout[string(rev.raw)] = true
				routs = append(routs, rev)
			}
		}
	}
	if !m.coveredLocked() {
		// Some partition had no connected replica while this window
		// closed: its signals are simply absent. Record the loss for the
		// gap frame emitted when coverage returns.
		if m.lossyCount == 0 {
			m.lossyFirst = ws
		}
		m.lossyCount++
		m.lossyLast = ws
	}
	sigs := make([]sigEvent, 0, len(aggs))
	for _, a := range aggs {
		for i := 0; i < a.count; i++ {
			sigs = append(sigs, a.ev)
		}
	}
	sort.Slice(sigs, func(i, j int) bool {
		if rrr.SignalLess(sigs[i].sig, sigs[j].sig) {
			return true
		}
		if rrr.SignalLess(sigs[j].sig, sigs[i].sig) {
			return false
		}
		// SignalLess ties with distinct bytes (only formatting could
		// differ) break on the wire form so the map's iteration order
		// can't leak into the stream.
		return string(sigs[i].raw) < string(sigs[j].raw)
	})
	for _, ev := range sigs {
		m.hub.Publish(server.SSEFrame("signal", ev.raw))
		metClusterStreamSignals.Inc()
	}
	sort.SliceStable(routs, func(i, j int) bool { return events.EventLess(routs[i].ev, routs[j].ev) })
	for _, rev := range routs {
		m.hub.Publish(server.SSEFrame("routing", rev.raw))
		metClusterStreamRouting.Inc()
	}
	m.hub.Publish(server.WindowFrame(ws))
	metClusterStreamWindows.Inc()
	m.flushed = ws
}
