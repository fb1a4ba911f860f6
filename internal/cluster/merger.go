package cluster

import (
	"fmt"
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

// merger multiplexes K workers' SSE streams into one totally-ordered
// stream. Workers delimit engine windows with `window` marker frames
// (every worker ingests the full feed, so all close the same windows);
// the merger buffers each worker's signals and flushes window W — all
// buffered signals of W sorted by rrr.SignalLess, then W's marker — once
// every connected worker has reported W closed. Because a single engine
// also emits each window signalLess-sorted and marker-terminated, the
// merged stream is byte-identical to a single daemon's.
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
	mu        sync.Mutex
	workers   int
	started   bool // all workers connected at least once; no flush before
	connected []bool
	everConn  []bool
	buf       [][]sigEvent
	rbuf      [][]routingEvent
	markQ     [][]int64
	// partReps maps each partition to its replica workers, for coverage.
	partReps [][]int
	// Windows flushed while some partition had no connected replica: the
	// gap surfaced once coverage returns.
	lossyCount int
	lossyFirst int64
	lossyLast  int64
	flushed    int64
	hasFlushed bool
	hub        *server.Fanout[[]byte]
}

func newMerger(workers int, hub *server.Fanout[[]byte], ring *Ring) *merger {
	partReps := make([][]int, ring.Partitions())
	for p := range partReps {
		partReps[p] = ring.Replicas(p)
	}
	return &merger{
		workers:   workers,
		connected: make([]bool, workers),
		everConn:  make([]bool, workers),
		buf:       make([][]sigEvent, workers),
		rbuf:      make([][]routingEvent, workers),
		markQ:     make([][]int64, workers),
		partReps:  partReps,
		hub:       hub,
	}
}

func (m *merger) setConnected(w int, up bool) {
	m.mu.Lock()
	wasUp := m.connected[w]
	m.connected[w] = up
	if up {
		m.everConn[w] = true
		if !m.started {
			all := true
			for _, ever := range m.everConn {
				all = all && ever
			}
			m.started = all
		}
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
		// The stream died mid-window: whatever it buffered was never
		// confirmed by a marker and will not be re-sent on reconnect.
		metClusterStreamLate.Add(uint64(len(m.buf[w]) + len(m.rbuf[w])))
		m.buf[w] = nil
		m.rbuf[w] = nil
		m.markQ[w] = nil
	}
	n := int64(0)
	for _, c := range m.connected {
		if c {
			n++
		}
	}
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
			if m.connected[w] {
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
	for _, c := range m.connected {
		if !c {
			return false
		}
	}
	return true
}

func (m *merger) signal(w int, sig rrr.Signal, raw []byte) {
	m.mu.Lock()
	if m.hasFlushed && sig.WindowStart <= m.flushed {
		// Late arrival for a window the barrier already emitted; keeping
		// it would reorder the client stream.
		metClusterStreamLate.Inc()
		m.mu.Unlock()
		return
	}
	m.buf[w] = append(m.buf[w], sigEvent{sig: sig, raw: raw})
	m.mu.Unlock()
}

func (m *merger) routing(w int, ev events.Event, raw []byte) {
	m.mu.Lock()
	if m.hasFlushed && ev.WindowStart <= m.flushed {
		metClusterStreamLate.Inc()
		m.mu.Unlock()
		return
	}
	m.rbuf[w] = append(m.rbuf[w], routingEvent{ev: ev, raw: raw})
	m.mu.Unlock()
}

func (m *merger) marker(w int, ws int64) {
	m.mu.Lock()
	if m.hasFlushed && ws <= m.flushed {
		// Re-announced window (worker recovered and replayed); its
		// signals were either flushed already or are unrecoverable.
		m.mu.Unlock()
		return
	}
	m.markQ[w] = append(m.markQ[w], ws)
	m.tryFlushLocked()
	m.mu.Unlock()
}

// workerDropped propagates a worker-side ring overflow: the worker's own
// hub discarded n events before we read them, so the merged stream has an
// unquantifiable hole. Surface it like a reconnect gap.
func (m *merger) workerDropped(w int, n uint64) {
	metClusterStreamLate.Add(n)
	m.publishGap(`{"worker":%d,"droppedUpstream":%d}`, w, n)
}

// publishGap puts a `gap` frame — the router's own frame kind; no worker
// emits one — on the merged stream.
func (m *merger) publishGap(format string, args ...any) {
	metClusterStreamGaps.Inc()
	m.hub.Publish(server.SSEFrame("gap", fmt.Appendf(nil, format, args...)))
}

// tryFlushLocked advances the barrier. The candidate is the smallest head
// marker among connected workers; it flushes once every partition that
// has a connected replica at all has one that confirmed the candidate
// (head marker equal to it — a later head means the replica's signals for
// this window were lost to a disconnect, an empty queue that it hasn't
// closed the window yet). Replicas deliver identical bytes, so flushing
// on the first confirming replica emits the same window a full barrier
// would; the laggard's duplicates are dropped as late arrivals. Waiting
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
		for w := 0; w < m.workers; w++ {
			if !m.connected[w] || len(m.markQ[w]) == 0 {
				continue
			}
			if !have || m.markQ[w][0] < ws {
				ws = m.markQ[w][0]
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
				if !m.connected[w] {
					continue
				}
				anyConnected = true
				if len(m.markQ[w]) > 0 && m.markQ[w][0] == ws {
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
	for w := 0; w < m.workers; w++ {
		if len(m.markQ[w]) > 0 && m.markQ[w][0] == ws {
			m.markQ[w] = m.markQ[w][1:]
		}
		perWorker := make(map[string]int)
		keep := m.buf[w][:0]
		for _, ev := range m.buf[w] {
			if ev.sig.WindowStart <= ws {
				raw := string(ev.raw)
				perWorker[raw]++
				if a := aggs[raw]; a == nil {
					aggs[raw] = &sigAgg{ev: ev, count: perWorker[raw]}
				} else if perWorker[raw] > a.count {
					a.count = perWorker[raw]
				}
			} else {
				keep = append(keep, ev)
			}
		}
		m.buf[w] = keep
		// Routing events: every worker emits the identical stream (full
		// feed, identical detector), so the window's merged set is the
		// byte-level union-dedup of worker emissions.
		rkeep := m.rbuf[w][:0]
		for _, rev := range m.rbuf[w] {
			if rev.ev.WindowStart <= ws {
				if !seenRout[string(rev.raw)] {
					seenRout[string(rev.raw)] = true
					routs = append(routs, rev)
				}
			} else {
				rkeep = append(rkeep, rev)
			}
		}
		m.rbuf[w] = rkeep
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
	m.hasFlushed = true
}
