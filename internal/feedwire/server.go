package feedwire

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
	"rrr/internal/wal"
)

// UpdateSource is the update feed the server drains (= bgp.UpdateSource);
// the client connector's opened streams satisfy it too.
type UpdateSource interface {
	Read() (bgp.Update, error)
}

// TraceSource is the traceroute feed shape shared with rrr.RunPipeline.
type TraceSource interface {
	Read() (*traceroute.Traceroute, error)
}

// ResumeAll mirrors rrr.ResumeAll: a hello since value requesting the feed
// from its beginning. (Redeclared to keep feedwire import-free of the root
// package; the values are both math.MinInt64 and wire-compatible.)
const ResumeAll = math.MinInt64

// Config tunes a feed server.
type Config struct {
	// WindowSec is the analysis window length; the server frames a
	// watermark whenever the record stream crosses a window boundary.
	// Required (> 0).
	WindowSec int64

	// HistoryWindows bounds retained history per stream to roughly this
	// many windows behind the newest record; 0 retains everything (the
	// mode that guarantees lossless window-aligned resume). A reconnect
	// asking for trimmed history is answered with a hello-ack start past
	// its request — an explicit resume gap, never silent loss.
	HistoryWindows int
}

// Server retains each stream's records in an in-memory history and serves
// any number of connections from it, each at its own cursor. Slow
// consumers exert natural TCP backpressure: a serving goroutine blocks in
// conn.Write while the history (bounded by HistoryWindows) keeps
// absorbing the feed.
type Server struct {
	cfg     Config
	updates *history
	traces  *history

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds a feed server; call AppendUpdate/AppendTrace (or Pump)
// to feed it and Serve to accept connections.
func NewServer(cfg Config) (*Server, error) {
	if cfg.WindowSec <= 0 {
		return nil, errors.New("feedwire: Config.WindowSec must be positive")
	}
	return &Server{
		cfg:     cfg,
		updates: newHistory(),
		traces:  newHistory(),
		conns:   make(map[net.Conn]struct{}),
	}, nil
}

func (s *Server) historyFor(stream byte) *history {
	switch stream {
	case StreamUpdates:
		return s.updates
	case StreamTraces:
		return s.traces
	default:
		return nil
	}
}

func (s *Server) horizon() int64 {
	if s.cfg.HistoryWindows <= 0 {
		return math.MinInt64
	}
	return int64(s.cfg.HistoryWindows) * s.cfg.WindowSec
}

// AppendUpdate adds one BGP update to the update stream's history.
func (s *Server) AppendUpdate(u bgp.Update) {
	uc := u
	s.updates.append(wal.Record{Update: &uc}, s.horizon())
}

// AppendTrace adds one traceroute to the trace stream's history.
func (s *Server) AppendTrace(t *traceroute.Traceroute) {
	s.traces.append(wal.Record{Trace: t}, s.horizon())
}

// CloseStream marks a stream exhausted; err, when non-nil, is surfaced to
// clients as an error frame instead of a clean EOF.
func (s *Server) CloseStream(stream byte, err error) {
	h := s.historyFor(stream)
	if h == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	h.closeFeed(msg)
}

// Pump drains both feeds into the server's histories on background
// goroutines, closing each stream when its source reports io.EOF (or
// surfacing any other error to clients). It returns immediately.
func (s *Server) Pump(us UpdateSource, ts TraceSource) {
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		for {
			u, err := us.Read()
			if err != nil {
				if err != io.EOF {
					s.CloseStream(StreamUpdates, err)
				} else {
					s.CloseStream(StreamUpdates, nil)
				}
				return
			}
			s.AppendUpdate(u)
		}
	}()
	go func() {
		defer s.wg.Done()
		for {
			t, err := ts.Read()
			if err != nil {
				if err != io.EOF {
					s.CloseStream(StreamTraces, err)
				} else {
					s.CloseStream(StreamTraces, nil)
				}
				return
			}
			s.AppendTrace(t)
		}
	}()
}

// Serve accepts connections on lis until Close. Each connection is served
// on its own goroutine; Serve itself blocks.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("feedwire: server closed")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, drops every live connection, and releases any
// serving goroutine still blocked on history growth.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	s.updates.closeFeed("server shutting down")
	s.traces.closeFeed("server shutting down")
	s.wg.Wait()
	return nil
}

// serveConn runs one connection: handshake, then stream records from the
// requested resume point with watermarks at window boundaries.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	fw := NewFrameWriter(conn)

	hello := make([]byte, len(magic))
	if _, err := io.ReadFull(conn, hello); err != nil {
		return
	}
	if string(hello) != magic {
		fw.writeError(fmt.Sprintf("bad protocol magic %q", hello))
		return
	}
	f, err := NewFrameReader(conn).Read()
	if err != nil || f.Kind != kindHello {
		fw.writeError("expected hello frame")
		return
	}
	h := s.historyFor(f.Stream)
	if h == nil {
		fw.writeError(fmt.Sprintf("unknown stream %d", f.Stream))
		return
	}

	cursor, start := h.startAt(f.Since)
	if fw.writeHelloAck(start) != nil {
		return
	}

	lastWin := int64(math.MinInt64)
	for {
		rec, next, st, msg := h.next(cursor)
		switch st {
		case histRecord:
			// Watermark every completed window the stream has moved past.
			if w := floorDiv(rec.Time(), s.cfg.WindowSec); w > lastWin {
				if lastWin != math.MinInt64 {
					if fw.writeWatermark((w-1)*s.cfg.WindowSec) != nil {
						return
					}
				}
				lastWin = w
			}
			var werr error
			if rec.Update != nil {
				werr = fw.WriteUpdate(*rec.Update)
			} else {
				werr = fw.WriteTrace(rec.Trace)
			}
			if werr != nil {
				return
			}
			cursor = next
		case histBehind:
			// The cursor fell behind retention mid-stream: records are
			// gone, so exactly-once delivery on this connection is dead.
			// Fail loudly and let the client reconnect (its hello-ack
			// will then carry the explicit resume gap).
			fw.writeError("consumer fell behind feed retention")
			return
		case histEOF:
			if lastWin != math.MinInt64 {
				if fw.writeWatermark(lastWin*s.cfg.WindowSec) != nil {
					return
				}
			}
			fw.writeEOF()
			return
		case histError:
			fw.writeError(msg)
			return
		}
	}
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// history status codes returned by next.
const (
	histRecord = iota
	histBehind
	histEOF
	histError
)

// history is one stream's retained record sequence: an append-only window
// over a global index space (base = global index of recs[0]), with
// blocking cursor reads and optional horizon-based trimming.
type history struct {
	mu   sync.Mutex
	cond *sync.Cond

	base    int64
	recs    []wal.Record
	times   []int64
	maxTime int64
	eof     bool
	errMsg  string
}

func newHistory() *history {
	h := &history{maxTime: math.MinInt64}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *history) append(rec wal.Record, horizon int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.eof {
		return
	}
	t := rec.Time()
	h.recs = append(h.recs, rec)
	h.times = append(h.times, t)
	if t > h.maxTime {
		h.maxTime = t
	}
	if horizon != math.MinInt64 {
		cut := h.maxTime - horizon
		n := sort.Search(len(h.times), func(i int) bool { return h.times[i] >= cut })
		if n > 0 {
			h.recs = append(h.recs[:0:0], h.recs[n:]...)
			h.times = append(h.times[:0:0], h.times[n:]...)
			h.base += int64(n)
		}
	}
	h.cond.Broadcast()
}

func (h *history) closeFeed(errMsg string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.eof {
		return
	}
	h.eof = true
	h.errMsg = errMsg
	h.cond.Broadcast()
}

// startAt maps a hello's since to (cursor, effective start). The start
// echoes since unless trimmed history makes records in [since, first
// retained) unrecoverable, in which case it reports the first retained
// record's timestamp — the client's resume-gap signal.
func (h *history) startAt(since int64) (cursor, start int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.Search(len(h.times), func(i int) bool { return h.times[i] >= since })
	start = since
	if h.base > 0 && (len(h.times) == 0 || since < h.times[0]) {
		// History before times[0] was trimmed; anything the client asked
		// for below that point may be gone.
		if i < len(h.times) {
			start = h.times[i]
		} else {
			start = h.maxTime
		}
	}
	return h.base + int64(i), start
}

// next blocks until the record at cursor exists (histRecord, returning
// the following cursor), the stream ends (histEOF/histError), or the
// cursor has been trimmed away (histBehind).
func (h *history) next(cursor int64) (rec wal.Record, next int64, status int, errMsg string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if cursor < h.base {
			return wal.Record{}, 0, histBehind, ""
		}
		if i := cursor - h.base; i < int64(len(h.recs)) {
			return h.recs[i], cursor + 1, histRecord, ""
		}
		if h.eof {
			if h.errMsg != "" {
				return wal.Record{}, 0, histError, h.errMsg
			}
			return wal.Record{}, 0, histEOF, ""
		}
		h.cond.Wait()
	}
}
