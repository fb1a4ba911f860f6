package feedwire

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
	"rrr/internal/wal"
)

// Policy selects what a stream does when the pipeline consumes slower
// than the wire delivers and the client buffer fills.
type Policy int

const (
	// PolicyBlock (the default) stops reading the socket: backpressure
	// propagates over TCP to the server, whose history keeps absorbing
	// the feed. Client memory stays bounded at Buffer records; nothing is
	// ever dropped.
	PolicyBlock Policy = iota

	// PolicyDisconnect drops the connection after the buffer has been
	// full for StallTimeout: buffered records still drain to the
	// pipeline, then Read reports a transient error so RetryPolicy
	// reopens the stream window-aligned — recovery is exactly-once via
	// positional replay, trading a reconnect for never parking a stalled
	// socket on the server.
	PolicyDisconnect
)

// ParsePolicy maps a flag string to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "block":
		return PolicyBlock, nil
	case "disconnect":
		return PolicyDisconnect, nil
	default:
		return 0, fmt.Errorf("feedwire: unknown buffer policy %q (want block or disconnect)", s)
	}
}

// DefaultBuffer is the per-stream client record buffer when
// ConnectorConfig.Buffer is zero.
const DefaultBuffer = 256

// ConnectorConfig tunes the client side of the feed wire.
type ConnectorConfig struct {
	// Addr is the rrrfeedd host:port.
	Addr string
	// Buffer bounds records parked between the socket reader and the
	// pipeline, per stream (DefaultBuffer when 0).
	Buffer int
	// Policy picks the full-buffer behavior; see Policy.
	Policy Policy
	// StallTimeout is how long PolicyDisconnect tolerates a full buffer
	// before dropping the connection (default 5s).
	StallTimeout time.Duration
}

// dialTimeout bounds each dial.
const dialTimeout = 5 * time.Second

func (c ConnectorConfig) withDefaults() ConnectorConfig {
	if c.Buffer <= 0 {
		c.Buffer = DefaultBuffer
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 5 * time.Second
	}
	return c
}

// Connector opens wire-fed pipeline sources against one feed server. Its
// OpenUpdates/OpenTraces methods have exactly the shape of rrr's
// PipelineConfig.OpenUpdates/OpenTraces factories: every call dials a
// fresh connection resuming from since, so the pipeline's reopen path is
// the reconnect path. Close drops any streams the pipeline abandoned.
type Connector struct {
	cfg ConnectorConfig

	mu      sync.Mutex
	opened  map[byte]int // per-stream open count, for the reconnect metric
	streams map[*stream]struct{}
	closed  bool
}

// NewConnector builds a connector for the server at cfg.Addr.
func NewConnector(cfg ConnectorConfig) *Connector {
	return &Connector{
		cfg:     cfg.withDefaults(),
		opened:  make(map[byte]int),
		streams: make(map[*stream]struct{}),
	}
}

// OpenUpdates dials a fresh update stream resuming from since
// (rrr.ResumeAll for the beginning).
func (c *Connector) OpenUpdates(since int64) (UpdateSource, error) {
	st, err := c.open(StreamUpdates, since)
	if err != nil {
		return nil, err
	}
	return updateStream{st}, nil
}

// OpenTraces dials a fresh traceroute stream resuming from since.
func (c *Connector) OpenTraces(since int64) (TraceSource, error) {
	st, err := c.open(StreamTraces, since)
	if err != nil {
		return nil, err
	}
	return traceStream{st}, nil
}

// Close drops every stream this connector opened; subsequent opens fail.
// The pipeline never closes its sources, so the daemon defers this to
// reap connections the pipeline abandoned at shutdown.
func (c *Connector) Close() error {
	c.mu.Lock()
	c.closed = true
	sts := make([]*stream, 0, len(c.streams))
	for st := range c.streams {
		sts = append(sts, st)
	}
	c.streams = make(map[*stream]struct{})
	c.mu.Unlock()
	for _, st := range sts {
		st.shutdown()
	}
	return nil
}

func streamName(stream byte) string {
	if stream == StreamUpdates {
		return "updates"
	}
	return "traces"
}

// connErr marks wire failures the pipeline should retry: dials refused,
// connections cut mid-frame, checksum mismatches, stall-policy drops. It
// satisfies rrr.IsTransientError via Temporary.
type connErr struct{ err error }

func (e *connErr) Error() string   { return "feedwire: " + e.err.Error() }
func (e *connErr) Unwrap() error   { return e.err }
func (e *connErr) Temporary() bool { return true }

func transient(err error) error { return &connErr{err: err} }

// item is one buffered delivery: a record, or the stream's terminal
// error (io.EOF for a clean end).
type item struct {
	rec wal.Record
	err error
}

// stream is one live connection's client half: a socket-reader goroutine
// filling a bounded channel the pipeline drains via Read.
type stream struct {
	c    *Connector
	kind byte
	met  streamMetrics
	conn net.Conn
	buf  chan item
	done chan struct{} // closed by shutdown; releases a blocked reader

	closeOnce sync.Once
	final     error // sticky terminal error once buf drains
}

func (c *Connector) open(kind byte, since int64) (*stream, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("feedwire: connector closed")
	}
	nth := c.opened[kind]
	c.mu.Unlock()

	met := newStreamMetrics(streamName(kind))
	conn, err := net.DialTimeout("tcp", c.cfg.Addr, dialTimeout)
	if err != nil {
		return nil, transient(err)
	}
	fw := NewFrameWriter(conn)
	if _, err := io.WriteString(conn, Magic); err != nil {
		conn.Close()
		return nil, transient(err)
	}
	if err := fw.WriteHello(kind, since); err != nil {
		conn.Close()
		return nil, transient(err)
	}
	fr := NewFrameReader(conn)
	ack, err := fr.Read()
	if err != nil {
		conn.Close()
		return nil, transient(err)
	}
	if ack.Kind == kindError {
		conn.Close()
		return nil, fmt.Errorf("feedwire: server rejected stream: %s", ack.Msg)
	}
	if ack.Kind != kindHelloAck {
		conn.Close()
		return nil, transient(fmt.Errorf("expected hello-ack, got frame kind %d", ack.Kind))
	}
	if ack.Start != since {
		// The server can no longer serve our resume point: records in
		// [since, ack.Start) were trimmed. Count the gap and carry on
		// from what remains — the alternative is never catching up.
		met.resumeGaps.Inc()
	}

	met.connects.Inc()
	if nth > 0 {
		met.reconnects.Inc()
	}

	st := &stream{
		c:    c,
		kind: kind,
		met:  met,
		conn: conn,
		buf:  make(chan item, c.cfg.Buffer),
		done: make(chan struct{}),
	}
	c.mu.Lock()
	c.opened[kind] = nth + 1
	c.streams[st] = struct{}{}
	c.mu.Unlock()

	go st.pump(fr)
	return st, nil
}

// shutdown force-closes the stream: the socket reader unblocks and exits,
// and a pipeline goroutine blocked in Read gets a terminal error.
func (st *stream) shutdown() {
	st.closeOnce.Do(func() {
		close(st.done)
		st.conn.Close()
	})
}

func (st *stream) unregister() {
	st.c.mu.Lock()
	delete(st.c.streams, st)
	st.c.mu.Unlock()
}

// Terminal delivery failures distinguished by deliver.
var (
	errStreamClosed = fmt.Errorf("stream closed")
	errStalled      = fmt.Errorf("stalled consumer")
)

// deliver parks it in the buffer, honoring the slow-consumer policy. A
// non-nil return means the stream must stop reading the socket; the
// caller turns it into the single terminal enqueueErr.
func (st *stream) deliver(it item) error {
	select {
	case st.buf <- it:
		st.met.bufferDepth.Set(int64(len(st.buf)))
		return nil
	case <-st.done:
		return errStreamClosed
	default:
	}
	if st.c.cfg.Policy == PolicyBlock {
		// Stop consuming the socket until the pipeline catches up; the
		// server blocks in conn.Write — classic TCP backpressure.
		select {
		case st.buf <- it:
			st.met.bufferDepth.Set(int64(len(st.buf)))
			return nil
		case <-st.done:
			return errStreamClosed
		}
	}
	// PolicyDisconnect: tolerate the stall briefly, then cut the
	// connection. Buffered records still drain; the terminal transient
	// error makes the pipeline reopen window-aligned, so nothing the
	// engine sees is lost or doubled.
	t := time.NewTimer(st.c.cfg.StallTimeout)
	defer t.Stop()
	select {
	case st.buf <- it:
		st.met.bufferDepth.Set(int64(len(st.buf)))
		return nil
	case <-st.done:
		return errStreamClosed
	case <-t.C:
		st.met.dropped.Inc()
		st.conn.Close()
		return errStalled
	}
}

// enqueueErr appends the stream's terminal error after any buffered
// records, without blocking forever if the buffer is full (the error then
// rides st.final, checked once the buffer drains).
func (st *stream) enqueueErr(err error) {
	st.final = err
	select {
	case st.buf <- item{err: err}:
	default:
	}
	close(st.buf)
}

// pump reads frames off the socket into the buffer until the stream ends
// one way or another.
func (st *stream) pump(fr *FrameReader) {
	for {
		f, err := fr.Read()
		if err != nil {
			select {
			case <-st.done:
				st.enqueueErr(transient(fmt.Errorf("stream closed")))
			default:
				st.enqueueErr(transient(err))
			}
			return
		}
		switch f.Kind {
		case kindEOF:
			st.enqueueErr(io.EOF)
			return
		case kindError:
			st.enqueueErr(transient(fmt.Errorf("server error: %s", f.Msg)))
			return
		case kindWatermark:
			st.met.watermarks.Inc()
		case kindHelloAck:
			// Duplicate ack mid-stream: protocol violation.
			st.enqueueErr(transient(fmt.Errorf("unexpected hello-ack mid-stream")))
			return
		default:
			st.met.frames.Inc()
			if err := st.deliver(item{rec: wal.Record{Update: f.Update, Trace: f.Trace}}); err != nil {
				if err == errStalled {
					err = fmt.Errorf("dropped stalled connection (buffer full for %s)", st.c.cfg.StallTimeout)
				}
				st.enqueueErr(transient(err))
				return
			}
		}
	}
}

// read pops the next record, blocking on the wire as needed. Terminal
// errors are sticky.
func (st *stream) read() (wal.Record, error) {
	it, ok := <-st.buf
	if !ok {
		err := st.final
		if err == nil {
			err = io.EOF
		}
		return wal.Record{}, err
	}
	st.met.bufferDepth.Set(int64(len(st.buf)))
	if it.err != nil {
		st.unregister()
		return wal.Record{}, it.err
	}
	return it.rec, nil
}

// updateStream adapts a stream to bgp.UpdateSource.
type updateStream struct{ st *stream }

func (s updateStream) Read() (bgp.Update, error) {
	rec, err := s.st.read()
	if err != nil {
		return bgp.Update{}, err
	}
	if rec.Update == nil {
		s.st.shutdown()
		return bgp.Update{}, transient(fmt.Errorf("trace record on update stream"))
	}
	return *rec.Update, nil
}

// traceStream adapts a stream to the pipeline's TraceSource.
type traceStream struct{ st *stream }

func (s traceStream) Read() (*traceroute.Traceroute, error) {
	rec, err := s.st.read()
	if err != nil {
		return nil, err
	}
	if rec.Trace == nil {
		s.st.shutdown()
		return nil, transient(fmt.Errorf("update record on trace stream"))
	}
	return rec.Trace, nil
}
