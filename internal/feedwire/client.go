package feedwire

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
)

// Policy once chose what a stream did when the pipeline fell behind.
//
// Deprecated: a stream has one behavior, TCP backpressure; the type goes
// once no caller names it.
type Policy int

// PolicyBlock was the default Policy, and is now the only behavior.
//
// Deprecated: kept only so existing callers compile; it has no effect.
const PolicyBlock Policy = 0

// ConnectorConfig tunes the client side of the feed wire.
type ConnectorConfig struct {
	// Addr is the rrrfeedd host:port.
	Addr string
	// Policy is ignored: a stream decodes frames on its reader's
	// goroutine, so a pipeline that falls behind stops reading the socket
	// and TCP stalls the server.
	//
	// Deprecated: set nothing here; the field goes once no caller sets it.
	Policy Policy
}

// dialTimeout bounds each dial.
const dialTimeout = 5 * time.Second

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
		cfg:     cfg,
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
// reap connections the pipeline abandoned at shutdown. A Read blocked on
// one of them returns a transient error.
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
		st.conn.Close()
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
// connections cut mid-frame or closed under a reader, checksum
// mismatches. It satisfies rrr.IsTransientError via Temporary.
type connErr struct{ err error }

func (e *connErr) Error() string   { return "feedwire: " + e.err.Error() }
func (e *connErr) Unwrap() error   { return e.err }
func (e *connErr) Temporary() bool { return true }

func transient(err error) error { return &connErr{err: err} }

// stream is one live connection's client half. Read decodes the next
// frame off the socket on the caller's goroutine, so the only buffers
// between the wire and the pipeline are the socket's and the pipeline's
// own channel: when that channel fills, its reader stops calling Read and
// TCP backpressure stalls the server.
type stream struct {
	c    *Connector
	met  streamMetrics
	conn net.Conn
	fr   *FrameReader
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
	if _, err := io.WriteString(conn, magic); err != nil {
		conn.Close()
		return nil, transient(err)
	}
	if err := fw.writeHello(kind, since); err != nil {
		conn.Close()
		return nil, transient(err)
	}
	fr := NewFrameReader(bufio.NewReaderSize(conn, connBufferBytes))
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

	st := &stream{c: c, met: met, conn: conn, fr: fr}
	c.mu.Lock()
	c.opened[kind] = nth + 1
	c.streams[st] = struct{}{}
	c.mu.Unlock()
	return st, nil
}

// end closes the stream and returns err, its terminal error.
func (st *stream) end(err error) (Frame, error) {
	st.conn.Close()
	st.c.mu.Lock()
	delete(st.c.streams, st)
	st.c.mu.Unlock()
	return Frame{}, err
}

// next returns the stream's next record frame, counting the watermarks it
// passes. Any error ends the stream: io.EOF when the server reports the
// feed exhausted, a transient error for everything else.
func (st *stream) next() (Frame, error) {
	for {
		f, err := st.fr.Read()
		if err != nil {
			return st.end(transient(err))
		}
		switch f.Kind {
		case kindEOF:
			return st.end(io.EOF)
		case kindError:
			return st.end(transient(fmt.Errorf("server error: %s", f.Msg)))
		case kindWatermark:
			st.met.watermarks.Inc()
		case kindHelloAck:
			// Duplicate ack mid-stream: protocol violation.
			return st.end(transient(fmt.Errorf("unexpected hello-ack mid-stream")))
		default:
			st.met.frames.Inc()
			return f, nil
		}
	}
}

// updateStream adapts a stream to bgp.UpdateSource.
type updateStream struct{ st *stream }

func (s updateStream) Read() (bgp.Update, error) {
	f, err := s.st.next()
	if err == nil && f.Trace != nil {
		_, err = s.st.end(transient(fmt.Errorf("trace record on update stream")))
	}
	return f.Update, err
}

// traceStream adapts a stream to the pipeline's TraceSource.
type traceStream struct{ st *stream }

func (s traceStream) Read() (*traceroute.Traceroute, error) {
	f, err := s.st.next()
	if err == nil && f.Trace == nil {
		_, err = s.st.end(transient(fmt.Errorf("update record on trace stream")))
	}
	return f.Trace, err
}
