// Package feedwire is the project's network feed boundary: it serves the
// simulator's BGP-update and traceroute streams over TCP (cmd/rrrfeedd)
// and connects a daemon's ingestion pipeline to such a server (the
// client connector cmd/rrrd mounts as a reopenable pipeline source).
//
// Wire protocol. A connection carries exactly one stream (updates or
// traces). After the 8-byte protocol magic (client→server), the client
// sends a hello frame naming the stream and its resume point; the server
// answers with a hello-ack carrying the timestamp it will actually start
// from, then streams record frames interleaved with watermark frames at
// every window boundary, ending with an EOF frame when the feed is
// exhausted. Every frame reuses the WAL's on-disk framing — length
// uint32 + CRC32C uint32 + payload — and record payloads reuse the WAL's
// record codec verbatim (kind 1 = one bgp binary-codec update, kind 2 =
// traceroute body), so the network and the log speak one format. Control
// payloads use kinds from 0x10 up, outside the WAL's record-kind space.
//
// Buffered framing. Each frame is encoded into its writer's reused buffer,
// and both ends keep a 64 KiB buffer over the socket, so a consumer that
// is catching up receives many frames per read. The server flushes after
// the hello-ack, whenever its history has no next record yet (before it
// waits for one), and when the connection ends: a record never waits in
// the buffer for a later one to push it out.
//
// Failure surface. A connection cut mid-frame decodes as
// io.ErrUnexpectedEOF, and a checksum mismatch or undecodable payload as
// an error matching wal.ErrCorruptFrame (wal.FrameReader reads and checks
// the frames of both the log and the wire). The client connector wraps
// both as transient errors so the pipeline's RetryPolicy reconnects and
// resumes window-aligned (positional replay makes the recovery
// exactly-once). Torn (short) reads are absorbed by io.ReadFull and never
// corrupt a parse.
package feedwire

import (
	"encoding/binary"
	"fmt"
	"io"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
	"rrr/internal/wal"
)

// magic opens every feedwire connection (client→server), versioned
// separately from the frame payloads so an incompatible framing change
// fails the handshake instead of desyncing mid-stream.
const magic = "RRRFEED1"

// Stream identifiers carried in hello frames.
const (
	// StreamUpdates selects the BGP update feed.
	StreamUpdates byte = 1
	// StreamTraces selects the public traceroute feed.
	StreamTraces byte = 2
)

// Control payload kinds. Record kinds 1 and 2 belong to the WAL codec;
// control frames start at 0x10 so the two spaces can never collide.
const (
	kindHello     byte = 0x10
	kindHelloAck  byte = 0x11
	kindWatermark byte = 0x12
	kindEOF       byte = 0x13
	kindError     byte = 0x14
)

// errCorruptFrame reports a frame whose checksum did not match or whose
// payload failed to decode: the stream position can no longer be trusted
// and the connection must be re-established.
var errCorruptFrame = wal.ErrCorruptFrame

// Frame is one decoded wire frame; exactly one of the kind-specific
// groups is meaningful.
type Frame struct {
	Kind byte

	// Update/Trace carry a record frame's payload (Kind 1 or 2). The
	// update is held by value, so decoding one allocates nothing.
	Update bgp.Update
	Trace  *traceroute.Traceroute

	// Stream and Since carry a hello frame's stream selector and resume
	// point (ResumeAll for "from the beginning").
	Stream byte
	Since  int64

	// Start is a hello-ack's actual serving start: the timestamp of the
	// first record the server will deliver, or Since echoed when the
	// requested resume point is still retained.
	Start int64

	// Watermark is a watermark frame's completed window start.
	Watermark int64

	// Msg is an error frame's human-readable cause.
	Msg string
}

// FrameWriter frames payloads onto one connection. Each frame is built
// in the writer's own buffer and handed to w in one Write. Not safe for
// concurrent use; each serving goroutine owns its writer.
type FrameWriter struct {
	w   io.Writer
	buf []byte
}

// NewFrameWriter wraps w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w}
}

func (fw *FrameWriter) writePayload(payload []byte) error {
	return fw.send(wal.AppendRecordFrame(fw.buf[:0], payload), nil)
}

// send writes the frame built in fw's buffer, keeping the buffer for the
// next frame.
func (fw *FrameWriter) send(frame []byte, err error) error {
	if err != nil {
		return err
	}
	fw.buf = frame
	_, err = fw.w.Write(frame)
	return err
}

// WriteUpdate frames one BGP update record.
func (fw *FrameWriter) WriteUpdate(u bgp.Update) error {
	return fw.send(wal.AppendUpdateFrame(fw.buf[:0], u))
}

// WriteTrace frames one traceroute record.
func (fw *FrameWriter) WriteTrace(t *traceroute.Traceroute) error {
	return fw.send(wal.AppendTraceFrame(fw.buf[:0], t))
}

// writeHello frames the client handshake: stream selector + resume point.
func (fw *FrameWriter) writeHello(stream byte, since int64) error {
	p := make([]byte, 0, 10)
	p = append(p, kindHello, stream)
	p = binary.BigEndian.AppendUint64(p, uint64(since))
	return fw.writePayload(p)
}

// writeHelloAck frames the server's handshake answer: the timestamp it
// will actually serve from.
func (fw *FrameWriter) writeHelloAck(start int64) error {
	p := make([]byte, 0, 9)
	p = append(p, kindHelloAck)
	p = binary.BigEndian.AppendUint64(p, uint64(start))
	return fw.writePayload(p)
}

// writeWatermark frames a completed window boundary.
func (fw *FrameWriter) writeWatermark(windowStart int64) error {
	p := make([]byte, 0, 9)
	p = append(p, kindWatermark)
	p = binary.BigEndian.AppendUint64(p, uint64(windowStart))
	return fw.writePayload(p)
}

// writeEOF frames the end of the feed (the stream is exhausted, not
// broken).
func (fw *FrameWriter) writeEOF() error {
	return fw.writePayload([]byte{kindEOF})
}

// writeError frames a terminal server-side error.
func (fw *FrameWriter) writeError(msg string) error {
	p := make([]byte, 0, 1+len(msg))
	p = append(p, kindError)
	p = append(p, msg...)
	return fw.writePayload(p)
}

// FrameReader decodes frames off one connection. Not safe for concurrent
// use.
type FrameReader struct {
	frames *wal.FrameReader
	// dec carves the Path and Communities of decoded updates.
	dec bgp.Decoder
}

// NewFrameReader wraps r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{frames: wal.NewFrameReader(r)}
}

// Read decodes the next frame. A clean cut at a frame boundary returns
// io.EOF; a cut inside a frame returns io.ErrUnexpectedEOF; a checksum
// or payload-decode failure returns an error wrapping errCorruptFrame.
func (fr *FrameReader) Read() (Frame, error) {
	p, err := fr.frames.Next()
	if err != nil {
		return Frame{}, err
	}
	return fr.decodeFrame(p)
}

func (fr *FrameReader) decodeFrame(p []byte) (Frame, error) {
	if wal.IsRecordKind(p[0]) {
		u, t, err := wal.DecodeRecordParts(&fr.dec, p)
		if err != nil {
			return Frame{}, fmt.Errorf("%w: %v", errCorruptFrame, err)
		}
		return Frame{Kind: p[0], Update: u, Trace: t}, nil
	}
	switch p[0] {
	case kindHello:
		if len(p) != 10 {
			return Frame{}, fmt.Errorf("%w: hello frame length %d", errCorruptFrame, len(p))
		}
		return Frame{Kind: kindHello, Stream: p[1], Since: int64(binary.BigEndian.Uint64(p[2:10]))}, nil
	case kindHelloAck:
		if len(p) != 9 {
			return Frame{}, fmt.Errorf("%w: hello-ack frame length %d", errCorruptFrame, len(p))
		}
		return Frame{Kind: kindHelloAck, Start: int64(binary.BigEndian.Uint64(p[1:9]))}, nil
	case kindWatermark:
		if len(p) != 9 {
			return Frame{}, fmt.Errorf("%w: watermark frame length %d", errCorruptFrame, len(p))
		}
		return Frame{Kind: kindWatermark, Watermark: int64(binary.BigEndian.Uint64(p[1:9]))}, nil
	case kindEOF:
		if len(p) != 1 {
			return Frame{}, fmt.Errorf("%w: eof frame length %d", errCorruptFrame, len(p))
		}
		return Frame{Kind: kindEOF}, nil
	case kindError:
		return Frame{Kind: kindError, Msg: string(p[1:])}, nil
	default:
		return Frame{}, fmt.Errorf("%w: unknown frame kind %d", errCorruptFrame, p[0])
	}
}
