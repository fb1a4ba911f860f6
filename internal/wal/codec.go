package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
)

// On-disk format. A segment file is the 8-byte segment magic followed by
// framed records:
//
//	length uint32  payload byte count (big endian; 0 is invalid)
//	crc    uint32  CRC32C (Castagnoli) over the payload
//	payload        kind uint8 + kind-specific body
//
// Kind 1 wraps one record of the internal/bgp framed binary codec; kind 2
// is the traceroute body defined by appendTracePayload below. The
// checksum covers the payload only: a corrupt length field either fails
// the impossible-length check or misaligns the next frame, whose checksum
// then fails, so both cases surface as a corrupt record rather than
// silent garbage.
const (
	segMagic = "RRRWAL1\n"

	kindUpdate byte = 1
	kindTrace  byte = 2

	// FrameHeaderLen is the length + checksum header before each payload.
	FrameHeaderLen = 8

	// maxRecordBytes rejects impossible frame lengths before allocating:
	// real records are tens to hundreds of bytes, so anything past 16 MiB
	// is a corrupt length field.
	maxRecordBytes = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptFrame is matched (errors.Is) by every framing failure: an
// impossible length, a header whose length is not the bytes that follow,
// or a checksum mismatch.
var ErrCorruptFrame = errors.New("corrupt frame")

// frameError is one framing failure. It reads as its cause alone, so each
// reader puts its own context in front.
type frameError string

func (e frameError) Error() string        { return string(e) }
func (e frameError) Is(target error) bool { return target == ErrCorruptFrame }

// Record is one logged feed record; exactly one of Update/Trace is set.
// During Replay, Update points at the replay's scratch update: it is valid
// until the callback returns, so a callback that keeps the update copies
// it (its Path and Communities stay valid).
type Record struct {
	Update *bgp.Update
	Trace  *traceroute.Traceroute
}

// Time returns the record's feed timestamp.
func (r Record) Time() int64 {
	if r.Update != nil {
		return r.Update.Time
	}
	if r.Trace != nil {
		return r.Trace.Time
	}
	return 0
}

// appendUpdatePayload appends the kind-1 payload: the kind byte followed
// by one bgp binary-codec record.
func appendUpdatePayload(dst []byte, u bgp.Update) ([]byte, error) {
	return bgp.AppendBinary(append(dst, kindUpdate), u)
}

// appendTracePayload appends the kind-2 payload:
//
//	msmID   int64, probeID int64, time int64
//	src     uint32, dst uint32
//	reached uint8
//	nhops   uint16, then per hop: ip uint32, rtt float64 bits, ttl int32
//
// Big endian throughout, matching the bgp codec.
func appendTracePayload(b []byte, t *traceroute.Traceroute) ([]byte, error) {
	if t == nil {
		return b, errors.New("wal: nil traceroute")
	}
	if len(t.Hops) > 0xffff {
		return b, fmt.Errorf("wal: traceroute with %d hops exceeds codec limit", len(t.Hops))
	}
	b = append(b, kindTrace)
	b = binary.BigEndian.AppendUint64(b, uint64(t.MsmID))
	b = binary.BigEndian.AppendUint64(b, uint64(int64(t.ProbeID)))
	b = binary.BigEndian.AppendUint64(b, uint64(t.Time))
	b = binary.BigEndian.AppendUint32(b, t.Src)
	b = binary.BigEndian.AppendUint32(b, t.Dst)
	if t.Reached {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(t.Hops)))
	for _, h := range t.Hops {
		b = binary.BigEndian.AppendUint32(b, h.IP)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(h.RTT))
		b = binary.BigEndian.AppendUint32(b, uint32(int32(h.TTL)))
	}
	return b, nil
}

// A frame is written in place: the header is reserved, the payload
// appended after it, and sealFrame then fills in the payload's length and
// checksum.
var reservedHeader [FrameHeaderLen]byte

// sealFrame completes the frame whose reserved header starts at b[start:]
// and whose payload runs to the end of b.
func sealFrame(b []byte, start int) []byte {
	p := b[start+FrameHeaderLen:]
	binary.BigEndian.PutUint32(b[start:], uint32(len(p)))
	binary.BigEndian.PutUint32(b[start+4:], crc32.Checksum(p, castagnoli))
	return b
}

func decodeTrace(b []byte) (*traceroute.Traceroute, error) {
	const fixed = 35 // 3×int64 + 2×uint32 + reached + nhops
	if len(b) < fixed {
		return nil, errors.New("wal: short traceroute record")
	}
	t := &traceroute.Traceroute{
		MsmID:   int64(binary.BigEndian.Uint64(b[0:8])),
		ProbeID: int(int64(binary.BigEndian.Uint64(b[8:16]))),
		Time:    int64(binary.BigEndian.Uint64(b[16:24])),
		Src:     binary.BigEndian.Uint32(b[24:28]),
		Dst:     binary.BigEndian.Uint32(b[28:32]),
	}
	switch b[32] {
	case 0:
	case 1:
		t.Reached = true
	default:
		return nil, fmt.Errorf("wal: bad reached flag %d", b[32])
	}
	nhops := int(binary.BigEndian.Uint16(b[33:35]))
	if len(b) != fixed+16*nhops {
		return nil, fmt.Errorf("wal: traceroute record length %d does not match %d hops", len(b), nhops)
	}
	if nhops > 0 {
		t.Hops = make([]traceroute.Hop, nhops)
		for i := range t.Hops {
			off := fixed + 16*i
			t.Hops[i] = traceroute.Hop{
				IP:  binary.BigEndian.Uint32(b[off : off+4]),
				RTT: math.Float64frombits(binary.BigEndian.Uint64(b[off+4 : off+12])),
				TTL: int(int32(binary.BigEndian.Uint32(b[off+12 : off+16]))),
			}
		}
	}
	return t, nil
}

// --- exported record codec ---
//
// The feed wire protocol (internal/feedwire) frames the same record
// payloads over TCP that the WAL frames on disk, so a daemon ingesting
// over the network and one replaying a log decode byte-identical records
// through one codec. Encoding appends a whole frame to a caller-owned
// slice and decoding reads from one, so a transport that reuses its
// buffer encodes without allocating and decodes allocating only the
// record it returns (nothing, for an update decoded by DecodeRecordParts).

// AppendUpdateFrame appends one framed kind-1 record (length + CRC32C
// header, then the payload) for u to dst. On error dst is returned
// unchanged.
func AppendUpdateFrame(dst []byte, u bgp.Update) ([]byte, error) {
	b, err := appendUpdatePayload(append(dst, reservedHeader[:]...), u)
	if err != nil {
		return dst, err
	}
	return sealFrame(b, len(dst)), nil
}

// AppendTraceFrame appends one framed kind-2 record for t to dst. On
// error dst is returned unchanged.
func AppendTraceFrame(dst []byte, t *traceroute.Traceroute) ([]byte, error) {
	b, err := appendTracePayload(append(dst, reservedHeader[:]...), t)
	if err != nil {
		return dst, err
	}
	return sealFrame(b, len(dst)), nil
}

// DecodeRecordParts parses one checksum-verified record payload (kind
// byte + body): an update comes back by value with t nil, a traceroute as
// t. Any leftover bytes after the body are corruption (the checksum only
// proves the payload is what the writer framed, not that the writer
// framed a whole record), so exact consumption is enforced for both
// kinds. dec carves the update's Path and Communities.
func DecodeRecordParts(dec *bgp.Decoder, p []byte) (u bgp.Update, t *traceroute.Traceroute, err error) {
	if len(p) == 0 {
		return u, nil, errors.New("wal: empty record payload")
	}
	switch p[0] {
	case kindUpdate:
		if u, err = dec.Decode(p[1:]); err != nil {
			return u, nil, fmt.Errorf("wal: decode update record: %w", err)
		}
		return u, nil, nil
	case kindTrace:
		t, err = decodeTrace(p[1:])
		return u, t, err
	default:
		return u, nil, fmt.Errorf("wal: unknown record kind %d", p[0])
	}
}

// AppendRecordFrame frames payload (length + CRC32C header, then the
// payload) onto dst — the WAL's on-disk frame, reused verbatim by the
// feed wire protocol.
func AppendRecordFrame(dst, payload []byte) []byte {
	return sealFrame(append(append(dst, reservedHeader[:]...), payload...), len(dst))
}

// IsRecordKind reports whether b is a record payload kind this codec
// decodes (feedwire reserves the remaining kind space for control frames).
func IsRecordKind(b byte) bool { return b == kindUpdate || b == kindTrace }

// OpenFrame checks that frame is exactly one frame, its header's length
// the bytes that follow and its checksum theirs, and returns the payload.
// Failures match ErrCorruptFrame. The log's reader, the feed wire's and
// the stale-batch hop's all check frames here.
func OpenFrame(frame []byte) ([]byte, error) {
	if len(frame) < FrameHeaderLen {
		return nil, frameError(fmt.Sprintf("%d bytes is shorter than a frame header", len(frame)))
	}
	payload := frame[FrameHeaderLen:]
	if plen := binary.BigEndian.Uint32(frame[0:4]); uint64(plen) != uint64(len(payload)) {
		return nil, frameError(fmt.Sprintf("header says %d payload bytes, body has %d", plen, len(payload)))
	}
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(frame[4:8]) {
		return nil, frameError("checksum mismatch")
	}
	return payload, nil
}

// FrameReader reads the frames of a stream into one reused buffer.
type FrameReader struct {
	r   io.Reader
	buf []byte
}

// NewFrameReader wraps r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// Next reads and opens the next frame, returning its payload, which is
// valid until the following call. A stream that ends at a frame boundary
// returns io.EOF and one that ends inside a frame io.ErrUnexpectedEOF. A
// length of 0 or past maxRecordBytes is refused, matching ErrCorruptFrame,
// before anything is allocated for it.
func (fr *FrameReader) Next() ([]byte, error) {
	fr.buf = slices.Grow(fr.buf[:0], FrameHeaderLen)[:FrameHeaderLen]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return nil, err
	}
	plen := binary.BigEndian.Uint32(fr.buf[0:4])
	if plen == 0 || plen > maxRecordBytes {
		return nil, frameError(fmt.Sprintf("impossible frame length %d", plen))
	}
	fr.buf = slices.Grow(fr.buf, int(plen))[:FrameHeaderLen+int(plen)]
	if _, err := io.ReadFull(fr.r, fr.buf[FrameHeaderLen:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return OpenFrame(fr.buf)
}

// segScan summarizes one segment pass.
type segScan struct {
	records uint64
	maxTime int64
	// goodLen is the byte offset just past the last intact record; a torn
	// tail is truncated back to it.
	goodLen int64
	torn    bool
	tornErr error
}

// scanSegment reads every intact record of one segment in order, invoking
// fn for each. allowTorn (the log's final segment) turns a torn or corrupt
// tail into a truncation point instead of an error: everything up to the
// first bad byte is kept, the rest is the unsynced remains of a crash.
// Mid-log segments get no such forgiveness — a bad record there means data
// the log claimed durable is gone, which must fail recovery loudly. Every
// update record is decoded into one scratch update that the Record handed
// to fn points at, so replay boxes no update.
func scanSegment(r io.Reader, fn func(Record) error, allowTorn bool) (segScan, error) {
	sc := segScan{maxTime: math.MinInt64}
	torn := func(reason error) (segScan, error) {
		if allowTorn {
			sc.torn, sc.tornErr = true, reason
			return sc, nil
		}
		return sc, reason
	}
	br := bufio.NewReaderSize(r, 64<<10)
	magic := make([]byte, len(segMagic))
	if n, err := io.ReadFull(br, magic); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return torn(fmt.Errorf("wal: segment shorter than its magic (%d bytes)", n))
		}
		return sc, err
	}
	if string(magic) != segMagic {
		return sc, fmt.Errorf("wal: bad segment magic %q", magic)
	}
	sc.goodLen = int64(len(segMagic))

	frames := FrameReader{r: br} // DecodeRecordParts copies out what it keeps
	var dec bgp.Decoder
	var u bgp.Update
	for {
		payload, err := frames.Next()
		switch {
		case err == io.EOF:
			return sc, nil // clean frame boundary
		case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, ErrCorruptFrame):
			return torn(fmt.Errorf("wal: torn record: %w", err))
		case err != nil:
			return sc, err
		}
		var rec Record
		if upd, tr, err := DecodeRecordParts(&dec, payload); err != nil {
			return torn(err)
		} else if tr != nil {
			rec.Trace = tr
		} else {
			u = upd
			rec.Update = &u
		}
		sc.records++
		if t := rec.Time(); t > sc.maxTime {
			sc.maxTime = t
		}
		sc.goodLen += int64(FrameHeaderLen + len(payload))
		if fn != nil {
			if err := fn(rec); err != nil {
				return sc, err
			}
		}
	}
}
