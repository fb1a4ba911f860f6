package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"rrr"
	"rrr/internal/wal"
)

// The framed form of POST /v1/stale is the cluster router's sub-batch hop:
// the router has already parsed the client's keys and the worker has already
// rendered its verdicts, so neither is spelled as JSON again in between.
// Both directions are one internal/wal record frame (length uint32, CRC32C
// uint32, payload — big endian throughout):
//
//	request payload   n × (src uint32, dst uint32)
//	response payload  stale uint32, n uint32, n × end uint32, slab
//
// where verdict i is slab[end[i-1]:end[i]] (end[-1] = 0), exactly the bytes
// the JSON form splices between its commas. A frame that is short, long,
// fails its checksum or carries offsets that do not tile the slab is
// refused whole.

// StaleFrameType is the Content-Type that selects the framed body form, in
// the request and on its 200 answer. Every other status answers in JSON.
const StaleFrameType = "application/x-rrr-stale-frame"

const (
	frameHeaderLen = 8
	// maxStaleFrame bounds a body read on either side of the hop: MaxBatch
	// verdicts of a pair with every technique firing stay far below it.
	maxStaleFrame = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sealFrame frames the payload built at buf[start+frameHeaderLen:]. The
// header lands in the gap left before it and AppendRecordFrame's copy of
// the payload lands on the bytes it reads, so nothing moves.
func sealFrame(buf []byte, start int) []byte {
	return wal.AppendRecordFrame(buf[:start], buf[start+frameHeaderLen:])
}

// openFrame checks frame is exactly one record frame and returns its payload.
func openFrame(frame []byte) ([]byte, error) {
	if len(frame) < frameHeaderLen {
		return nil, fmt.Errorf("stale frame: %d bytes is shorter than a frame header", len(frame))
	}
	payload := frame[frameHeaderLen:]
	if plen := binary.BigEndian.Uint32(frame[0:4]); uint64(plen) != uint64(len(payload)) {
		return nil, fmt.Errorf("stale frame: header says %d payload bytes, body has %d", plen, len(payload))
	}
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(frame[4:8]) {
		return nil, errors.New("stale frame: checksum mismatch")
	}
	return payload, nil
}

// AppendStaleRequest appends the framed request for the n keys key(0..n-1).
func AppendStaleRequest(dst []byte, n int, key func(i int) rrr.Key) []byte {
	start := len(dst)
	dst = slices.Grow(dst, frameHeaderLen+8*n)[:start+frameHeaderLen]
	for i := 0; i < n; i++ {
		k := key(i)
		dst = binary.BigEndian.AppendUint32(dst, k.Src)
		dst = binary.BigEndian.AppendUint32(dst, k.Dst)
	}
	return sealFrame(dst, start)
}

// decodeStaleRequest appends a framed request's keys to keys.
func decodeStaleRequest(frame []byte, keys []rrr.Key) ([]rrr.Key, error) {
	p, err := openFrame(frame)
	if err != nil {
		return keys, err
	}
	if len(p)%8 != 0 {
		return keys, fmt.Errorf("stale frame: %d payload bytes is not a whole number of keys", len(p))
	}
	for ; len(p) > 0; p = p[8:] {
		keys = append(keys, rrr.Key{Src: binary.BigEndian.Uint32(p[0:4]), Dst: binary.BigEndian.Uint32(p[4:8])})
	}
	return keys, nil
}

// appendStaleResponse appends the framed answer: n rendered verdict bodies,
// stale of them stale.
func appendStaleResponse(dst []byte, stale, n int, verdict func(i int) []byte) []byte {
	start := len(dst)
	dst = slices.Grow(dst, frameHeaderLen+8+4*n)[:start+frameHeaderLen]
	dst = binary.BigEndian.AppendUint32(dst, uint32(stale))
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	end := 0
	for i := 0; i < n; i++ {
		end += len(verdict(i))
		dst = binary.BigEndian.AppendUint32(dst, uint32(end))
	}
	dst = slices.Grow(dst, end)
	for i := 0; i < n; i++ {
		dst = append(dst, verdict(i)...)
	}
	return sealFrame(dst, start)
}

// StaleSlab is a decoded framed answer. It aliases the frame it was decoded
// from: its verdicts live as long as those bytes are left alone.
type StaleSlab struct {
	Stale int
	ends  []byte // Len() big-endian uint32 end offsets into slab
	slab  []byte
}

// Len reports how many verdicts the answer holds.
func (s StaleSlab) Len() int { return len(s.ends) / 4 }

// Verdict returns the i'th verdict's JSON body, 0 <= i < Len().
func (s StaleSlab) Verdict(i int) []byte {
	from := uint32(0)
	if i > 0 {
		from = binary.BigEndian.Uint32(s.ends[4*(i-1):])
	}
	return s.slab[from:binary.BigEndian.Uint32(s.ends[4*i:])]
}

// DecodeStaleResponse validates a framed answer, so that Verdict cannot
// index outside the slab.
func DecodeStaleResponse(frame []byte) (StaleSlab, error) {
	p, err := openFrame(frame)
	if err != nil {
		return StaleSlab{}, err
	}
	if len(p) < 8 {
		return StaleSlab{}, fmt.Errorf("stale frame: %d payload bytes is shorter than the counts", len(p))
	}
	stale, n := binary.BigEndian.Uint32(p[0:4]), binary.BigEndian.Uint32(p[4:8])
	if uint64(len(p)-8) < 4*uint64(n) || stale > n {
		return StaleSlab{}, fmt.Errorf("stale frame: counts %d/%d do not fit %d payload bytes", stale, n, len(p))
	}
	s := StaleSlab{Stale: int(stale), ends: p[8 : 8+4*n], slab: p[8+4*n:]}
	prev := uint32(0)
	for i := 0; i < s.Len(); i++ {
		end := binary.BigEndian.Uint32(s.ends[4*i:])
		if end < prev {
			return StaleSlab{}, fmt.Errorf("stale frame: verdict %d ends at %d, before %d", i, end, prev)
		}
		prev = end
	}
	if uint64(prev) != uint64(len(s.slab)) {
		return StaleSlab{}, fmt.Errorf("stale frame: verdicts end at %d of a %d-byte slab", prev, len(s.slab))
	}
	return s, nil
}

// ReadStaleFrame reads a framed body into dst's storage, in one read sized
// from the declared length when there is one (-1: none was declared).
func ReadStaleFrame(dst []byte, body io.Reader, length int64) ([]byte, error) {
	if length > maxStaleFrame {
		return dst[:0], fmt.Errorf("stale frame: %d-byte body exceeds the %d-byte limit", length, maxStaleFrame)
	}
	if length >= 0 {
		dst = slices.Grow(dst[:0], int(length))[:length]
		_, err := io.ReadFull(body, dst)
		return dst, err
	}
	buf := bytes.NewBuffer(dst[:0])
	if _, err := buf.ReadFrom(io.LimitReader(body, maxStaleFrame+1)); err != nil {
		return buf.Bytes(), err
	}
	if buf.Len() > maxStaleFrame {
		return buf.Bytes(), fmt.Errorf("stale frame: body exceeds the %d-byte limit", maxStaleFrame)
	}
	return buf.Bytes(), nil
}

// staleScratch is the worker-side working memory of one framed request: the
// request frame, then — once the keys are out of it — the response frame.
type staleScratch struct {
	buf  []byte
	keys []rrr.Key
}

var staleScratchPool = sync.Pool{New: func() any { return new(staleScratch) }}

// decodeStaleFrame is DecodeStaleBatch for the framed body form: the same
// refusals, in the same words where the JSON form has them.
func decodeStaleFrame(w http.ResponseWriter, r *http.Request, sc *staleScratch) (keys []rrr.Key, ok bool) {
	var err error
	if sc.buf, err = ReadStaleFrame(sc.buf, r.Body, r.ContentLength); err == nil {
		sc.keys, err = decodeStaleRequest(sc.buf, sc.keys[:0])
	}
	if err != nil {
		WriteErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return nil, false
	}
	return sc.keys, batchSizeOK(w, len(sc.keys))
}

// writeStaleFrame answers a framed request. Content-Length is set so the
// router can size its one read.
func writeStaleFrame(w http.ResponseWriter, stale int, verdicts []cachedVerdict, sc *staleScratch) {
	sc.buf = appendStaleResponse(sc.buf[:0], stale, len(verdicts), func(i int) []byte { return verdicts[i].JSON })
	w.Header().Set("Content-Type", StaleFrameType)
	w.Header().Set("Content-Length", strconv.Itoa(len(sc.buf)))
	w.WriteHeader(http.StatusOK)
	w.Write(sc.buf)
}
