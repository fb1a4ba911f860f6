package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"

	"rrr"
)

// StaleBatch is the working memory of one POST /v1/stale request, reused
// across requests on both tiers: the body as read, the keys parsed from it
// and where each key's text lies in the body, then, on a worker, the
// verdict lookup's dedup table and answers. Framed bodies leave the key
// text empty; Name's one caller, the router, decodes only JSON bodies.
type StaleBatch struct {
	// Keys are the request's keys, in request order.
	Keys []rrr.Key
	buf  []byte
	// names[i] is where Keys[i] is spelled in buf: inside the body when the
	// scanner read it, appended after the body when encoding/json did.
	names []span

	// Server.verdicts: first maps a key to its index in uniq, slot[i] is
	// Keys[i]'s, found[j] is uniq[j]'s verdict, out the per-key answers
	// when Keys repeats a key.
	first map[rrr.Key]int32
	slot  []int32
	uniq  []rrr.Key
	miss  []rrr.Key
	found []cachedVerdict
	out   []cachedVerdict
}

type span struct{ from, to uint32 }

// staleBatches is the free list of released batches. It is a bounded
// channel, not a sync.Pool: under the race detector a Pool drops a random
// quarter of what it is handed, and the allocation budgets of this path
// must hold there too. A request that finds the list empty allocates a
// batch, and one released to a full list is dropped, so the 64 slots bound
// what idle batches hold: 64 of the small ones Release keeps.
var staleBatches = make(chan *StaleBatch, 64)

func getStaleBatch() *StaleBatch {
	select {
	case b := <-staleBatches:
		return b
	default:
		return new(StaleBatch)
	}
}

// Name returns key i as the client spelled it.
func (b *StaleBatch) Name(i int) string {
	return string(b.buf[b.names[i].from:b.names[i].to])
}

// Release hands b back for reuse; nothing it returned may be used after.
// The verdict slots are cleared so a kept batch does not pin verdicts the
// cache has since dropped. A batch that grew past an ordinary request is
// not kept: the free list holds little memory, and no dedup table that
// costs its capacity to clear.
func (b *StaleBatch) Release() {
	if cap(b.Keys) > 1024 || cap(b.buf) > 256<<10 {
		return
	}
	clear(b.found)
	clear(b.out)
	select {
	case staleBatches <- b:
	default:
	}
}

// WriteVerdicts answers POST /v1/stale with n pre-rendered verdict bodies.
// They are spliced directly instead of round-tripping through json.Marshal,
// which would re-scan (Compact) every byte of every cached verdict on every
// request. extra is spliced after the count: the cluster router's
// pre-rendered degradation members, each with its leading comma. The
// answer is built in the storage the request body was read into, so Name
// reads nothing meaningful afterwards.
func (b *StaleBatch) WriteVerdicts(w http.ResponseWriter, stale, n int, verdict func(i int) []byte, extra []byte) {
	size := len(extra) + 64
	for i := 0; i < n; i++ {
		size += len(verdict(i)) + 1
	}
	buf := slices.Grow(b.buf[:0], size)
	buf = append(buf, `{"stale":`...)
	buf = strconv.AppendInt(buf, int64(stale), 10)
	buf = append(buf, `,"count":`...)
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, extra...)
	buf = append(buf, `,"verdicts":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, verdict(i)...)
	}
	b.buf = append(buf, "]}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b.buf)
}

// DecodeStaleBatch reads and validates a JSON POST /v1/stale body. On a bad
// request it answers the 400 or 413 itself and reports ok false; otherwise
// the caller owns the batch and must Release it.
func DecodeStaleBatch(w http.ResponseWriter, r *http.Request) (*StaleBatch, bool) {
	b := getStaleBatch()
	if !b.decodeJSON(w, r) {
		b.Release()
		return nil, false
	}
	return b, true
}

// decodeJSON reads the body once, through the MaxBatchBytes limit, and
// scans it in place. Only a body the scanner does not take goes through
// encoding/json, over the same bytes, so every refusal reads as that
// decoder words it.
func (b *StaleBatch) decodeJSON(w http.ResponseWriter, r *http.Request) bool {
	body, over, err := readBody(b.buf, r.Body, r.ContentLength, MaxBatchBytes)
	b.buf = body
	if over {
		WriteErr(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds the %d-byte limit", MaxBatchBytes))
		return false
	}
	if err != nil {
		// The decoder sees the bytes that arrived, then the read error,
		// as it did reading the body itself.
		return b.decodeFallback(w, io.MultiReader(bytes.NewReader(body), errReader{err}))
	}
	n, bad, ok := b.scanKeys()
	if !ok {
		return b.decodeFallback(w, bytes.NewReader(body))
	}
	if !batchSizeOK(w, n) {
		return false
	}
	if bad >= 0 {
		_, err := ParseKey(b.buf[b.names[bad].from:b.names[bad].to])
		WriteErr(w, http.StatusBadRequest, err.Error())
		return false
	}
	return true
}

// scanKeys parses the one body shape clients send: {"keys":[…]} with JSON
// whitespace between tokens, key strings of printable ASCII without
// escapes, and whatever follows the closing brace ignored, as
// json.Decoder.Decode ignores it. It parses each key in place and counts
// them all, keeping at most MaxBatch; bad is the index of the first key
// ParseKey refuses (-1: none). It reports ok false on any other input: a
// case-folded, repeated or extra member, null, a non-string element, an
// escape, a control or non-ASCII byte, a syntax error.
func (b *StaleBatch) scanKeys() (n, bad int, ok bool) {
	p := b.buf
	b.Keys, b.names, bad = b.Keys[:0], b.names[:0], -1
	i := skipSpace(p, 0)
	if i == len(p) || p[i] != '{' {
		return 0, 0, false
	}
	if i = skipSpace(p, i+1); len(p)-i < 6 || string(p[i:i+6]) != `"keys"` {
		return 0, 0, false
	}
	if i = skipSpace(p, i+6); i == len(p) || p[i] != ':' {
		return 0, 0, false
	}
	if i = skipSpace(p, i+1); i == len(p) || p[i] != '[' {
		return 0, 0, false
	}
	if i = skipSpace(p, i+1); i < len(p) && p[i] == ']' {
		i++
	} else {
		for {
			if i == len(p) || p[i] != '"' {
				return 0, 0, false
			}
			from := i + 1
			for i = from; i < len(p) && p[i] != '"'; i++ {
				if c := p[i]; c < 0x20 || c > 0x7e || c == '\\' {
					return 0, 0, false
				}
			}
			if i == len(p) {
				return 0, 0, false
			}
			if n < MaxBatch && bad < 0 {
				if k, err := ParseKey(p[from:i]); err == nil {
					b.Keys = append(b.Keys, k)
				} else {
					bad = n
				}
				b.names = append(b.names, span{uint32(from), uint32(i)})
			}
			n++
			if i = skipSpace(p, i+1); i == len(p) {
				return 0, 0, false
			}
			if p[i] == ']' {
				i++
				break
			}
			if p[i] != ',' {
				return 0, 0, false
			}
			i = skipSpace(p, i+1)
		}
	}
	if i = skipSpace(p, i); i == len(p) || p[i] != '}' {
		return 0, 0, false
	}
	return n, bad, true
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(p []byte, i int) int {
	for i < len(p) && (p[i] == ' ' || p[i] == '\t' || p[i] == '\n' || p[i] == '\r') {
		i++
	}
	return i
}

// decodeFallback decodes the body with encoding/json, the way the endpoint
// always has, for the bodies the scanner does not take. The decoded key
// strings are appended after the body, so Name reads both paths alike.
func (b *StaleBatch) decodeFallback(w http.ResponseWriter, body io.Reader) bool {
	var req struct {
		Keys []string `json:"keys"`
	}
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		WriteErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	if !batchSizeOK(w, len(req.Keys)) {
		return false
	}
	b.Keys, b.names = b.Keys[:0], b.names[:0]
	for _, ks := range req.Keys {
		k, err := ParseKey(ks)
		if err != nil {
			WriteErr(w, http.StatusBadRequest, err.Error())
			return false
		}
		from := len(b.buf)
		b.buf = append(b.buf, ks...)
		b.Keys = append(b.Keys, k)
		b.names = append(b.names, span{uint32(from), uint32(len(b.buf))})
	}
	return true
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// batchSizeOK refuses an empty or over-limit batch, whichever body form
// carried it, and reports whether n keys may be served.
func batchSizeOK(w http.ResponseWriter, n int) bool {
	switch {
	case n == 0:
		WriteErr(w, http.StatusBadRequest, "no keys")
	case n > MaxBatch:
		WriteErr(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("%d keys exceeds batch limit %d", n, MaxBatch))
	default:
		return true
	}
	return false
}

// readBody reads a body into dst's storage, in one read sized from the
// declared length when there is one (-1: none was declared). over reports
// a body longer than limit. One declared so is not read at all; an
// undeclared one is read no further than limit+1 bytes, into a buffer that
// grows fourfold on sizes ending at exactly limit+1, so refusing it costs
// at most 4/3 of that.
func readBody(dst []byte, body io.Reader, length, limit int64) (b []byte, over bool, err error) {
	if length > limit {
		return dst[:0], true, nil
	}
	if length >= 0 {
		dst = slices.Grow(dst[:0], int(length))[:length]
		n, err := io.ReadFull(body, dst)
		return dst[:n], false, err
	}
	b = dst[:0]
	for {
		if len(b) == cap(b) {
			size := int(limit) + 1
			for size/4 > cap(b) && size/4 >= 512 {
				size /= 4
			}
			b = append(make([]byte, 0, size), b...)
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if int64(len(b)) > limit {
			return b, true, nil
		}
		if err == io.EOF {
			return b, false, nil
		}
		if err != nil {
			return b, false, err
		}
	}
}
