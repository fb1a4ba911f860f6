package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"rrr"
)

// referenceDecodeStaleBatch is DecodeStaleBatch as it was before the key
// scanner: encoding/json over the whole body, then the size checks, then
// ParseKey over each key. The scanner and its fallback must answer every
// body under MaxBatchBytes exactly as it does.
func referenceDecodeStaleBatch(w http.ResponseWriter, r *http.Request) (names []string, keys []rrr.Key, ok bool) {
	var req struct {
		Keys []string `json:"keys"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return nil, nil, false
	}
	if !batchSizeOK(w, len(req.Keys)) {
		return nil, nil, false
	}
	keys = make([]rrr.Key, len(req.Keys))
	for i, ks := range req.Keys {
		k, err := ParseKey(ks)
		if err != nil {
			WriteErr(w, http.StatusBadRequest, err.Error())
			return nil, nil, false
		}
		keys[i] = k
	}
	return req.Keys, keys, true
}

// staleRequest is a POST /v1/stale carrying body, with its length declared
// or (declared false) sent as if chunked.
func staleRequest(body []byte, declared bool) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/v1/stale", bytes.NewReader(body))
	if !declared {
		r.ContentLength = -1
	}
	return r
}

// checkDecodeMatchesReference decodes body with both decoders, its length
// declared and not, and fails on any difference in status, answer bytes,
// keys or key text.
func checkDecodeMatchesReference(t *testing.T, body []byte) {
	t.Helper()
	want := httptest.NewRecorder()
	names, keys, wantOK := referenceDecodeStaleBatch(want, staleRequest(body, true))
	for _, declared := range []bool{true, false} {
		got := httptest.NewRecorder()
		b, ok := DecodeStaleBatch(got, staleRequest(body, declared))
		if ok != wantOK || got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Fatalf("body %.200q (length declared %v): answered %v %d %q, reference %v %d %q",
				body, declared, ok, got.Code, got.Body, wantOK, want.Code, want.Body)
		}
		if !ok {
			continue
		}
		if len(b.Keys) != len(keys) {
			t.Fatalf("body %.200q: %d keys, reference %d", body, len(b.Keys), len(keys))
		}
		for i := range keys {
			if b.Keys[i] != keys[i] || b.Name(i) != names[i] {
				t.Fatalf("body %.200q: key %d is %v %q, reference %v %q", body, i, b.Keys[i], b.Name(i), keys[i], names[i])
			}
		}
		b.Release()
	}
}

func keysBody(n int, key string) []byte {
	var buf bytes.Buffer
	buf.WriteString(`{"keys":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(`"` + key + `"`)
	}
	buf.WriteString("]}")
	return buf.Bytes()
}

// FuzzDecodeStaleBatch holds the key scanner, with its encoding/json
// fallback, to the reference decoder on every body under the byte limit.
func FuzzDecodeStaleBatch(f *testing.F) {
	for _, s := range []string{
		`{"keys":["1.2.3.4-5.6.7.8","9.9.9.9->1.1.1.1"]}`,
		" \t\r\n{ \"keys\" :\n[ \"1.2.3.4-5.6.7.8\" ,\t\"1.2.3.4-5.6.7.8\" ] }\n",
		`{"keys":["1.2.3.4\u002d5.6.7.8"]}`,
		`{"keys":["\u0031.2.3.4-5.6.7.8","1.2.3.4-5.6.7.8\/"]}`,
		`{"KEYS":["1.2.3.4-5.6.7.8"]}`,
		`{"Keys":["1.2.3.4-5.6.7.8"]}`,
		`{"keys":["1.2.3.4-5.6.7.8"],"keys":["5.6.7.8-1.2.3.4"]}`,
		`{"other":1,"keys":["1.2.3.4-5.6.7.8"]}`,
		`{"keys":null}`, `null`, `{}`, `[]`, `{"keys":[]}`, `{"keys":[ ]}`, ``, ` `, `{`,
		`{"keys":["1.2.3.4-5.6.7.8"]}trailing garbage`,
		`{"keys":["1.2.3.4-5.6.7.8"]} {"keys":[]}`,
		`{"keys":["1.2.3.4-5.6.7.8",]}`,
		`{"keys":["1.2.3.4-5.6.7.8"],}`,
		`{"keys":["1.2.3.4-5.6.7.8" "5.6.7.8-1.2.3.4"]}`,
		`{"keys":[1]}`, `{"keys":[null]}`, `{"keys":"1.2.3.4-5.6.7.8"}`,
		"{\"keys\":[\"1.2.3.4-5.6.7.8\xff\"]}",
		"{\"keys\":[\"\xc3\xa9\"]}",
		"{\"keys\":[\"1.2.3.4-5.6.7.8\x01\"]}",
		"{\"keys\":[\"1.2.3.4-5.6.7.8\x7f\"]}",
		`{"keys":["junk"]}`,
		`{"keys":["1.2.3.4-5.6.7.8","junk","also junk"]}`,
		`{"keys":["","1.2.3.4-5.6.7.8"]}`,
		`{"keys":["1.2.3.4--5.6.7.8"]}`,
		`{"keys":["+1.2.3.4-5.6.7.8"]}`,
		`{"keys":["1.2.3.4->-5.6.7.8"]}`,
		`{"keys":["256.2.3.4-5.6.7.8"]}`,
	} {
		f.Add([]byte(s))
	}
	f.Add(keysBody(MaxBatch, "1.2.3.4-5.6.7.8"))
	f.Add(keysBody(MaxBatch+1, "1.2.3.4-5.6.7.8"))
	f.Add(keysBody(MaxBatch+1, "junk"))
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > MaxBatchBytes {
			return
		}
		checkDecodeMatchesReference(t, body)
	})
}

// TestStaleBatchByteLimit: a body past MaxBatchBytes is refused with 413 on
// its declared length without being read, and an undeclared one after at
// most limit+1 bytes, in a buffer that costs at most twice the limit; today
// a 2 000 000-key body (38 MB) is that probe.
func TestStaleBatchByteLimit(t *testing.T) {
	m, stale, _ := newStaleMonitor(t)
	h := New(m, Config{}).Handler()
	body := keysBody(2_000_000, FormatKey(stale.Key()))
	want := fmt.Sprintf(`{"error":"request body exceeds the %d-byte limit"}`+"\n", MaxBatchBytes)
	for _, declared := range []bool{true, false} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, staleRequest(body, declared))
		runtime.ReadMemStats(&after)
		if rr.Code != http.StatusRequestEntityTooLarge || rr.Body.String() != want {
			t.Fatalf("%d-byte body (length declared %v): %d %q, want 413 %q", len(body), declared, rr.Code, rr.Body, want)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d-byte body (length declared %v): 413 after allocating %d bytes", len(body), declared, alloc)
		if alloc > 2*MaxBatchBytes {
			t.Fatalf("%d-byte body (length declared %v): allocated %d bytes to refuse it, budget %d (twice the limit)", len(body), declared, alloc, 2*MaxBatchBytes)
		}
	}
	// At the limit exactly, the body is read and decoded.
	pad := MaxBatchBytes - len(keysBody(1, FormatKey(stale.Key())))
	atLimit := append(keysBody(1, FormatKey(stale.Key())), strings.Repeat(" ", pad)...)
	for _, declared := range []bool{true, false} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, staleRequest(atLimit, declared))
		if rr.Code != http.StatusOK {
			t.Fatalf("%d-byte body (length declared %v): %d %q, want 200", len(atLimit), declared, rr.Code, rr.Body)
		}
		rr = httptest.NewRecorder()
		h.ServeHTTP(rr, staleRequest(append(atLimit, ' '), declared))
		if rr.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%d-byte body (length declared %v): %d, want 413", len(atLimit)+1, declared, rr.Code)
		}
	}
}

// TestStaleBatchReadError: a body that fails mid-read is answered as
// encoding/json answers the bytes that arrived followed by the error.
func TestStaleBatchReadError(t *testing.T) {
	for _, body := range []string{`{"keys":["1.2.3.4-5.6.7.8"]}`, `{"keys":["1.2.3.4-5.6`, `{"keys":[x`} {
		for _, cut := range []int{0, len(body) / 2, len(body)} {
			read := func() io.Reader { return io.MultiReader(strings.NewReader(body[:cut]), errReader{io.ErrUnexpectedEOF}) }
			want, got := httptest.NewRecorder(), httptest.NewRecorder()
			referenceDecodeStaleBatch(want, httptest.NewRequest(http.MethodPost, "/v1/stale", read()))
			r := httptest.NewRequest(http.MethodPost, "/v1/stale", read())
			r.ContentLength = int64(len(body))
			if b, ok := DecodeStaleBatch(got, r); ok {
				b.Release()
			}
			if got.Code != want.Code || got.Body.String() != want.Body.String() {
				t.Fatalf("%q cut at %d: answered %d %q, reference %d %q", body, cut, got.Code, got.Body, want.Code, want.Body)
			}
		}
	}
}

// discardWriter is a ResponseWriter that keeps only its header map, so an
// allocation count sees the handler alone.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// rewindBody is a request body that can be read again.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestStaleBatchAllocs is the allocation budget of a 64-key JSON batch whose
// verdicts are all cached, through the handler of a primed server: the key
// scanner, one cache read and the splice. The request and the writer are
// reused, so the count is the handler's own: it reads 1 (the Content-Type
// header's value slice), under the race detector too, and the budget is
// that + 10 %. Decoding the keys with encoding/json, it read 89.
func TestStaleBatchAllocs(t *testing.T) {
	m, stale, fresh := newStaleMonitor(t)
	h := New(m, Config{}).Handler()
	keys := []string{FormatKey(stale.Key()), FormatKey(fresh.Key())}
	for i := len(keys); i < 64; i++ {
		keys = append(keys, fmt.Sprintf("240.0.0.%d-240.0.1.%d", i, i))
	}
	body, err := json.Marshal(map[string][]string{"keys": keys})
	if err != nil {
		t.Fatal(err)
	}
	rb := new(rewindBody)
	req := httptest.NewRequest(http.MethodPost, "/v1/stale", nil)
	req.Body, req.ContentLength = rb, int64(len(body))
	w := &discardWriter{h: http.Header{}}
	batch := func() {
		rb.Reset(body)
		clear(w.h)
		h.ServeHTTP(w, req)
		if ct := w.h.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("POST /v1/stale answered Content-Type %q", ct)
		}
	}
	batch() // every verdict cached
	const budget = 1.1
	n := testing.AllocsPerRun(50, batch)
	t.Logf("%.1f allocations per all-hit 64-key batch", n)
	if n > budget {
		t.Fatalf("%.1f allocations per all-hit 64-key batch, budget %.1f", n, budget)
	}
}
