package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rrr"
)

// postStale sends one POST /v1/stale body straight into the handler.
func postStale(h http.Handler, ctype string, body []byte) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/stale", bytes.NewReader(body))
	req.Header.Set("Content-Type", ctype)
	h.ServeHTTP(rr, req)
	return rr
}

// batchKeys is n keys cycling through the stale pair, the fresh pair, an
// untracked pair and a run of distinct untracked ones, so every size past
// three holds duplicates of each kind.
func batchKeys(n int, stale, fresh rrr.Key) []rrr.Key {
	keys := make([]rrr.Key, n)
	for i := range keys {
		switch i % 4 {
		case 0:
			keys[i] = stale
		case 1:
			keys[i] = fresh
		case 2:
			keys[i] = rrr.Key{Src: 0x09090909, Dst: 0x09090901}
		default:
			keys[i] = rrr.Key{Src: 0x0a000000 | uint32(i), Dst: 0x0b000001}
		}
	}
	return keys
}

// TestStaleFrameRoundTrip: at every size the request frame decodes to the
// keys it was built from, and the worker's framed answer carries exactly
// the verdict bytes and stale count its JSON answer to the same keys does —
// duplicates, untracked keys and MaxBatch included.
func TestStaleFrameRoundTrip(t *testing.T) {
	m, stalePair, freshPair := newStaleMonitor(t)
	h := New(m, Config{}).Handler()
	for _, n := range []int{0, 1, 64, MaxBatch} {
		keys := batchKeys(n, stalePair.Key(), freshPair.Key())
		frame := AppendStaleRequest([]byte("prefix"), n, func(i int) rrr.Key { return keys[i] })[len("prefix"):]
		back, err := DecodeStaleRequest(frame, nil)
		if err != nil || len(back) != n {
			t.Fatalf("n=%d: request decodes to %d keys, %v", n, len(back), err)
		}
		for i := range keys {
			if back[i] != keys[i] {
				t.Fatalf("n=%d: key %d round-trips %v -> %v", n, i, keys[i], back[i])
			}
		}

		names := make([]string, n)
		for i, k := range keys {
			names[i] = FormatKey(k)
		}
		body, _ := json.Marshal(map[string]any{"keys": names})
		want := postStale(h, "application/json", body)
		got := postStale(h, StaleFrameType, frame)
		if n == 0 {
			// Both forms refuse an empty batch, identically.
			if got.Code != http.StatusBadRequest || got.Body.String() != want.Body.String() {
				t.Fatalf("empty frame answered %d %q, empty JSON %d %q", got.Code, got.Body, want.Code, want.Body)
			}
			// The response codec still round-trips zero verdicts.
			slab, err := DecodeStaleResponse(AppendStaleResponse(nil, 0, 0, nil))
			if err != nil || slab.Len() != 0 || slab.Stale != 0 {
				t.Fatalf("empty answer decodes to %+v, %v", slab, err)
			}
			continue
		}
		if got.Code != http.StatusOK || got.Header().Get("Content-Type") != StaleFrameType {
			t.Fatalf("n=%d: framed request answered %d %s: %s", n, got.Code, got.Header().Get("Content-Type"), got.Body)
		}
		slab, err := DecodeStaleResponse(got.Body.Bytes())
		if err != nil || slab.Len() != n {
			t.Fatalf("n=%d: answer decodes to %d verdicts, %v", n, slab.Len(), err)
		}
		// Re-splicing the slab as the router does must reproduce the JSON
		// form's body byte for byte.
		spliced := httptest.NewRecorder()
		WriteStaleBatch(spliced, slab.Stale, slab.Len(), slab.Verdict, nil)
		if spliced.Body.String() != want.Body.String() {
			t.Fatalf("n=%d: slab spliced to JSON differs from the JSON form's answer", n)
		}
		if wantStale := (n + 3) / 4; slab.Stale != wantStale {
			t.Fatalf("n=%d: stale = %d, want %d (every fourth key)", n, slab.Stale, wantStale)
		}
	}
}

// TestStaleFrameRefusals: a framed request the worker cannot serve is
// answered in JSON with the status the JSON form gives the same mistake.
func TestStaleFrameRefusals(t *testing.T) {
	m, stalePair, _ := newStaleMonitor(t)
	h := New(m, Config{}).Handler()
	good := AppendStaleRequest(nil, 2, func(int) rrr.Key { return stalePair.Key() })
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 1
	over := AppendStaleRequest(nil, MaxBatch+1, func(int) rrr.Key { return stalePair.Key() })
	for _, row := range []struct {
		name  string
		frame []byte
		code  int
		msg   string
	}{
		{"truncated", good[:len(good)-3], http.StatusBadRequest, "bad request body: stale frame: header says"},
		{"flipped byte", flipped, http.StatusBadRequest, "bad request body: stale frame: checksum mismatch"},
		{"empty body", nil, http.StatusBadRequest, "bad request body: stale frame: 0 bytes"},
		{"json under the frame type", []byte(`{"keys":["1.2.3.4-5.6.7.8"]}`), http.StatusBadRequest, "bad request body: stale frame"},
		{"half a key", sealFrame(append(make([]byte, frameHeaderLen), 1, 2, 3, 4), 0), http.StatusBadRequest, "not a whole number of keys"},
		{"over the batch limit", over, http.StatusRequestEntityTooLarge, "keys exceeds batch limit"},
	} {
		rr := postStale(h, StaleFrameType, row.frame)
		if rr.Code != row.code || !strings.Contains(rr.Body.String(), row.msg) || rr.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: answered %d %s %q, want %d JSON containing %q", row.name, rr.Code, rr.Header().Get("Content-Type"), rr.Body, row.code, row.msg)
		}
	}
}

// FuzzStaleFrame: the decoders never panic, a decoded answer's verdicts lie
// inside the frame they came from, and a valid frame of either direction is
// refused after every truncation and every single-byte flip.
func FuzzStaleFrame(f *testing.F) {
	verdicts := [][]byte{[]byte(`{"key":"1.2.3.4-5.6.7.8"}`), nil, []byte(`{}`)}
	f.Add(AppendStaleResponse(nil, 1, len(verdicts), func(i int) []byte { return verdicts[i] }), byte(1))
	f.Add(AppendStaleResponse(nil, 0, 0, nil), byte(0x80))
	f.Add(AppendStaleRequest(nil, 2, func(i int) rrr.Key { return rrr.Key{Src: uint32(i), Dst: 7} }), byte(0xff))
	f.Add([]byte{0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}, byte(2))
	f.Fuzz(func(t *testing.T, frame []byte, flip byte) {
		slab, respErr := DecodeStaleResponse(frame)
		if respErr == nil {
			total := 0
			for i := 0; i < slab.Len(); i++ {
				total += len(slab.Verdict(i)) // panics if an offset leaves the slab
			}
			if total != len(slab.slab) || slab.Stale > slab.Len() {
				t.Fatalf("accepted answer: %d verdict bytes of a %d-byte slab, %d stale of %d", total, len(slab.slab), slab.Stale, slab.Len())
			}
		}
		keys, reqErr := DecodeStaleRequest(frame, nil)
		if reqErr == nil && 8*len(keys) != len(frame)-frameHeaderLen {
			t.Fatalf("accepted request: %d keys from %d payload bytes", len(keys), len(frame)-frameHeaderLen)
		}
		if (respErr != nil && reqErr != nil) || len(frame) > 1<<10 {
			return
		}
		// A frame either decoder accepts is intact: no shorter prefix of it
		// and no copy with one byte changed may pass either decoder.
		damaged := bytes.Clone(frame)
		for at := range frame {
			damaged[at] ^= flip | 1
			for _, bad := range [][]byte{frame[:at], damaged} {
				_, respErr := DecodeStaleResponse(bad)
				_, reqErr := DecodeStaleRequest(bad, nil)
				if respErr == nil || reqErr == nil {
					t.Fatalf("damaged frame accepted (%d of %d bytes, byte %d ^ %#x): %v, %v", len(bad), len(frame), at, flip|1, respErr, reqErr)
				}
			}
			damaged[at] = frame[at]
		}
	})
}
