package faultfeed

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// The differential reader. Every byte-identity test reads the served
// surfaces of its reference run and of the run under test the same way:
// Surfaces over HTTP, the SSE stream through Capture, and Sides to report
// the first line where they part.

// Get fetches url and fails t unless the answer is 200.
func Get(t testing.TB, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	return body(t, "GET "+url, resp, err)
}

// Post sends data to url as JSON and fails t unless the answer is 200.
func Post(t testing.TB, url, data string) string {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(data))
	return body(t, "POST "+url, resp, err)
}

func body(t testing.TB, req string, resp *http.Response, err error) string {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", req, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: %v", req, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", req, resp.StatusCode, data)
	}
	return string(data)
}

// Surfaces are the read surfaces every differential compares.
type Surfaces struct {
	Keys   string // GET /v1/keys
	Batch  string // POST /v1/stale over every key Keys lists
	Stats  string // GET /v1/stats
	Events string // GET /v1/events
}

// ReadSurfaces reads the surfaces of the daemon or router at base. An
// empty key list fails t: the batch comparison would be vacuous.
func ReadSurfaces(t testing.TB, base string) Surfaces {
	t.Helper()
	var s Surfaces
	s.Keys = Get(t, base+"/v1/keys")
	var kr struct {
		Keys []string `json:"keys"`
	}
	if err := json.Unmarshal([]byte(s.Keys), &kr); err != nil {
		t.Fatalf("GET %s/v1/keys: %v", base, err)
	}
	if len(kr.Keys) == 0 {
		t.Fatalf("GET %s/v1/keys lists no key; the differential would be vacuous", base)
	}
	body, _ := json.Marshal(map[string]any{"keys": kr.Keys})
	s.Batch = Post(t, base+"/v1/stale", string(body))
	s.Stats = Get(t, base+"/v1/stats")
	s.Events = Get(t, base+"/v1/events")
	return s
}

// Sides names a differential's two runs: the reference and the one it
// checks.
type Sides struct{ Want, Got string }

// Diff fails t at the first line where got differs from want.
func (s Sides) Diff(t testing.TB, what, want, got string) {
	t.Helper()
	if err := s.diff(what, want, got); err != nil {
		t.Fatal(err)
	}
}

// Compare diffs every surface of got against want.
func (s Sides) Compare(t testing.TB, want, got Surfaces) {
	t.Helper()
	s.Diff(t, "GET /v1/keys", want.Keys, got.Keys)
	s.Diff(t, "POST /v1/stale", want.Batch, got.Batch)
	s.Diff(t, "GET /v1/stats", want.Stats, got.Stats)
	s.Diff(t, "GET /v1/events", want.Events, got.Events)
}

// diff reports the first divergent line of two multi-kilobyte bodies
// rather than both in full.
func (s Sides) diff(what, want, got string) error {
	if want == got {
		return nil
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	pad := max(len(s.Want), len(s.Got))
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Errorf("%s diverges at line %d:\n%*s: %q\n%*s: %q\n(%s %d lines, %s %d lines)",
				what, i+1, pad, s.Want, wl, pad, s.Got, gl, s.Want, len(w), s.Got, len(g))
		}
	}
	return fmt.Errorf("%s differs only in trailing newlines (%s %d lines, %s %d lines)", what, s.Want, len(w), s.Got, len(g))
}

// WindowMarker is the frame a daemon publishes on its stream when it
// closes the window starting at ws.
func WindowMarker(ws int64) string {
	return fmt.Sprintf("event: window\ndata: {\"windowStart\":%d}\n\n", ws)
}

// Capture tails a server-sent-event stream into a buffer.
type Capture struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	body io.ReadCloser
	done chan struct{}
}

// Subscribe opens the SSE stream at url and captures it until Until.
func Subscribe(t testing.TB, url string) *Capture {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("subscribe %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("subscribe %s: status %d", url, resp.StatusCode)
	}
	c := &Capture{body: resp.Body, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		chunk := make([]byte, 32<<10)
		for {
			n, err := resp.Body.Read(chunk)
			if n > 0 {
				c.mu.Lock()
				c.buf.Write(chunk[:n])
				c.mu.Unlock()
			}
			if err != nil {
				return
			}
		}
	}()
	return c
}

// Until waits until the stream holds marker, the frame that names its end,
// then closes the subscription and returns the stream without its comment
// lines (the preamble and keepalives, whose timing is wall-clock). If the
// marker has not arrived within limit, it fails t naming the marker and the
// last line received.
func (c *Capture) Until(t testing.TB, marker string, limit time.Duration) string {
	t.Helper()
	stream, err := c.until(marker, limit)
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

func (c *Capture) until(marker string, limit time.Duration) (string, error) {
	deadline := time.Now().Add(limit)
	for !c.holds(marker) && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	raw := c.close()
	var lines []string
	for _, line := range strings.Split(raw, "\n") {
		if !strings.HasPrefix(line, ":") {
			lines = append(lines, line)
		}
	}
	stream := strings.Join(lines, "\n")
	if !strings.Contains(raw, marker) {
		last := strings.TrimRight(stream, "\n")
		last = last[strings.LastIndexByte(last, '\n')+1:]
		return stream, fmt.Errorf("stream lacks %q after %v; its last line is %q (%d lines)",
			marker, limit, last, len(lines))
	}
	return stream, nil
}

func (c *Capture) holds(marker string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Contains(c.buf.Bytes(), []byte(marker))
}

// close ends the subscription and returns everything captured.
func (c *Capture) close() string {
	c.body.Close()
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.String()
}
