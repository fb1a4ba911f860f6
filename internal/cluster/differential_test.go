package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"rrr/internal/experiments"
)

// diffScale keeps the simulated feed small enough for CI while still
// closing dozens of windows and emitting signals across techniques.
func diffScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Days = 1
	sc.PublicPerWindow = 5
	return sc
}

// streamCapture tails an SSE endpoint into a buffer.
type streamCapture struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	resp *http.Response
	done chan struct{}
}

func captureStream(t *testing.T, url string) *streamCapture {
	t.Helper()
	resp, err := http.Get(url + "/v1/signals")
	if err != nil {
		t.Fatalf("subscribe %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe %s: status %d", url, resp.StatusCode)
	}
	c := &streamCapture{resp: resp, done: make(chan struct{})}
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

func (c *streamCapture) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Len()
}

// stable waits until the stream has been idle for `idle`, then closes the
// subscription and returns everything captured.
func (c *streamCapture) stable(t *testing.T, idle, max time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(max)
	last, lastChange := c.size(), time.Now()
	for {
		time.Sleep(20 * time.Millisecond)
		if n := c.size(); n != last {
			last, lastChange = n, time.Now()
		} else if time.Since(lastChange) >= idle {
			break
		}
		if time.Now().After(deadline) {
			break
		}
	}
	return c.close()
}

// until waits until the stream holds frame, or max has passed, then closes
// the subscription and returns everything captured.
func (c *streamCapture) until(t *testing.T, frame string, max time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(max)
	for !c.holds(frame) && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	return c.close()
}

func (c *streamCapture) holds(frame string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Contains(c.buf.Bytes(), []byte(frame))
}

// close ends the subscription and returns everything captured.
func (c *streamCapture) close() string {
	c.resp.Body.Close()
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.String()
}

// normalizeStream strips SSE comments (the preamble and keepalives, whose
// timing is wall-clock) leaving only event frames.
func normalizeStream(s string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, ":") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

func httpPost(t *testing.T, url, body string) string {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, data)
	}
	return string(data)
}

// singleOutputs runs the single-node baseline to feed EOF and captures
// the three comparison surfaces: the signal stream, the key list, the
// full-corpus batch verdicts, and /v1/stats.
type outputs struct {
	stream string
	keys   string
	batch  string
	stats  string
}

func batchBody(t *testing.T, keysJSON string) string {
	t.Helper()
	var resp struct {
		Keys []string `json:"keys"`
	}
	if err := json.Unmarshal([]byte(keysJSON), &resp); err != nil {
		t.Fatalf("keys response: %v", err)
	}
	if len(resp.Keys) == 0 {
		t.Fatal("empty key list; differential would be vacuous")
	}
	body, _ := json.Marshal(map[string]any{"keys": resp.Keys})
	return string(body)
}

func singleOutputs(t *testing.T, sc experiments.Scale) outputs {
	t.Helper()
	lw, err := StartLocalDaemon(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer lw.StopHTTP()

	cap := captureStream(t, lw.URL())
	if err := lw.RunFeed(context.Background()); err != nil {
		t.Fatalf("baseline feed: %v", err)
	}
	var o outputs
	o.stream = normalizeStream(cap.stable(t, 300*time.Millisecond, 30*time.Second))
	o.keys = httpGet(t, lw.URL()+"/v1/keys")
	o.batch = httpPost(t, lw.URL()+"/v1/stale", batchBody(t, o.keys))
	o.stats = httpGet(t, lw.URL()+"/v1/stats")
	return o
}

func clusterOutputs(t *testing.T, sc experiments.Scale, workers int) outputs {
	t.Helper()
	lc, err := StartLocal(LocalOptions{
		Workers:       workers,
		Scale:         sc,
		RouterTimeout: 30 * time.Second,
		StreamBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.WaitStreams(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	cap := captureStream(t, lc.URL())
	lc.StartFeeds()
	if err := lc.WaitFeeds(); err != nil {
		t.Fatalf("cluster feeds: %v", err)
	}
	var o outputs
	o.stream = normalizeStream(cap.stable(t, 300*time.Millisecond, 30*time.Second))
	o.keys = httpGet(t, lc.URL()+"/v1/keys")
	o.batch = httpPost(t, lc.URL()+"/v1/stale", batchBody(t, o.keys))
	o.stats = httpGet(t, lc.URL()+"/v1/stats")
	return o
}

// diffStrings fails with a focused diff rather than dumping two full
// multi-kilobyte bodies.
func diffStrings(t *testing.T, what, want, got string) {
	t.Helper()
	if want == got {
		return
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		wl, gl := "", ""
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			t.Fatalf("%s diverges at line %d:\n single: %q\ncluster: %q\n(single %d lines, cluster %d lines)",
				what, i+1, wl, gl, len(w), len(g))
		}
	}
	t.Fatalf("%s differs only in trailing newlines (single %d lines, cluster %d)", what, len(w), len(g))
}

// TestClusterDifferential is the tentpole guarantee: a K-worker cluster's
// merged /v1/stale, /v1/stats, /v1/keys, and SSE signal stream are
// byte-identical to a single daemon over the same simulated feeds, for
// K ∈ {1, 3}, and the merger drops no frame as late. It runs at diffScale
// and, as Days2, over two days of dense public traces: there §4.2.1's
// subpath series choose windows longer than the engine's, so a close
// publishes signals about a series window that began windows earlier.
func TestClusterDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential runs a full simulated day per topology")
	}
	clusterDifferential(t, diffScale(), 0)
	t.Run("Days2", func(t *testing.T) {
		sc := diffScale()
		sc.Days = 2
		sc.PublicPerWindow = 80
		clusterDifferential(t, sc, 1)
	})
}

// clusterDifferential compares K ∈ {1, 3} clusters with the single-daemon
// baseline at sc, whose stream must carry at least minOlder signals about
// a window older than the marker that follows them.
func clusterDifferential(t *testing.T, sc experiments.Scale, minOlder int) {
	want := singleOutputs(t, sc)
	if n := strings.Count(want.stream, "event: signal"); n < 10 {
		t.Fatalf("baseline stream carries %d signals; differential would be vacuous", n)
	}
	if n := strings.Count(want.stream, "event: window"); n < 10 {
		t.Fatalf("baseline stream carries %d window markers; want a full day's worth", n)
	}
	if n := olderThanMarker(t, want.stream); n < minOlder {
		t.Fatalf("baseline stream carries %d signals about a window older than their marker; want >= %d", n, minOlder)
	}
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("K=%d", workers), func(t *testing.T) {
			late := metClusterStreamLate.Value()
			got := clusterOutputs(t, sc, workers)
			diffStrings(t, "keys", want.keys, got.keys)
			diffStrings(t, "batch verdicts", want.batch, got.batch)
			diffStrings(t, "stats", want.stats, got.stats)
			diffStrings(t, "signal stream", want.stream, got.stream)
			if n := metClusterStreamLate.Value() - late; n != 0 {
				t.Fatalf("merger dropped %d frames as late", n)
			}
		})
	}
}

// olderThanMarker counts the stream's signals whose windowStart precedes
// the window marker that follows them.
func olderThanMarker(t *testing.T, stream string) int {
	var pending []int64
	n, event := 0, ""
	for _, line := range strings.Split(stream, "\n") {
		if kind, ok := strings.CutPrefix(line, "event: "); ok {
			event = kind
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || (event != "signal" && event != "window") {
			continue
		}
		var f struct {
			WindowStart int64 `json:"windowStart"`
		}
		if err := json.Unmarshal([]byte(data), &f); err != nil {
			t.Fatalf("%s frame %q: %v", event, data, err)
		}
		if event == "signal" {
			pending = append(pending, f.WindowStart)
			continue
		}
		for _, ws := range pending {
			if ws < f.WindowStart {
				n++
			}
		}
		pending = pending[:0]
	}
	return n
}
