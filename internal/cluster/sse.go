package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"time"

	"rrr/internal/server"
)

// sseClient maintains one worker's /v1/signals subscription: it parses
// the worker's event stream, feeds the merger, and reconnects with
// bounded backoff when the worker restarts. Signal payload bytes are
// passed through untouched; parsing recovers only the ordering fields.
type sseClient struct {
	worker  int
	url     string
	httpc   *http.Client
	m       *merger
	backoff time.Duration
	// lastDropped is the worker stream's cumulative drop counter as of
	// the last `dropped` frame; the merger is fed deltas. Reset per
	// connection (a fresh subscription starts a fresh counter).
	lastDropped uint64
}

func newSSEClient(worker int, baseURL string, httpc *http.Client, m *merger, backoff time.Duration) *sseClient {
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	return &sseClient{
		worker:  worker,
		url:     strings.TrimRight(baseURL, "/") + "/v1/signals",
		httpc:   httpc,
		m:       m,
		backoff: backoff,
	}
}

// run blocks until ctx is done, reconnecting after every stream failure.
// The delay doubles while attempts fail and starts over after a
// connection that attached.
func (c *sseClient) run(ctx context.Context) {
	wait := c.backoff
	for {
		if ctx.Err() != nil {
			return
		}
		// Connection failures are expected during worker restarts.
		if c.consume(ctx) {
			wait = c.backoff
		}
		c.m.setConnected(c.worker, false)
		if ctx.Err() != nil {
			return
		}
		metClusterStreamReconnects.Inc()
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
		if wait < 2*time.Second {
			wait *= 2
		}
	}
}

// consume runs one connection: it marks the worker connected after the
// stream opens and dispatches events until the stream breaks. It reports
// whether the stream opened.
func (c *sseClient) consume(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url, nil)
	if err != nil {
		return false
	}
	// A streaming client must not carry a response deadline; liveness
	// comes from the worker's keepalive comments and ctx cancellation.
	resp, err := c.httpc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	c.lastDropped = 0
	c.m.setConnected(c.worker, true)
	c.read(resp.Body)
	return true
}

// read parses one connection's event stream, dispatching each complete
// event, until the stream ends.
func (c *sseClient) read(body io.Reader) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event, data := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data != "" {
				c.dispatch(event, data)
			}
			event, data = "", ""
		case strings.HasPrefix(line, ":"):
			// keepalive comment
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		}
	}
}

func (c *sseClient) dispatch(event, data string) {
	if strings.Contains(data, "\r") {
		return // a line break inside the field; no worker writes one
	}
	switch event {
	case "signal":
		raw := []byte(data)
		sig, err := server.ParseSignal(raw)
		if err != nil {
			return // malformed frame; ordering fields unrecoverable
		}
		c.m.signal(c.worker, sig, raw)
	case "routing":
		raw := []byte(data)
		ev, err := server.ParseEvent(raw)
		if err != nil {
			return // malformed frame; ordering fields unrecoverable
		}
		c.m.routing(c.worker, ev, raw)
	case "window":
		var mk struct {
			WindowStart int64 `json:"windowStart"`
		}
		if err := json.Unmarshal([]byte(data), &mk); err != nil {
			return
		}
		c.m.marker(c.worker, mk.WindowStart)
	case "dropped":
		var d struct {
			Dropped uint64 `json:"dropped"`
		}
		if err := json.Unmarshal([]byte(data), &d); err != nil {
			return
		}
		if d.Dropped > c.lastDropped {
			c.m.workerDropped(c.worker, d.Dropped-c.lastDropped)
			c.lastDropped = d.Dropped
		}
	}
}
