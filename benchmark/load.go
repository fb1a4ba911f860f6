package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// staleHead is what the load generator reads of a batch response: the
// leading {"stale":N,"count":M and whether the router marked the answer
// partial. It is parsed from a fixed-size prefix; the verdict bodies are
// drained unread so the client's own CPU stays out of the measurement.
type staleHead struct {
	stale, count int
	partial      bool
}

func parseStaleHead(head []byte) (staleHead, error) {
	var h staleHead
	rest, ok := bytes.CutPrefix(head, []byte(`{"stale":`))
	if !ok {
		return h, fmt.Errorf("unexpected response prefix %q", head)
	}
	num := func(b []byte) (int, []byte, error) {
		i := 0
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		if i == 0 {
			return 0, b, fmt.Errorf("no number in response prefix %q", head)
		}
		v, err := strconv.Atoi(string(b[:i]))
		return v, b[i:], err
	}
	var err error
	if h.stale, rest, err = num(rest); err != nil {
		return h, err
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"count":`)); !ok {
		return h, fmt.Errorf("no count in response prefix %q", head)
	}
	if h.count, rest, err = num(rest); err != nil {
		return h, err
	}
	// The router splices "unavailablePartitions" here when some key had
	// no live replica; a single daemon goes straight to "verdicts".
	h.partial = bytes.HasPrefix(rest, []byte(`,"unavailablePartitions"`))
	return h, nil
}

// client is the load generator: one persistent connection, requests sent
// one after another (makeClient in serve.go has why there is one). Failures are counted, never retried: a retry would
// hide exactly the shed and keep-alive faults the benchmark is there to
// see.
type client struct {
	httpc *http.Client
	url   string
	set   requestSet
	keys  int // keys per batch, to check the count

	latNs     []int64
	attempted int
	failed    int
	stale     int
	firstErr  error
}

func newClient(base string, set requestSet, keys, capacity int) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{
		httpc: &http.Client{Transport: tr, Timeout: 10 * time.Second},
		url:   base + "/v1/stale", set: set, keys: keys,
		latNs: make([]int64, 0, capacity),
	}
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// post issues request i and, when timed, records its latency.
func (c *client) post(i int, timed bool) {
	body := c.set.bodies[i%len(c.set.bodies)]
	t0 := time.Now()
	if timed {
		c.attempted++
	}
	resp, err := c.httpc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		if timed {
			c.fail(err)
		}
		return
	}
	var head [64]byte
	n, rerr := io.ReadAtLeast(resp.Body, head[:], len(`{"stale":0,"count":0`))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	end := time.Now()
	if !timed {
		return
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		c.fail(fmt.Errorf("status %d", resp.StatusCode))
	case rerr != nil:
		c.fail(rerr)
	default:
		h, err := parseStaleHead(head[:n])
		switch {
		case err != nil:
			c.fail(err)
		case h.partial:
			c.fail(fmt.Errorf("partial response: some keys had no live replica"))
		case h.count != c.keys:
			c.fail(fmt.Errorf("%d verdicts for %d keys", h.count, c.keys))
		default:
			c.stale += h.stale
			c.latNs = append(c.latNs, int64(end.Sub(t0)))
		}
	}
}

func (c *client) close() { c.httpc.CloseIdleConnections() }

// runLoad runs c in a closed loop (the next request when the previous
// response has been read to its end) until ctx ends. Warm-up happens
// before, through warm().
func runLoad(ctx context.Context, c *client) {
	for i := 0; ctx.Err() == nil; i++ {
		c.post(i, true)
	}
}

// warm issues n untimed requests: the connection opens, the verdict cache
// fills, lazy set-up in net/http finishes.
func warm(c *client, n int) {
	for i := 0; i < n; i++ {
		c.post(i, false)
	}
}

// sseFrame is one `event: window` marker with its receipt time.
type sseFrame struct {
	ws int64
	at time.Time
}

// subscriber is one GET /v1/signals consumer. It timestamps window
// markers and counts everything that means the stream was not whole.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}
	// marker is poked (never blocked on) when a window marker arrives.
	marker chan struct{}

	mu      sync.Mutex
	windows []sseFrame
	signals int
	dropped int // `event: dropped` notices and gap frames
	err     error
}

// subscribe attaches and returns once the stream's opening comment has
// arrived, so no window marker can be published before the subscriber is
// on the hub.
func subscribe(base string) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/signals", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /v1/signals: status %d", resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	if line, err := rd.ReadString('\n'); err != nil || !strings.HasPrefix(line, ":") {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /v1/signals: no stream preamble (%q, %v)", line, err)
	}
	s := &subscriber{cancel: cancel, done: make(chan struct{}), marker: make(chan struct{}, 1)}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		event := ""
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				if ctx.Err() == nil {
					s.mu.Lock()
					s.err = err
					s.mu.Unlock()
				}
				return
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "event: "):
				event = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				now := time.Now()
				s.mu.Lock()
				switch event {
				case "window":
					v := strings.TrimSuffix(strings.TrimPrefix(line, `data: {"windowStart":`), "}")
					ws, perr := strconv.ParseInt(v, 10, 64)
					if perr != nil {
						s.dropped++
					} else {
						s.windows = append(s.windows, sseFrame{ws, now})
						select {
						case s.marker <- struct{}{}:
						default:
						}
					}
				case "signal":
					s.signals++
				case "dropped", "gap":
					s.dropped++
				}
				s.mu.Unlock()
			}
		}
	}()
	return s, nil
}

// waitFor blocks until the marker for window ws has arrived, and returns
// when it did, or until timeout passes or the stream ends.
func (s *subscriber) waitFor(ws int64, timeout time.Duration) (time.Time, bool) {
	expired := time.After(timeout)
	for {
		s.mu.Lock()
		for i := len(s.windows) - 1; i >= 0 && s.windows[i].ws >= ws; i-- {
			if s.windows[i].ws == ws {
				at := s.windows[i].at
				s.mu.Unlock()
				return at, true
			}
		}
		s.mu.Unlock()
		select {
		case <-s.marker:
		case <-s.done:
			return time.Time{}, false
		case <-expired:
			return time.Time{}, false
		}
	}
}

func (s *subscriber) close() {
	s.cancel()
	<-s.done
}
