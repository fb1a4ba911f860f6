package feedwire_test

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rrr"
	"rrr/internal/daemon"
	"rrr/internal/experiments"
	"rrr/internal/faultfeed"
	"rrr/internal/feedwire"
	"rrr/internal/obs"
	"rrr/internal/server"
)

// diffScale keeps the simulated feed small enough for CI while still
// closing a full day of windows and emitting signals across techniques —
// the same scale the cluster differential uses.
func diffScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Days = 1
	sc.PublicPerWindow = 5
	return sc
}

// newDaemon assembles rrrd at default flags over a fresh deterministic
// environment, tracking the full corpus — the same construction for the
// in-process baseline and every wire-fed run, so any output difference is
// the transport's fault.
func newDaemon(t *testing.T, sc experiments.Scale) *daemon.Daemon {
	t.Helper()
	d, err := daemon.New(sc, daemon.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Track()
	if _, _, err := d.Recover(nil); err != nil {
		t.Fatal(err)
	}
	return d
}

// wireRetry is a reconnect budget tight enough for CI: a forced disconnect
// costs milliseconds, and a feed that stays down fails the run.
var wireRetry = rrr.RetryPolicy{MaxRetries: 10, Backoff: 5 * time.Millisecond}

// outputs are the comparison surfaces: every emitted signal in order,
// then the served key list, full-corpus batch verdicts, and stats.
type outputs struct {
	signals string
	keys    string
	batch   string
	stats   string
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

// collect reads the monitor's serving surfaces after the feed finished.
func collect(t *testing.T, mon *rrr.Monitor, signals []string) outputs {
	t.Helper()
	ts := httptest.NewServer(server.New(mon, server.Config{}).Handler())
	defer ts.Close()
	var o outputs
	o.signals = strings.Join(signals, "\n")
	o.keys = httpGet(t, ts.URL+"/v1/keys")
	var kr struct {
		Keys []string `json:"keys"`
	}
	if err := json.Unmarshal([]byte(o.keys), &kr); err != nil {
		t.Fatalf("keys response: %v", err)
	}
	if len(kr.Keys) == 0 {
		t.Fatal("empty key list; differential would be vacuous")
	}
	body, _ := json.Marshal(map[string]any{"keys": kr.Keys})
	o.batch = httpPost(t, ts.URL+"/v1/stale", string(body))
	o.stats = httpGet(t, ts.URL+"/v1/stats")
	return o
}

// inprocOutputs is the baseline: the monitor ingests the simulator feeds
// directly, no network anywhere.
func inprocOutputs(t *testing.T) outputs {
	t.Helper()
	sc := diffScale()
	d := newDaemon(t, sc)
	var sigs []string
	cfg := d.Pipeline(func(s rrr.Signal) { sigs = append(sigs, s.String()) }, wireRetry)
	if err := rrr.RunPipeline(context.Background(), d.Mon, cfg); err != nil {
		t.Fatalf("baseline pipeline: %v", err)
	}
	return collect(t, d.Mon, sigs)
}

// stallPoints makes an update-source wrapper that injects one long pause
// when the cumulative record count crosses each threshold — once
// globally, across reconnect-reopened sources, so every pause stalls the
// consumer exactly once and the run always progresses.
type stallPoints struct {
	total      atomic.Int64
	thresholds []int64
	fired      []atomic.Bool
	dur        time.Duration
}

func (sp *stallPoints) wrap(src rrr.UpdateSource) rrr.UpdateSource {
	return stalledUpdates{sp: sp, src: src}
}

type stalledUpdates struct {
	sp  *stallPoints
	src rrr.UpdateSource
}

func (s stalledUpdates) Read() (rrr.Update, error) {
	n := s.sp.total.Add(1)
	for i, th := range s.sp.thresholds {
		if n >= th && s.sp.fired[i].CompareAndSwap(false, true) {
			time.Sleep(s.sp.dur)
		}
	}
	return s.src.Read()
}

// wireOpts configures one wire-fed run.
type wireOpts struct {
	// killAfterBytes, when set, routes the connection through a flaky
	// proxy that resets the i-th accepted connection after that many
	// upstream bytes.
	killAfterBytes []int64
	// stalls, when set, makes the pipeline's update consumer pause at
	// the given cumulative record counts — the slow-consumer scenario.
	stalls    []int64
	stallDur  time.Duration
	connector feedwire.ConnectorConfig

	// minConnections asserts the run actually exercised reconnects.
	minConnections int
	// wantDrops asserts the disconnect policy actually fired.
	wantDrops bool
}

// wireOutputs runs the monitor against a feedwire server over real TCP
// and returns the same surfaces as the in-process baseline.
func wireOutputs(t *testing.T, opts wireOpts) outputs {
	t.Helper()
	sc := diffScale()

	// Feed server over its own identical environment.
	fenv := experiments.NewDaemonEnv(sc, 0)
	fsrv, err := feedwire.NewServer(feedwire.Config{WindowSec: sc.WindowSec})
	if err != nil {
		t.Fatal(err)
	}
	fsrv.Pump(fenv.Updates, fenv.Traces)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fsrv.Serve(lis)
	defer fsrv.Close()

	dialAddr := lis.Addr().String()
	var proxy *faultfeed.Proxy
	if len(opts.killAfterBytes) > 0 {
		proxy = &faultfeed.Proxy{Upstream: dialAddr, KillAfterBytes: opts.killAfterBytes}
		if err := proxy.Start(); err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()
		dialAddr = proxy.Addr()
	}

	cc := opts.connector
	cc.Addr = dialAddr
	conn := feedwire.NewConnector(cc)
	defer conn.Close()

	var sp *stallPoints
	if len(opts.stalls) > 0 {
		sp = &stallPoints{thresholds: opts.stalls, fired: make([]atomic.Bool, len(opts.stalls)), dur: opts.stallDur}
	}
	var openedU atomic.Int64
	openUpdates := func(since int64) (rrr.UpdateSource, error) {
		openedU.Add(1)
		src, err := conn.OpenUpdates(since)
		if err != nil {
			return nil, err
		}
		if sp != nil {
			return sp.wrap(src), nil
		}
		return src, nil
	}
	openTraces := func(since int64) (rrr.TraceSource, error) { return conn.OpenTraces(since) }

	droppedBefore := obs.Default.Counter("rrr_feedwire_dropped_conns_total", "stream", "updates").Value()

	// rrrd's pipeline with the daemon's own simulated feeds swapped for
	// the connector's Open factories, as -feed-addr does.
	d := newDaemon(t, sc)
	var sigs []string
	cfg := d.Pipeline(func(s rrr.Signal) { sigs = append(sigs, s.String()) }, wireRetry)
	cfg.Updates, cfg.Traces = nil, nil
	cfg.OpenUpdates, cfg.OpenTraces = openUpdates, openTraces
	if err := rrr.RunPipeline(context.Background(), d.Mon, cfg); err != nil {
		t.Fatalf("wire pipeline: %v", err)
	}

	if proxy != nil && proxy.Accepted() < opts.minConnections {
		t.Fatalf("proxy accepted %d connections, want >= %d (forced disconnects did not happen)",
			proxy.Accepted(), opts.minConnections)
	}
	if opts.minConnections > 0 && proxy == nil && int(openedU.Load()) < opts.minConnections/2 {
		t.Fatalf("update stream opened %d times, want reconnects", openedU.Load())
	}
	if opts.wantDrops {
		dropped := obs.Default.Counter("rrr_feedwire_dropped_conns_total", "stream", "updates").Value() - droppedBefore
		if dropped == 0 {
			t.Fatal("disconnect policy never fired; slow-consumer scenario was vacuous")
		}
	}
	// The client parks at most Buffer records per stream by construction;
	// the gauge exposes the live depth, which can never exceed that.
	if depth := obs.Default.Gauge("rrr_feedwire_buffer_depth", "stream", "updates").Value(); cc.Buffer > 0 && depth > int64(cc.Buffer) {
		t.Fatalf("buffer depth %d exceeds configured bound %d", depth, cc.Buffer)
	}
	return collect(t, d.Mon, sigs)
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
			t.Fatalf("%s diverges at line %d:\ninproc: %q\n  wire: %q\n(inproc %d lines, wire %d lines)",
				what, i+1, wl, gl, len(w), len(g))
		}
	}
	t.Fatalf("%s differs only in trailing newlines (inproc %d lines, wire %d)", what, len(w), len(g))
}

func compareOutputs(t *testing.T, want, got outputs) {
	t.Helper()
	diffStrings(t, "signals", want.signals, got.signals)
	diffStrings(t, "keys", want.keys, got.keys)
	diffStrings(t, "batch verdicts", want.batch, got.batch)
	diffStrings(t, "stats", want.stats, got.stats)
}

// TestWireDifferential is the tentpole guarantee for the feed wire: a
// daemon ingesting over TCP — including across forced mid-window
// disconnects with reconnect+resume, and under a slow consumer that
// trips the disconnect policy — produces byte-identical signals, stale
// sets, and /v1/stats to one ingesting the same feeds in-process, with
// client memory bounded by the configured buffer throughout.
func TestWireDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential runs a full simulated day per scenario")
	}
	want := inprocOutputs(t)
	if n := strings.Count(want.signals, "\n") + 1; n < 10 {
		t.Fatalf("baseline emitted %d signals; differential would be vacuous", n)
	}

	t.Run("clean", func(t *testing.T) {
		got := wireOutputs(t, wireOpts{})
		compareOutputs(t, want, got)
	})

	t.Run("mid-window disconnect", func(t *testing.T) {
		// Cut the first two accepted connections (one per stream,
		// whichever order they dial in) mid-frame after ~4 KiB — deep
		// inside the feed, far from any window boundary. The connector
		// surfaces a torn frame as a transient error; the pipeline
		// reopens window-aligned and positional replay makes the
		// recovery exactly-once.
		got := wireOutputs(t, wireOpts{
			killAfterBytes: []int64{4<<10 + 7, 4<<10 + 13},
			minConnections: 4, // 2 initial + 2 reconnects
		})
		compareOutputs(t, want, got)
	})

	t.Run("slow consumer", func(t *testing.T) {
		// A tiny buffer plus a consumer that goes to sleep mid-stream:
		// the buffer fills, the disconnect policy drops the connection,
		// buffered records drain, and the reconnect resumes losslessly.
		got := wireOutputs(t, wireOpts{
			stalls:   []int64{50, 120},
			stallDur: 400 * time.Millisecond,
			connector: feedwire.ConnectorConfig{
				Buffer:       4,
				Policy:       feedwire.PolicyDisconnect,
				StallTimeout: 40 * time.Millisecond,
			},
			wantDrops: true,
		})
		compareOutputs(t, want, got)
	})
}
