package feedwire_test

import (
	"context"
	"net"
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
// then what the daemon's own server reads after the feed finished.
type outputs struct {
	signals string
	faultfeed.Surfaces
}

// collect reads d's serving surfaces after the feed finished.
func collect(t *testing.T, d *daemon.Daemon, signals []string) outputs {
	t.Helper()
	ts := httptest.NewServer(d.Srv.Handler())
	defer ts.Close()
	return outputs{strings.Join(signals, "\n"), faultfeed.ReadSurfaces(t, ts.URL)}
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
	return collect(t, d, sigs)
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
	// stalls, when set, makes the pipeline's update reader pause at the
	// given cumulative record counts — the slow-consumer scenario.
	stalls   []int64
	stallDur time.Duration

	// minConnections asserts the run actually exercised reconnects.
	minConnections int
	// noReconnects asserts each stream was dialed exactly once.
	noReconnects bool
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

	conn := feedwire.NewConnector(feedwire.ConnectorConfig{Addr: dialAddr})
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

	reconnects := func() uint64 {
		return obs.Default.Counter("rrr_feedwire_reconnects_total", "stream", "updates").Value() +
			obs.Default.Counter("rrr_feedwire_reconnects_total", "stream", "traces").Value()
	}
	reconnectsBefore := reconnects()

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
	if opts.noReconnects {
		if n := openedU.Load(); n != 1 {
			t.Fatalf("update stream opened %d times, want 1", n)
		}
		if n := reconnects() - reconnectsBefore; n != 0 {
			t.Fatalf("rrr_feedwire_reconnects_total moved by %d, want 0", n)
		}
	}
	return collect(t, d, sigs)
}

func compareOutputs(t *testing.T, want, got outputs) {
	t.Helper()
	sides := faultfeed.Sides{Want: "inproc", Got: "wire"}
	sides.Diff(t, "signals", want.signals, got.signals)
	sides.Compare(t, want.Surfaces, got.Surfaces)
}

// TestWireDifferential is the guarantee for the feed wire: a daemon
// ingesting over TCP — including across forced mid-window disconnects
// with reconnect+resume, and under a consumer that stalls long enough to
// push back on the server — produces byte-identical signals, keys, stale
// sets, /v1/stats and /v1/events to one ingesting the same feeds
// in-process.
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
		// The update reader goes to sleep mid-stream twice. Nothing reads
		// the socket meanwhile, so TCP stalls the server's writes; the
		// stream resumes where it stopped, on the same connection.
		got := wireOutputs(t, wireOpts{
			stalls:       []int64{50, 120},
			stallDur:     400 * time.Millisecond,
			noReconnects: true,
		})
		compareOutputs(t, want, got)
	})
}
