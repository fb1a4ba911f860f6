package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"net"
	"net/http"
	"time"

	"rrr"
	"rrr/internal/bgp"
	"rrr/internal/events"
	"rrr/internal/experiments"
	"rrr/internal/server"
	"rrr/internal/traceroute"
)

// daemon is the program under test, assembled the way cmd/rrrd's run()
// does with default flags: a Monitor with DefaultConfig and Shards 0
// (GOMAXPROCS), primed from the table dump, an event detector primed from
// the same dump and tapped into the pipeline, and a server over both. The
// services come from a fresh DaemonEnv, never from the environment the
// feed was recorded on, whose simulator has moved on.
type daemon struct {
	env  *experiments.DaemonEnv
	mon  *rrr.Monitor
	det  *events.Detector
	srv  *server.Server
	keys []rrr.Key // tracked pairs, sorted

	// Loopback listener, when serve() was called.
	httpSrv *http.Server
	url     string
}

// sseRing is the one flag not left at rrrd's default (-ring 256). At mid
// scale a window close publishes several hundred signals in a burst and
// the SSE writer flushes per event, so a 256-deep ring sheds events on
// most windows; the benchmark needs a stream on which nothing fails, and
// uses the depth internal/cluster's local harness uses for the same
// reason. README.md records the drop rate seen at the default.
const sseRing = 1 << 14

// daemonOpts are the only knobs a workload turns: the shard count (0 on
// every end-to-end run, 1 on the serial reference), which corpus pairs to
// track, and the cluster identity of a routed worker.
type daemonOpts struct {
	shards int
	keep   func(i int, k rrr.Key) bool
	worker *server.WorkerIdentity
}

func newDaemon(sc experiments.Scale, o daemonOpts) (*daemon, error) {
	env := experiments.NewDaemonEnv(sc, 0)
	cfg := rrr.DefaultConfig()
	cfg.WindowSec = sc.WindowSec
	cfg.Shards = o.shards
	mon, err := rrr.NewMonitor(rrr.Options{
		Config: cfg, Mapper: env.Mapper, Aliases: env.Aliases,
		Geo: env.Geo, Rel: env.Rel, IXPMembers: env.IXPMembers,
	})
	if err != nil {
		return nil, err
	}
	det := events.NewDetector(events.Config{WindowSec: sc.WindowSec})
	for _, u := range env.Dump {
		mon.ObserveBGP(u)
		det.Prime(u)
	}
	for i, tr := range env.Corpus {
		if o.keep != nil && !o.keep(i, tr.Key()) {
			continue
		}
		// AS-loop traces are rejected by design (Appendix A), as in rrrd.
		_ = mon.Track(tr)
	}
	srv := server.New(mon, server.Config{RingSize: sseRing, Health: rrr.NewPipelineHealth(), Events: det, Worker: o.worker})
	det.SetSink(srv.PublishEvent)
	d := &daemon{env: env, mon: mon, det: det, srv: srv, keys: mon.Tracked()}
	if len(d.keys) == 0 {
		return nil, fmt.Errorf("daemon tracks no pairs")
	}
	return d, nil
}

// keepFor tracks the corpus traces in's thinning keeps.
func keepFor(in *input) func(int, rrr.Key) bool {
	if in.thin <= 1 {
		return nil
	}
	return func(i int, _ rrr.Key) bool { return i%in.thin == in.thinOff }
}

// serve puts the daemon's handler on a loopback listener.
func (d *daemon) serve(wrap wrapFunc) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.httpSrv = &http.Server{Handler: wrap.apply("worker.handler", d.srv.Handler())}
	d.url = "http://" + lis.Addr().String()
	go d.httpSrv.Serve(lis)
	return nil
}

func (d *daemon) close() {
	if d.httpSrv != nil {
		d.httpSrv.Close()
	}
}

// pipelineConfig is cmd/rrrd's PipelineConfig at default flags, less the
// sources: SSE sink, detector tap, window markers, retry budget and
// adjacent dedup.
func (d *daemon) pipelineConfig(sink func(rrr.Signal), onClose func(int64)) rrr.PipelineConfig {
	return rrr.PipelineConfig{
		Sink: rrr.Tee(d.srv.Publish, sink),
		Tap:  d.det,
		Retry: rrr.RetryPolicy{
			MaxRetries:         5,
			Backoff:            500 * time.Millisecond,
			ContinueOnDeadFeed: true,
		},
		DedupAdjacent: true,
		OnWindowClose: func(ws int64) {
			d.srv.PublishWindowClose(ws)
			if onClose != nil {
				onClose(ws)
			}
		},
	}
}

// ingest runs windows [from, to) of in through RunPipeline.
func (d *daemon) ingest(ctx context.Context, in *input, from, to int, sink func(rrr.Signal), onClose func(int64)) error {
	cfg := d.pipelineConfig(sink, onClose)
	cfg.Updates = in.updateSource(from, to)
	cfg.Traces = in.traceSource(from, to)
	return rrr.RunPipeline(ctx, d.mon, cfg)
}

// sigChain is a running SHA-256 over a signal stream with a checkpoint
// per closed window, so two runs can be compared at any common prefix.
type sigChain struct {
	h      hash.Hash
	total  int
	window []chainPoint
}

type chainPoint struct {
	ws     int64
	total  int
	digest [sha256.Size]byte
}

func newSigChain() *sigChain { return &sigChain{h: sha256.New()} }

func (c *sigChain) add(s rrr.Signal) {
	// Every field, each with its own verb: the engine promises the whole
	// struct, not just the pair and window, is identical at any shard
	// count. (%+v of the struct would call Signal.String, which prints
	// five of the thirteen.)
	fmt.Fprintf(c.h, "%d %d %d %d %d %v %q %x %d %d %d %t %t %d\n",
		s.Technique, s.Key.Src, s.Key.Dst, s.MonitorID, s.WindowStart, s.Borders, s.Detail,
		math.Float64bits(s.Score), s.VPCount, s.IPOverlap, s.ASOverlap, s.SameASVP, s.SameCityVP, s.Comm)
	c.total++
}

func (c *sigChain) closeWindow(ws int64) {
	var p chainPoint
	p.ws, p.total = ws, c.total
	c.h.Sum(p.digest[:0])
	c.window = append(c.window, p)
}

// at returns the checkpoint after n closed windows.
func (c *sigChain) at(n int) (chainPoint, bool) {
	if n < 1 || n > len(c.window) {
		return chainPoint{}, false
	}
	return c.window[n-1], true
}

// digestNumber folds a digest to its first 48 bits, exact in a float64,
// for the metrics object (which carries numbers only).
func digestNumber(d [sha256.Size]byte) float64 {
	return float64(binary.BigEndian.Uint64(d[:8]) >> 16)
}

// stageHooks lets the traced run time the stages of the direct-call loop;
// the untraced reference passes none. Each hook brackets one batch of
// calls into one module, never one record.
type stageHooks struct {
	// stage runs fn as the named stage of the current window.
	stage func(name string, n int, fn func())
	// window brackets a whole window.
	window func(w int, fn func())
	// prepare sees a window's records before they are ingested; the
	// wire-durable trace frames and un-frames them here, which is what
	// the feed server and connector do to every record on its way in.
	prepare func(ups []bgp.Update, trs []*traceroute.Traceroute)
}

func (h *stageHooks) runStage(name string, n int, fn func()) {
	if h == nil || h.stage == nil {
		fn()
		return
	}
	h.stage(name, n, fn)
}

// recordLog is the part of the WAL the direct loop drives.
type recordLog interface {
	AppendUpdate(bgp.Update) error
	AppendTrace(*traceroute.Traceroute) error
	WindowClosed(ws int64) error
}

// direct drives windows [from, to) of in into d with the benchmark's own
// serial loop: the same record order RunPipeline's merge produces (by
// timestamp, updates first on ties), the same per-record sequence (WAL
// append, tap, observe) and the same per-window sequence (close, sink,
// WAL sync, tap close, marker), but batched by stage within each run of
// same-kind records so a stage can be timed without timing every record.
// Batching is safe because WAL, detector and monitor do not read each
// other.
func (d *daemon) direct(in *input, from, to int, log recordLog, chain *sigChain, hooks *stageHooks) error {
	var buf []bgp.Update
	var ferr error
	for w := from; w < to; w++ {
		body := func() {
			var ups []bgp.Update
			hooks.runStage("bgp.decode", in.updatesIn(w, w+1), func() {
				ups, ferr = in.windowUpdates(w, buf)
			})
			if ferr != nil {
				return
			}
			if in.slab != nil {
				buf = ups
			}
			trs := in.windowTraces(w)
			if hooks != nil && hooks.prepare != nil {
				hooks.prepare(ups, trs)
			}
			for len(ups) > 0 || len(trs) > 0 {
				if len(ups) > 0 && (len(trs) == 0 || ups[0].Time <= trs[0].Time) {
					n := len(ups)
					if len(trs) > 0 {
						for n = 1; n < len(ups) && ups[n].Time <= trs[0].Time; n++ {
						}
					}
					run := ups[:n]
					ups = ups[n:]
					if log != nil {
						hooks.runStage("wal.append", n, func() {
							for _, u := range run {
								if err := log.AppendUpdate(u); err != nil && ferr == nil {
									ferr = err
								}
							}
						})
					}
					hooks.runStage("events.tap", n, func() {
						for _, u := range run {
							d.det.TapUpdate(u)
						}
					})
					hooks.runStage("monitor.observe_bgp", n, func() {
						for _, u := range run {
							d.mon.ObserveBGP(u)
						}
					})
					continue
				}
				n := len(trs)
				if len(ups) > 0 {
					for n = 1; n < len(trs) && trs[n].Time < ups[0].Time; n++ {
					}
				}
				run := trs[:n]
				trs = trs[n:]
				if log != nil {
					hooks.runStage("wal.append", n, func() {
						for _, t := range run {
							if err := log.AppendTrace(t); err != nil && ferr == nil {
								ferr = err
							}
						}
					})
				}
				hooks.runStage("events.tap", n, func() {
					for _, t := range run {
						d.det.TapTrace(t)
					}
				})
				hooks.runStage("monitor.observe_trace", n, func() {
					for _, t := range run {
						d.mon.ObservePublic(t)
					}
				})
			}
			ws := int64(w) * in.windowSec
			var sigs []rrr.Signal
			hooks.runStage("monitor.close", 1, func() { sigs = d.mon.CloseWindow(ws) })
			hooks.runStage("sink", len(sigs), func() {
				for _, s := range sigs {
					d.srv.Publish(s)
				}
			})
			if chain != nil {
				// Hashing is the benchmark's work, not the sink's: outside
				// the stage.
				for _, s := range sigs {
					chain.add(s)
				}
			}
			if log != nil {
				hooks.runStage("wal.sync", 1, func() {
					if err := log.WindowClosed(ws); err != nil && ferr == nil {
						ferr = err
					}
				})
			}
			hooks.runStage("events.tap", 1, func() { d.det.TapWindowClose(ws) })
			hooks.runStage("sink", 1, func() { d.srv.PublishWindowClose(ws) })
			if chain != nil {
				chain.closeWindow(ws)
			}
		}
		if hooks != nil && hooks.window != nil {
			hooks.window(w, body)
		} else {
			body()
		}
		if ferr != nil {
			return ferr
		}
	}
	return nil
}
