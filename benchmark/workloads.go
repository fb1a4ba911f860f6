package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"time"

	"rrr"
	"rrr/internal/feedwire"
	"rrr/internal/obs"
	"rrr/internal/wal"
)

func runEndToEnd(cfg runConfig, res *result) error {
	switch cfg.Workload {
	case "replay-pairs", "replay-updates":
		return runReplay(cfg, res)
	case "wire-durable":
		return runWireDurable(cfg, res)
	case "serve-hot", "routed-k2":
		return runServeIdle(cfg, res)
	case "serve-ingest":
		return runServeIngest(cfg, res)
	}
	return fmt.Errorf("unknown workload %q", cfg.Workload)
}

// midInput records `windows` windows of the mid feed.
func midInput(cfg runConfig, windows int) (*input, error) {
	return record(cfg.Size.scale(), windows, cfg.Seed)
}

// stormInput records `windows` windows and amplifies them by perWindow
// synthetic updates each.
func stormInput(cfg runConfig, windows, perWindow int) (*input, error) {
	rec, err := midInput(cfg, windows)
	if err != nil {
		return nil, err
	}
	return amplify(rec, cfg.Seed, perWindow, cfg.Size.StormThin)
}

// counters reads the obs registry; delta subtracts one series.
type counters map[string]float64

func readCounters() counters { return obs.Default.Snapshot() }

func (after counters) since(before counters, series string) float64 {
	return after[series] - before[series]
}

const (
	serUpdates   = "rrr_pipeline_updates_total"
	serTraces    = "rrr_pipeline_traces_total"
	serDupBGP    = `rrr_pipeline_dup_records_dropped_total{feed="bgp"}`
	serDupTrace  = `rrr_pipeline_dup_records_dropped_total{feed="traceroute"}`
	serErrBGP    = `rrr_pipeline_feed_errors_total{feed="bgp"}`
	serErrTrace  = `rrr_pipeline_feed_errors_total{feed="traceroute"}`
	serHubDrops  = "rrr_hub_dropped_total"
	serShed      = "rrr_server_shed_total"
	serCacheHit  = "rrr_server_verdict_cache_hits_total"
	serCacheMiss = "rrr_server_verdict_cache_misses_total"
	serCacheInv  = "rrr_server_verdict_cache_invalidations_total"
)

// ingestRun is the outcome of one timed RunPipeline phase.
type ingestRun struct {
	ph        *phase
	chain     *sigChain
	closes    []time.Time
	records   int
	offered   int
	truncated bool
	lost      int // records offered but not ingested, plus feed errors
}

// timedIngest runs d's pipeline, with its sources set by `sources`, under
// a phase, collecting the signal chain and the window-close times. The deadline is a safety
// net at twice the nominal length: inputs are sized to take about
// cfg.Seconds on the reference box and are otherwise run to their end, so
// every run of a seed does the same work.
func timedIngest(cfg runConfig, d *daemon, offered int, sources func(*rrr.PipelineConfig)) (*ingestRun, error) {
	run := &ingestRun{chain: newSigChain(), offered: offered}
	p := d.pipelineConfig(run.chain.add, func(ws int64) {
		run.closes = append(run.closes, time.Now())
		run.chain.closeWindow(ws)
	})
	sources(&p)
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(2*cfg.Seconds*float64(time.Second)))
	defer cancel()
	before := readCounters()
	run.ph = beginPhase()
	err := rrr.RunPipeline(ctx, d.mon, p)
	run.ph.end()
	after := readCounters()
	run.records = int(after.since(before, serUpdates) + after.since(before, serTraces))
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		run.truncated = true
	case err != nil:
		return nil, fmt.Errorf("pipeline: %w", err)
	default:
		run.lost = offered - run.records
	}
	for _, s := range []string{serDupBGP, serDupTrace, serErrBGP, serErrTrace} {
		run.lost += int(after.since(before, s))
	}
	return run, nil
}

// report fills the end-to-end metrics and the issue-named figures of an
// ingest workload. op_ms_p50 is the median interval between closes: a
// second stolen from a shared box slows a few windows a lot, which moves
// the plain rate (and a tail percentile) and leaves the median where it
// was.
func (run *ingestRun) report(cfg runConfig, res *result, setup time.Duration, heapDelta uint64, pairs int) {
	intervals := make([]float64, 0, len(run.closes))
	for i := 1; i < len(run.closes); i++ {
		intervals = append(intervals, float64(run.closes[i].Sub(run.closes[i-1]))/1e6)
	}
	win, err := summarize(intervals, cfg.Size.MinTail)
	if err != nil {
		res.problem("window intervals: %v", err)
	}
	rate := float64(run.records) / run.ph.Wall.Seconds()
	cpu := float64(run.ph.CPU.Microseconds()) / float64(run.records)
	res.set("setup_s", setup.Seconds(), "s")
	res.set("op_ms_p50", win.P50, "ms")
	res.set("allocs_per_op", float64(run.ph.Mallocs)/float64(run.records), "count")
	res.set("heap_bytes_per_pair", float64(heapDelta)/float64(pairs), "B")

	res.detail("ingest_records_per_s", rate, "1/s")
	res.detail("window_ms_p50", win.P50, "ms")
	res.detail("window_ms_p90", win.P90, "ms")
	res.detail("window_ms_p95", win.P95, "ms")
	res.detail("window_samples", float64(win.N), "count")
	res.detail("cpu_us_per_record", cpu, "us")
	res.detail("records", float64(run.records), "count")
	res.detail("windows_closed", float64(len(run.closes)), "count")
	res.detail("timed_s", run.ph.Wall.Seconds(), "s")
	res.detail("tracked_pairs", float64(pairs), "count")
	res.detail("signals_total", float64(run.chain.total), "count")
	res.Attempted += run.offered
	if run.truncated {
		res.Attempted += run.records - run.offered
		res.detail("truncated", 1, "count")
	}
	if run.lost > 0 {
		res.Failed += run.lost
		res.problem("%d records were offered but not ingested exactly once", run.lost)
	}
}

// checkAgainstSerial re-drives the first windows of in through a fresh
// Shards=1 daemon with the direct-call loop and requires the timed run's
// signal chain to match it there: the engine's promise is one stream at
// any shard count, through any transport.
func checkAgainstSerial(cfg runConfig, res *result, in *input, run *ingestRun) error {
	n := cfg.Size.RefWindows
	done := len(run.chain.window)
	if run.truncated {
		done-- // the cancelled run closed a half-fed window on its way out
	}
	if n > done {
		n = done
	}
	got, ok := run.chain.at(n)
	if !ok {
		res.problem("no closed window to check the signal stream at")
		return nil
	}
	ref, err := newDaemon(in.sc, daemonOpts{shards: 1, keep: keepFor(in)})
	if err != nil {
		return err
	}
	refChain := newSigChain()
	if err := ref.direct(in, 0, n, nil, refChain, nil); err != nil {
		return err
	}
	want, _ := refChain.at(n)
	if got.digest != want.digest || got.total != want.total {
		res.problem("signal stream diverges from the serial direct-call reference within %d windows (%d vs %d signals)", n, got.total, want.total)
	}
	res.detail("checked_windows", float64(n), "count")
	res.detail("checked_signals", float64(want.total), "count")
	res.detail("signals_sha256_48", digestNumber(want.digest), "count")
	return nil
}

// runReplay is replay-pairs (the full mid feed, slice sources) and
// replay-updates (the storm: binary slab, thinned traces, ~72 pairs),
// both unpaced through RunPipeline with no WAL and no HTTP.
func runReplay(cfg runConfig, res *result) error {
	t0 := time.Now()
	var in *input
	var err error
	if cfg.Workload == "replay-updates" {
		in, err = stormInput(cfg, cfg.Size.Windows, cfg.Size.StormPerWindow)
	} else {
		in, err = midInput(cfg, cfg.Size.Windows)
	}
	if err != nil {
		return err
	}
	heap0 := heapAfterGC()
	d, err := newDaemon(in.sc, daemonOpts{keep: keepFor(in)})
	if err != nil {
		return err
	}
	setup := time.Since(t0)
	res.Header["input_sha256"] = in.digest()

	run, err := timedIngest(cfg, d, in.recordsIn(0, in.windows), func(p *rrr.PipelineConfig) {
		p.Updates = in.updateSource(0, in.windows)
		p.Traces = in.traceSource(0, in.windows)
	})
	if err != nil {
		return err
	}
	heap1 := heapAfterGC()
	run.report(cfg, res, setup, heap1-heap0, len(d.keys))
	runtime.KeepAlive(d)
	return checkAgainstSerial(cfg, res, in, run)
}

// wireRig is wire-durable's plumbing: a feedwire.Server on loopback
// holding the whole input, and a WAL in a scratch directory.
type wireRig struct {
	fs     *feedwire.Server
	addr   string
	walDir string
	w      *wal.WAL
}

func newWireRig(cfg runConfig, in *input) (*wireRig, error) {
	fs, addr, err := serveFeed(in, in.windows)
	if err != nil {
		return nil, err
	}
	r := &wireRig{fs: fs, addr: addr}
	if r.walDir, err = os.MkdirTemp(cfg.OutDir, "wal-"); err == nil {
		r.w, err = openWAL(r.walDir)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *wireRig) close() {
	if r.w != nil {
		r.w.Close()
	}
	r.fs.Close()
	if r.walDir != "" {
		os.RemoveAll(r.walDir)
	}
}

// ingest is the timed phase: Connector (PolicyBlock, default buffer) into
// RunPipeline with the WAL teed in. It leaves the WAL closed.
func (r *wireRig) ingest(cfg runConfig, d *daemon, in *input) (*ingestRun, error) {
	conn := feedwire.NewConnector(feedwire.ConnectorConfig{Addr: r.addr, Policy: feedwire.PolicyBlock})
	defer conn.Close()
	run, err := timedIngest(cfg, d, in.recordsIn(0, in.windows), func(p *rrr.PipelineConfig) {
		p.OpenUpdates = func(since int64) (rrr.UpdateSource, error) { return conn.OpenUpdates(since) }
		p.OpenTraces = func(since int64) (rrr.TraceSource, error) { return conn.OpenTraces(since) }
		p.WAL = r.w
	})
	if err != nil {
		return nil, err
	}
	err = r.w.Close()
	r.w = nil
	if err != nil {
		return nil, fmt.Errorf("wal close: %w", err)
	}
	return run, nil
}

// recoverInto reopens the WAL and replays it through rrr.NewRecovery into
// d, which must be freshly primed. Only the replay is timed.
func (r *wireRig) recoverInto(d *daemon) (wal.ReplayInfo, *rrr.ResumeState, *phase, error) {
	w, err := wal.Open(wal.Options{Dir: r.walDir})
	if err != nil {
		return wal.ReplayInfo{}, nil, nil, err
	}
	defer w.Close()
	rec := rrr.NewRecovery(d.mon, d.srv.Publish)
	ph := beginPhase()
	info, err := w.Replay(func(r wal.Record) error {
		switch {
		case r.Update != nil:
			rec.ObserveUpdate(*r.Update)
		case r.Trace != nil:
			rec.ObserveTrace(r.Trace)
		}
		return nil
	})
	resume, _ := rec.Finish()
	ph.end()
	if err != nil {
		return info, nil, nil, fmt.Errorf("wal replay: %w", err)
	}
	return info, resume, ph, nil
}

// checkRecovered requires the recovered daemon to agree with the one
// that ran uninterrupted. Recovery leaves the last window open for the
// resumed pipeline; the uninterrupted run closed it at end of feed, so it
// is closed here first.
func checkRecovered(res *result, recovered, live *daemon, resume *rrr.ResumeState) {
	recovered.mon.CloseWindow(resume.WindowStart)
	if a, b := recovered.mon.WindowsClosed(), live.mon.WindowsClosed(); a != b {
		res.problem("recovered daemon closed %d windows, uninterrupted run %d", a, b)
	}
	if a, b := recovered.mon.StaleKeys(), live.mon.StaleKeys(); !reflect.DeepEqual(a, b) {
		res.problem("recovered daemon flags %d pairs stale, uninterrupted run %d, or not the same ones", len(a), len(b))
	}
}

const (
	serReconnU = `rrr_feedwire_reconnects_total{stream="updates"}`
	serReconnT = `rrr_feedwire_reconnects_total{stream="traces"}`
)

// runWireDurable ships WireWindows of storm from a feedwire.Server on
// loopback through a Connector into RunPipeline with a WAL
// (FsyncOnWindowClose, default segments), then reopens the WAL and
// replays it through rrr.NewRecovery into a second primed daemon. The
// same generator as replay-updates, so the difference is transport plus
// durability; the recover phase is the WAL's read path beside its write
// path.
func runWireDurable(cfg runConfig, res *result) error {
	t0 := time.Now()
	in, err := stormInput(cfg, cfg.Size.WireWindows, cfg.Size.WirePerWindow)
	if err != nil {
		return err
	}
	rig, err := newWireRig(cfg, in)
	if err != nil {
		return err
	}
	defer rig.close()
	recovered, err := newDaemon(in.sc, daemonOpts{keep: keepFor(in)})
	if err != nil {
		return err
	}
	heap0 := heapAfterGC()
	d, err := newDaemon(in.sc, daemonOpts{keep: keepFor(in)})
	if err != nil {
		return err
	}
	setup := time.Since(t0)
	res.Header["input_sha256"] = in.digest()

	before := readCounters()
	run, err := rig.ingest(cfg, d, in)
	if err != nil {
		return err
	}
	after := readCounters()
	heap1 := heapAfterGC()
	run.report(cfg, res, setup, heap1-heap0, len(d.keys))
	res.detail("wal_bytes", after.since(before, "rrr_wal_append_bytes_total"), "B")
	res.detail("wal_fsyncs", after.since(before, "rrr_wal_fsyncs_total"), "count")
	if n := after.since(before, serReconnU) + after.since(before, serReconnT); n > 0 {
		res.Failed += int(n)
		res.problem("feed connector reconnected %v times on a loopback link", n)
	}

	info, resume, rph, err := rig.recoverInto(recovered)
	if err != nil {
		return err
	}
	res.detail("recover_records_per_s", float64(info.Records)/rph.Wall.Seconds(), "1/s")
	res.detail("recover_s", rph.Wall.Seconds(), "s")
	res.Attempted += int(info.Records)
	if !run.truncated {
		if int(info.Records) != run.records || info.TruncatedTail {
			res.Failed += run.records - int(info.Records)
			res.problem("WAL holds %d records of %d ingested (torn tail: %v)", info.Records, run.records, info.TruncatedTail)
		}
		checkRecovered(res, recovered, d, resume)
	}
	runtime.KeepAlive(d)
	return checkAgainstSerial(cfg, res, in, run)
}

func openWAL(dir string) (*wal.WAL, error) {
	w, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	if _, err := w.Replay(nil); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// serveFeed loads the first `windows` windows of in into a feedwire.Server
// and serves them on loopback. The history is complete and closed before
// any client connects, so the server never waits on a producer.
func serveFeed(in *input, windows int) (*feedwire.Server, string, error) {
	fs, err := feedwire.NewServer(feedwire.Config{WindowSec: in.windowSec})
	if err != nil {
		return nil, "", err
	}
	src := in.updateSource(0, windows)
	for {
		u, err := src.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, "", err
		}
		fs.AppendUpdate(u)
	}
	for _, t := range in.traces[:in.tWin[windows]] {
		fs.AppendTrace(t)
	}
	fs.CloseStream(feedwire.StreamUpdates, nil)
	fs.CloseStream(feedwire.StreamTraces, nil)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go fs.Serve(lis)
	return fs, lis.Addr().String(), nil
}
