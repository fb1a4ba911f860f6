package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"rrr"
	"rrr/internal/obs"
	"rrr/internal/wal"
)

// ingestSeries are the registry deltas kept on every traced window.
var ingestSeries = []string{
	"rrr_engine_observations_total", "rrr_monitor_windows_closed_total",
	"rrr_hub_published_total", "rrr_wal_appends_total", "rrr_wal_fsyncs_total",
}

// traceIngest is the traced run of the three ingest workloads. It drives
// the first TraceWindows of the workload's input three times:
//
//	A  the direct-call loop at the configuration under test (Shards 0),
//	   with a span per stage batch — every core.*, events.*, bgp.decode,
//	   wal.* and feedwire codec figure comes from here;
//	B  the same loop at Shards=1: the serial close time, and the
//	   reference signal stream;
//	C  RunPipeline (over the wire and through the WAL on wire-durable):
//	   what the pipeline adds to A, and the runtime.* figures.
//
// All three must produce the same signal stream.
func traceIngest(cfg runConfig, res *result) error {
	z := cfg.Size
	T := z.TraceWindows
	var in *input
	var err error
	switch cfg.Workload {
	case "replay-pairs":
		in, err = midInput(cfg, T)
	case "replay-updates":
		in, err = stormInput(cfg, T, z.StormPerWindow)
	default:
		in, err = stormInput(cfg, T, z.WirePerWindow)
	}
	if err != nil {
		return err
	}
	wire := cfg.Workload == "wire-durable"
	res.Header["input_sha256"] = in.digest()
	res.Header["traced_windows"] = T
	records := in.recordsIn(0, T)

	build := func(shards int) (*daemon, error) {
		return newDaemon(in.sc, daemonOpts{shards: shards, keep: keepFor(in)})
	}
	a, err := build(0)
	if err != nil {
		return err
	}

	// Pass A.
	tr := newTracer()
	st := &stageTracer{t: tr, series: ingestSeries, mem: map[string]*memDelta{
		"bgp.decode": {}, "monitor.close": {},
	}}
	hooks := st.hooks()
	var log recordLog
	var frames *frameStage
	if wire {
		dir, err := os.MkdirTemp(cfg.OutDir, "wal-trace-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		w, err := openWAL(dir)
		if err != nil {
			return err
		}
		defer w.Close()
		log = w
		frames = &frameStage{hooks: hooks}
		hooks.prepare = frames.prepare
	}
	chainA := newSigChain()
	regA0 := readCounters()
	runtime.GC()
	if err := a.direct(in, 0, T, log, chainA, hooks); err != nil {
		return err
	}
	regA1 := readCounters()
	if frames != nil && frames.err != nil {
		return fmt.Errorf("feedwire codec: %w", frames.err)
	}
	ls := reduce(tr.spans)
	tracedWall := time.Duration(ls.get("window").DurNs)

	// Pass B.
	b, err := build(1)
	if err != nil {
		return err
	}
	var serialMs []float64
	chainB := newSigChain()
	runtime.GC()
	err = b.direct(in, 0, T, nil, chainB, &stageHooks{stage: func(name string, _ int, fn func()) {
		if name != "monitor.close" {
			fn()
			return
		}
		t0 := time.Now()
		fn()
		serialMs = append(serialMs, float64(time.Since(t0))/1e6)
	}})
	if err != nil {
		return err
	}

	// Pass C.
	c, err := build(0)
	if err != nil {
		return err
	}
	var run *ingestRun
	var rig *wireRig
	regC0 := readCounters()
	depth := &gaugeMax{}
	if wire {
		if rig, err = newWireRig(cfg, in); err != nil {
			return err
		}
		defer rig.close()
		depth.watch(obs.Default.Gauge("rrr_feedwire_buffer_depth", "stream", "updates"),
			obs.Default.Gauge("rrr_feedwire_buffer_depth", "stream", "traces"))
		run, err = rig.ingest(cfg, c, in)
		depth.stop()
	} else {
		run, err = timedIngest(cfg, c, records, func(p *rrr.PipelineConfig) {
			p.Updates = in.updateSource(0, T)
			p.Traces = in.traceSource(0, T)
		})
	}
	if err != nil {
		return err
	}
	regC1 := readCounters()
	res.Attempted += run.offered
	if run.lost != 0 || run.truncated {
		res.Failed += run.lost
		res.problem("pipeline pass: %d records lost, truncated: %v", run.lost, run.truncated)
	}

	// One stream, three ways.
	pa, okA := chainA.at(T)
	pb, okB := chainB.at(T)
	pc, okC := run.chain.at(T)
	switch {
	case !okA || !okB || !okC:
		res.problem("a pass closed fewer than %d windows", T)
	case pa.digest != pb.digest:
		res.problem("signal stream at Shards=0 differs from Shards=1 (%d vs %d signals)", pa.total, pb.total)
	case pa.digest != pc.digest:
		res.problem("signal stream through RunPipeline differs from the direct-call loop (%d vs %d signals)", pc.total, pa.total)
	}
	res.set("core.signals_total", float64(pb.total), "count")
	res.set("core.signals_sha256", digestNumber(pb.digest), "count")

	// Stage figures from pass A.
	dec, obsU, obsT := ls.get("bgp.decode"), ls.get("monitor.observe_bgp"), ls.get("monitor.observe_trace")
	// On wire-durable the slab decode is only how the loop gets at its
	// input: the daemon's own decoding there is the feedwire stage.
	if in.slab != nil && !wire {
		res.set("bgp.decode_ns_per_update", dec.perN(), "ns")
		res.set("bgp.decode_allocs_per_update", float64(st.mem["bgp.decode"].mallocs)/float64(max(dec.N, 1)), "count")
	}
	res.set("core.observe_bgp_ns_per_update", obsU.perN(), "ns")
	res.set("core.observe_trace_ns_per_trace", obsT.perN(), "ns")
	res.set("events.tap_ns_per_record", ls.get("events.tap").perN(), "ns")

	closes := ls.get("monitor.close")
	closeMs := append([]float64(nil), closes.EachMs...)
	sort.Float64s(closeMs)
	sort.Float64s(serialMs)
	tail := z.MinTail
	c50, e1 := percentile(closeMs, 0.50, tail)
	c90, e2 := percentile(closeMs, 0.90, tail)
	s50, e3 := percentile(serialMs, 0.50, tail)
	for _, e := range []error{e1, e2, e3} {
		if e != nil {
			res.problem("close times: %v", e)
		}
	}
	res.set("core.close_window_ms_p50", c50, "ms")
	res.set("core.close_window_ms_p90", c90, "ms")
	res.set("core.close_serial_ms_p50", s50, "ms")
	if c50 > 0 {
		res.set("core.shard_speedup", s50/c50, "ratio")
	}
	res.set("core.close_allocs_per_window", float64(st.mem["monitor.close"].mallocs)/float64(max(closes.Count, 1)), "count")
	res.set("core.close_bytes_per_window", float64(st.mem["monitor.close"].bytes)/float64(max(closes.Count, 1)), "B")

	// Skew: slowest shard's summed close time over the mean. The series
	// are labelled by shard index and shared by every engine in the
	// process, so the delta is taken around pass A alone.
	var sums []float64
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		sums = append(sums, regA1.since(regA0, fmt.Sprintf(`rrr_shard_close_window_seconds_sum{shard="%d"}`, i)))
	}
	if m := mean(sums); m > 0 {
		sort.Float64s(sums)
		res.set("core.shard_close_skew", sums[len(sums)-1]/m, "ratio")
	}

	// Shares of the traced loop's time. The denominator is stage time:
	// the window spans' own self time is loop bookkeeping and MemStats
	// reads, not a layer.
	var stageSelf, closeSelf, ioSelf int64
	for name, s := range ls {
		if name == "window" || (wire && name == "bgp.decode") {
			continue
		}
		stageSelf += s.SelfNs
		switch name {
		case "monitor.close":
			closeSelf += s.SelfNs
		case "wal.append", "wal.sync", "feedwire.encode", "feedwire.decode":
			ioSelf += s.SelfNs
		}
	}
	if stageSelf > 0 {
		res.set("trace.core_close_self_frac", float64(closeSelf)/float64(stageSelf), "ratio")
		res.set("trace.wal_feedwire_self_frac", float64(ioSelf)/float64(stageSelf), "ratio")
	}

	// What RunPipeline adds to the same calls made directly. Negative
	// when its reader goroutines overlap more decoding than the merge
	// loop and channels cost.
	res.set("rrr.pipeline_self_ns_per_record", float64(run.ph.Wall.Nanoseconds()-stageSelf)/float64(records), "ns")
	res.set("rrr.merge_stall_s", regC1.since(regC0, "rrr_pipeline_merge_stall_seconds_sum"), "s")
	runtimeLayers(res, run.ph, records)

	if wire {
		app, syn := ls.get("wal.append"), ls.get("wal.sync")
		res.set("wal.append_ns_per_record", app.perN(), "ns")
		if n := regA1.since(regA0, "rrr_wal_appends_total"); n > 0 {
			res.set("wal.bytes_per_record", regA1.since(regA0, "rrr_wal_append_bytes_total")/n, "B")
		}
		res.set("wal.fsyncs_total", regA1.since(regA0, "rrr_wal_fsyncs_total"), "count")
		syncMs := append([]float64(nil), syn.EachMs...)
		sort.Float64s(syncMs)
		y50, e1 := percentile(syncMs, 0.50, tail)
		y90, e2 := percentile(syncMs, 0.90, tail)
		if e1 != nil || e2 != nil {
			res.problem("wal sync times: %v %v", e1, e2)
		}
		res.set("wal.sync_ms_p50", y50, "ms")
		res.set("wal.sync_ms_p90", y90, "ms")
		res.set("feedwire.encode_ns_per_frame", ls.get("feedwire.encode").perN(), "ns")
		res.set("feedwire.decode_ns_per_frame", ls.get("feedwire.decode").perN(), "ns")
		res.set("feedwire.bytes_per_record", float64(frames.bytes)/float64(records), "B")
		res.set("feedwire.buffer_depth_max", float64(depth.max), "count")
		res.set("feedwire.reconnects_total", regC1.since(regC0, serReconnU)+regC1.since(regC0, serReconnT), "count")
		if err := probeDrain(res, rig); err != nil {
			return fmt.Errorf("feedwire drain: %w", err)
		}

		// The WAL's read path alone (Replay with no callback validates,
		// decodes and counts), then the whole recovery into a primed
		// daemon, which must end where pass C's daemon ended.
		w, err := wal.Open(wal.Options{Dir: rig.walDir})
		if err != nil {
			return err
		}
		t0 := time.Now()
		info, err := w.Replay(nil)
		replay := time.Since(t0)
		w.Close()
		if err != nil {
			return fmt.Errorf("wal replay: %w", err)
		}
		if info.Records > 0 {
			res.set("wal.replay_ns_per_record", float64(replay)/float64(info.Records), "ns")
		}
		recovered, err := build(0)
		if err != nil {
			return err
		}
		rinfo, resume, rph, err := rig.recoverInto(recovered)
		if err != nil {
			return err
		}
		res.set("wal.recover_records_per_s", float64(rinfo.Records)/rph.Wall.Seconds(), "1/s")
		res.Attempted += int(rinfo.Records)
		if int(rinfo.Records) != run.records {
			res.Failed += run.records - int(rinfo.Records)
			res.problem("WAL holds %d records of %d ingested", rinfo.Records, run.records)
		}
		checkRecovered(res, recovered, c, resume)
	}

	if err := probeRIB(res, in, T); err != nil {
		return err
	}
	if err := probeTraces(res, in); err != nil {
		return err
	}
	probeCorpus(res, a)
	if err := probeMonitor(cfg, res, a); err != nil {
		return err
	}
	finishTrace(cfg, res, tr, tracedWall)
	return nil
}

// gaugeMax samples gauges every millisecond and keeps the largest value
// seen: the registry holds a gauge's current value only.
type gaugeMax struct {
	max  int64
	quit chan struct{}
	done sync.WaitGroup
}

func (g *gaugeMax) watch(gauges ...*obs.Gauge) {
	g.quit = make(chan struct{})
	g.done.Add(1)
	go func() {
		defer g.done.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.quit:
				return
			case <-tick.C:
				for _, gg := range gauges {
					if v := gg.Value(); v > g.max {
						g.max = v
					}
				}
			}
		}
	}()
}

func (g *gaugeMax) stop() {
	if g.quit != nil {
		close(g.quit)
		g.done.Wait()
	}
}
