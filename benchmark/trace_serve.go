package main

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// reqTracer records the spans of one request at a time: `http` around the
// client's round trip, `router.handler` and `worker.handler` from
// middleware around the handlers. Requests are issued serially, so a
// handler span belongs to whichever request is open; sub-requests the
// router fans out hang off the router's span.
type reqTracer struct {
	t *tracer

	mu     sync.Mutex
	trace  int32
	http   int32
	router int32
}

// reqTraceBase keeps request trace ids apart from window indices.
const reqTraceBase = 1 << 20

func (r *reqTracer) open(i, keys int) {
	id := r.t.begin("http", 0, int32(reqTraceBase+i), keys)
	r.mu.Lock()
	r.trace, r.http, r.router = int32(reqTraceBase+i), id, 0
	r.mu.Unlock()
}

func (r *reqTracer) close() {
	r.mu.Lock()
	id := r.http
	r.http, r.router = 0, 0
	r.mu.Unlock()
	r.t.end(id)
}

func (r *reqTracer) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.mu.Lock()
		parent, trace := r.http, r.trace
		if name == "worker.handler" && r.router != 0 {
			parent = r.router
		}
		r.mu.Unlock()
		if parent == 0 || req.URL.Path != "/v1/stale" {
			// Warm-up, body checks, SSE: nobody is tracing.
			h.ServeHTTP(w, req)
			return
		}
		id := r.t.begin(name, parent, trace, 0)
		if name == "router.handler" {
			r.mu.Lock()
			r.router = id
			r.mu.Unlock()
		}
		h.ServeHTTP(w, req)
		r.t.end(id)
	})
}

// tracedRequests issues requests [from, from+n) serially with spans.
func tracedRequests(rt *reqTracer, c *client, from, n int) {
	for i := from; i < from+n; i++ {
		rt.open(i, c.keys)
		c.post(i, true)
		rt.close()
	}
}

// requestLayers fills the figures that come from request spans.
func requestLayers(cfg runConfig, res *result, ls layerStats) {
	httpS, router := ls.get("http"), ls.get("router.handler")
	res.set("server.http_self_us_per_req", mean(httpS.SelfUs), "us")
	res.set("cluster.router_self_us_per_req", mean(router.SelfUs), "us")
	if httpS.DurNs > 0 {
		res.set("trace.router_self_frac", float64(router.SelfNs)/float64(httpS.DurNs), "ratio")
	}
	lat := append([]float64(nil), httpS.EachMs...)
	sort.Float64s(lat)
	// serve-ingest's spanned part is too short for a p99; its stepped part
	// supplies one.
	if p99, err := percentile(lat, 0.99, cfg.Size.MinTail); err == nil {
		res.set("server.stale_ms_p99", p99, "ms")
	}
}

// serveCounters fills the figures that are registry deltas over a phase.
func serveCounters(res *result, before, after counters, requests int) {
	hits, misses := after.since(before, serCacheHit), after.since(before, serCacheMiss)
	if hits+misses > 0 {
		res.set("server.cache_hit_ratio", hits/(hits+misses), "ratio")
	}
	res.set("server.cache_invalidations_total", after.since(before, serCacheInv), "count")
	res.set("server.hub_dropped_total", after.since(before, serHubDrops), "count")
	if requests > 0 {
		res.set("cluster.subrequests_per_req", after.since(before, "rrr_router_fanout_total")/float64(requests), "count")
	}
	res.set("cluster.retries_total", after.since(before, "rrr_router_retries_total"), "count")
	res.set("cluster.failovers_total", after.since(before, "rrr_router_failovers_total"), "count")
	res.set("cluster.partial_responses_total", after.since(before, "rrr_router_partial_responses_total"), "count")
}

func runtimeLayers(res *result, ph *phase, ops int) {
	res.set("runtime.alloc_bytes_per_op", float64(ph.AllocBytes)/float64(ops), "B")
	res.set("runtime.allocs_per_op", float64(ph.Mallocs)/float64(ops), "count")
	res.set("runtime.gc_cpu_frac", ph.GCCPUFrac, "ratio")
	res.set("runtime.gc_pause_ms_p95", ph.gcPauseP95(), "ms")
}

// clientFailures moves a serial client's tally into the result.
func clientFailures(res *result, c *client) {
	res.Attempted += c.attempted
	res.Failed += c.failed
	if c.failed > 0 {
		res.problem("%d of %d traced requests failed, first: %v", c.failed, c.attempted, c.firstErr)
	}
}

// sharedProbes are the layer probes every serve trace runs against its
// first daemon and its priming input.
func sharedProbes(cfg runConfig, res *result, in *input, d *daemon, windows int) error {
	if err := probeRIB(res, in, windows); err != nil {
		return err
	}
	if err := probeTraces(res, in); err != nil {
		return err
	}
	probeCorpus(res, d)
	if err := probeMonitor(cfg, res, d); err != nil {
		return err
	}
	return probeRing(res, d.keys)
}

// traceServeIdle is the traced run of serve-hot and routed-k2: the same
// primed front, one client, TraceRequests batches one at a time through
// real loopback HTTP with spans http → router.handler → worker.handler,
// then the handler alone on a ResponseRecorder, warm and just
// invalidated.
func traceServeIdle(cfg runConfig, res *result) error {
	routed := cfg.Workload == "routed-k2"
	z := cfg.Size
	in, err := midInput(cfg, z.PrimeWindows)
	if err != nil {
		return err
	}
	rt := &reqTracer{t: newTracer()}
	f, err := primedFront(cfg, in, routed, rt.wrap)
	if err != nil {
		return err
	}
	defer f.close()
	c := makeClient(cfg, f)
	defer c.close()
	warm(c, z.RoutedWarmup)
	res.Header["requests_sha256"] = requestsDigest(c.set)
	R := z.TraceRequests

	before := readCounters()
	ph := beginPhase()
	tracedRequests(rt, c, 0, R)
	ph.end()
	after := readCounters()
	clientFailures(res, c)
	ls := reduce(rt.t.spans)
	requestLayers(cfg, res, ls)
	serveCounters(res, before, after, R)
	runtimeLayers(res, ph, R)

	// The same batches with no router: what a routed request allocates
	// beyond a direct one is the router's.
	if routed {
		direct := newClient(f.daemons[0].url, c.set, z.BatchKeys, R)
		warm(direct, 100)
		dph := beginPhase()
		for i := 0; i < R; i++ {
			direct.post(i, true)
		}
		dph.end()
		direct.close()
		clientFailures(res, direct)
		res.set("cluster.router_allocs_per_req", (float64(ph.Mallocs)-float64(dph.Mallocs))/float64(R), "count")
	}

	if err := handlerProbe(cfg, res, f.daemons[0], c.set, R); err != nil {
		return err
	}
	if err := sharedProbes(cfg, res, in, f.daemons[0], z.PrimeWindows); err != nil {
		return err
	}
	checkBodies(res, f, c.set, 50)
	finishTrace(cfg, res, rt.t, time.Duration(ls.get("http").DurNs))
	return nil
}

// handlerProbe calls the daemon's handler directly on a ResponseRecorder:
// n warm batches (every key a cache hit), then rounds of one batch right
// after the cache generation was dropped (every key a miss). The drop is
// a re-Track of a pair's own corpus trace, which bumps the monitor's
// state version and changes nothing else.
func handlerProbe(cfg runConfig, res *result, d *daemon, set requestSet, n int) error {
	h := d.srv.Handler()
	keys := float64(cfg.Size.BatchKeys)
	for i := 0; i < len(set.bodies) && i < n; i++ {
		directBody(h, set.bodies[i]) // warm every body the probe will use
	}
	wall, mallocs := mallocsDuring(func() {
		for i := 0; i < n; i++ {
			directBody(h, set.bodies[i%len(set.bodies)])
		}
	})
	res.set("server.verdict_hit_ns_per_key", float64(wall)/float64(n)/keys, "ns")
	res.set("server.handler_allocs_per_req", float64(mallocs)/float64(n), "count")

	en, ok := d.mon.Entry(d.keys[0])
	if !ok {
		return fmt.Errorf("tracked key has no corpus entry")
	}
	rounds := max(10, n/20)
	var miss time.Duration
	for i := 0; i < rounds; i++ {
		if err := d.mon.Track(en.Trace); err != nil {
			return err
		}
		t0 := time.Now()
		directBody(h, set.bodies[i%len(set.bodies)])
		miss += time.Since(t0)
	}
	res.set("server.verdict_miss_ns_per_key", float64(miss)/float64(rounds)/keys, "ns")
	return nil
}

// traceServeIngest is the traced run of serve-ingest, in two parts over
// consecutive window ranges of one primed daemon with one SSE subscriber
// attached throughout:
//
//  1. spanned: per window, the direct-call loop with stage spans (the
//     `sink` stage is the hub publishing to the subscriber), then ten
//     batches each sent twice with request spans — the first a cache miss
//     on every key (the close just dropped the generation), the second a
//     hit;
//  2. stepped: the end-to-end run's own phase, shorter, for the figures
//     only RunPipeline and the live stream have — signal lag, cache hit
//     ratio under invalidation.
func traceServeIngest(cfg runConfig, res *result) error {
	z := cfg.Size
	serialTo := z.PrimeWindows + z.TraceSerialWindows
	last := serialTo + z.TraceStepWindows
	in, err := midInput(cfg, last)
	if err != nil {
		return err
	}
	rt := &reqTracer{t: newTracer()}
	f, err := primedFront(cfg, in, false, rt.wrap)
	if err != nil {
		return err
	}
	defer f.close()
	d := f.daemons[0]
	c := makeClient(cfg, f)
	defer c.close()
	warm(c, z.RoutedWarmup)
	sub, err := subscribe(f.url)
	if err != nil {
		return err
	}
	defer sub.close()
	res.Header["requests_sha256"] = requestsDigest(c.set)

	// Part 1.
	st := &stageTracer{t: rt.t, series: ingestSeries, mem: map[string]*memDelta{"monitor.close": {}}}
	hooks := st.hooks()
	const pairsPerWindow = 10
	var missNs, hitNs []float64
	next := 0
	for w := z.PrimeWindows; w < serialTo; w++ {
		if err := d.direct(in, w, w+1, nil, nil, hooks); err != nil {
			return err
		}
		for j := 0; j < pairsPerWindow; j++ {
			for pass := 0; pass < 2; pass++ {
				mark := len(rt.t.spans)
				rt.open(next, c.keys)
				c.post(next, true)
				rt.close()
				for _, s := range rt.t.spans[mark:] {
					if s.Name == "worker.handler" {
						per := float64(s.End-s.Start) / float64(z.BatchKeys)
						if pass == 0 {
							missNs = append(missNs, per)
						} else {
							hitNs = append(hitNs, per)
						}
					}
				}
			}
			next++
		}
	}
	clientFailures(res, c)
	ls := reduce(rt.t.spans)
	requestLayers(cfg, res, ls)
	res.set("server.verdict_miss_ns_per_key", mean(missNs), "ns")
	res.set("server.verdict_hit_ns_per_key", mean(hitNs), "ns")
	sink := ls.get("sink")
	res.set("server.hub_publish_ns_per_signal", sink.perN(), "ns")
	res.set("core.observe_bgp_ns_per_update", ls.get("monitor.observe_bgp").perN(), "ns")
	res.set("core.observe_trace_ns_per_trace", ls.get("monitor.observe_trace").perN(), "ns")
	res.set("events.tap_ns_per_record", ls.get("events.tap").perN(), "ns")
	closes := ls.get("monitor.close")
	closeMs := append([]float64(nil), closes.EachMs...)
	sort.Float64s(closeMs)
	if p50, err := percentile(closeMs, 0.50, z.MinTail); err == nil {
		res.set("core.close_window_ms_p50", p50, "ms")
	} else {
		res.problem("close times: %v", err)
	}
	res.set("core.close_allocs_per_window", float64(st.mem["monitor.close"].mallocs)/float64(max(closes.Count, 1)), "count")
	res.set("core.close_bytes_per_window", float64(st.mem["monitor.close"].bytes)/float64(max(closes.Count, 1)), "B")
	var stageSelf int64
	for name, s := range ls {
		if name != "window" && name != "http" && name != "worker.handler" {
			stageSelf += s.SelfNs
		}
	}
	if stageSelf > 0 {
		res.set("trace.core_close_self_frac", float64(closes.SelfNs)/float64(stageSelf), "ratio")
	}
	tracedWall := time.Duration(ls.get("window").DurNs + ls.get("http").DurNs)

	// Part 2, on a client of its own: c's tallies hold part 1's requests,
	// which clientFailures has already counted.
	stepper := newClient(f.url, c.set, z.BatchKeys, z.TraceStepWindows*z.StepRequests)
	defer stepper.close()
	warm(stepper, 16) // opens its connection outside the timed phase
	run, err := steppedPhase(cfg, res, d, in, serialTo, last, stepper, sub)
	if err != nil {
		return err
	}
	clientFailures(res, stepper)
	res.set("server.signal_lag_ms_p50", run.lag50, "ms")
	res.set("server.signal_lag_ms_p90", run.lag90, "ms")
	serveCounters(res, run.before, run.after, 0)
	runtimeLayers(res, run.ph, max(len(stepper.latNs), 1))
	if lat, err := summarize(nsToMs(stepper.latNs), z.MinTail); err == nil && lat.P99 > 0 {
		res.set("server.stale_ms_p99", lat.P99, "ms")
	}

	if err := sharedProbes(cfg, res, in, d, z.PrimeWindows); err != nil {
		return err
	}
	checkBodies(res, f, c.set, 50)
	finishTrace(cfg, res, rt.t, tracedWall)
	return nil
}
