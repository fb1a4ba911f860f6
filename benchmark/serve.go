package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"rrr"
	"rrr/internal/cluster"
	"rrr/internal/server"
)

// front is what the load generator talks to: one daemon, or a router over
// two.
type front struct {
	url     string
	daemons []*daemon
	// single answers the same batch with no router in the way; routed
	// bodies must be byte-identical to it.
	single  http.Handler
	keys    []rrr.Key
	closers []func()
}

func (f *front) close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
}

// wrapFunc lets the traced run put a span-recording middleware around a
// named handler; nil leaves handlers bare.
type wrapFunc func(name string, h http.Handler) http.Handler

func (w wrapFunc) apply(name string, h http.Handler) http.Handler {
	if w == nil {
		return h
	}
	return w(name, h)
}

// primedFront builds the serving side of a serve workload and ingests
// windows [0, PrimeWindows) of in through RunPipeline, untimed. routed
// builds the K=2 cluster: cluster.NewRing(2, 64) placement, RF=2, each
// worker a server.Server on its own loopback listener, cluster.NewRouter
// in front on a third. (Not cluster.StartLocal, which re-simulates the
// feed inside every worker.)
func primedFront(cfg runConfig, in *input, routed bool, wrap wrapFunc) (*front, error) {
	f := &front{}
	prime := func(d *daemon) error {
		return d.ingest(context.Background(), in, 0, cfg.Size.PrimeWindows, nil, nil)
	}
	if !routed {
		d, err := newDaemon(in.sc, daemonOpts{})
		if err != nil {
			return nil, err
		}
		if err := prime(d); err != nil {
			return nil, err
		}
		if err := d.serve(wrap); err != nil {
			return nil, err
		}
		f.url, f.daemons, f.single, f.keys = d.url, []*daemon{d}, d.srv.Handler(), d.keys
		f.closers = append(f.closers, d.close)
		return f, nil
	}

	const workers = 2
	ring, err := cluster.NewRing(workers, cluster.DefaultPartitions)
	if err != nil {
		return nil, err
	}
	urls := make([]string, workers)
	errs := make(chan error, workers)
	f.daemons = make([]*daemon, workers)
	for id := 0; id < workers; id++ {
		go func(id int) {
			d, err := newDaemon(in.sc, daemonOpts{
				keep: func(_ int, k rrr.Key) bool { return ring.IsReplica(k, id) },
				worker: &server.WorkerIdentity{ID: id, Workers: workers,
					Partitions: ring.OwnedPartitions(id), RF: ring.ReplicaFactor()},
			})
			if err == nil {
				err = prime(d)
			}
			if err == nil {
				err = d.serve(wrap)
			}
			f.daemons[id] = d
			errs <- err
		}(id)
	}
	for id := 0; id < workers; id++ {
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	for id, d := range f.daemons {
		urls[id] = d.url
		f.closers = append(f.closers, d.close)
	}
	rt, err := cluster.NewRouter(cluster.Options{Workers: urls, Partitions: cluster.DefaultPartitions})
	if err != nil {
		return nil, err
	}
	f.closers = append(f.closers, rt.Close)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: wrap.apply("router.handler", rt.Handler())}
	go hs.Serve(lis)
	f.closers = append(f.closers, func() { hs.Close() })
	f.url = "http://" + lis.Addr().String()
	// With two workers at RF=2 every partition's primary and standby are
	// the two workers, so each tracks the whole corpus: worker 0 answers
	// any batch exactly as a single daemon would.
	f.single, f.keys = f.daemons[0].srv.Handler(), f.daemons[0].keys
	return f, nil
}

// directBody answers body with a direct handler call.
func directBody(h http.Handler, body []byte) (int, []byte) {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/stale", bytes.NewReader(body)))
	return rr.Code, rr.Body.Bytes()
}

// checkBodies posts a sample of bodies to the front and requires each
// response to be byte-identical to a single daemon's direct answer and
// internally consistent: verdicts in request order, the leading stale
// count equal to the verdicts that say stale, untracked keys marked so.
func checkBodies(res *result, f *front, set requestSet, samples int) {
	httpc := &http.Client{Timeout: 10 * time.Second}
	defer httpc.CloseIdleConnections()
	if samples > len(set.bodies) {
		samples = len(set.bodies)
	}
	for i := 0; i < samples; i++ {
		body := set.bodies[i*len(set.bodies)/samples]
		resp, err := httpc.Post(f.url+"/v1/stale", "application/json", bytes.NewReader(body))
		if err != nil {
			res.problem("sampled request %d: %v", i, err)
			return
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		code, want := directBody(f.single, body)
		if resp.StatusCode != http.StatusOK || code != http.StatusOK {
			res.problem("sampled request %d: status %d over HTTP, %d direct", i, resp.StatusCode, code)
			return
		}
		if !bytes.Equal(got, want) {
			res.problem("sampled request %d: body over HTTP differs from a single daemon's", i)
			return
		}
		var req struct{ Keys []string }
		var ans struct {
			Stale    int
			Count    int
			Verdicts []struct {
				Key        string
				Tracked    bool
				Stale      bool
				Visibility string
				Signals    []json.RawMessage
			}
		}
		if json.Unmarshal(body, &req) != nil || json.Unmarshal(got, &ans) != nil {
			res.problem("sampled request %d: response is not the documented JSON", i)
			return
		}
		stale := 0
		for j, v := range ans.Verdicts {
			if j >= len(req.Keys) || v.Key != req.Keys[j] {
				res.problem("sampled request %d: verdict %d is out of request order", i, j)
				return
			}
			if v.Stale != (len(v.Signals) > 0) || v.Tracked == (v.Visibility == "untracked") {
				res.problem("sampled request %d: verdict for %s contradicts itself", i, v.Key)
				return
			}
			if v.Stale {
				stale++
			}
		}
		if ans.Count != len(req.Keys) || len(ans.Verdicts) != ans.Count || ans.Stale != stale {
			res.problem("sampled request %d: counts do not add up", i)
			return
		}
	}
	res.detail("checked_bodies", float64(samples), "count")
}

// reportServe fills the end-to-end metrics of a serve workload from its
// client's timed requests, with the issue-named figures beside them.
// op_ms_p50 is the median over every request of the phase: a second the
// host steals stretches a few hundred requests and leaves the median
// where it was.
func reportServe(cfg runConfig, res *result, c *client, ph *phase, setup time.Duration, heapDelta uint64, pairs int) {
	lat, err := summarize(nsToMs(c.latNs), cfg.Size.MinTail)
	if err != nil {
		res.problem("request latencies: %v", err)
	}
	ok := max(float64(len(c.latNs)), 1)
	res.set("setup_s", setup.Seconds(), "s")
	res.set("op_ms_p50", lat.P50, "ms")
	res.set("allocs_per_op", float64(ph.Mallocs)/ok, "count")
	res.set("heap_bytes_per_pair", float64(heapDelta)/float64(pairs), "B")

	res.detail("stale_req_per_s", ok/ph.Wall.Seconds(), "1/s")
	res.detail("stale_ms_p50", lat.P50, "ms")
	res.detail("stale_ms_p90", lat.P90, "ms")
	res.detail("stale_ms_p95", lat.P95, "ms")
	res.detail("stale_ms_p99", lat.P99, "ms")
	res.detail("cpu_us_per_req", float64(ph.CPU.Microseconds())/ok, "us")
	res.detail("requests", float64(c.attempted), "count")
	res.detail("stale_verdicts", float64(c.stale), "count")
	res.detail("timed_s", ph.Wall.Seconds(), "s")
	res.detail("tracked_pairs", float64(pairs), "count")
	res.Attempted += c.attempted
	res.Failed += c.failed
	if c.failed > 0 {
		res.problem("%d of %d requests failed, first: %v", c.failed, c.attempted, c.firstErr)
	}
}

// makeClient pre-renders the request set and opens the client. Every serve
// workload has one: the bounded figure is a latency, and a second client
// on a two-core box measures the queue the two make for each other and for
// the daemon's goroutines (twelve runs each, taking turns within one
// half-hour: serve-hot's median latency spread 21 % with two clients and
// 12 % with one, routed-k2's 12 % and 15 %).
func makeClient(cfg runConfig, f *front) *client {
	set := buildRequests(cfg.Seed, f.keys, cfg.Size)
	// Room for the fastest rate seen (serve-hot, ~10k/s) with slack, so
	// the latency slice never grows inside the timed phase.
	return newClient(f.url, set, cfg.Size.BatchKeys, int(cfg.Seconds*40000)+1024)
}

// runServeIdle is serve-hot (one daemon) and routed-k2 (router over two
// workers): primed with PrimeWindows of the mid feed, feed idle, a closed
// loop of POST /v1/stale for cfg.Seconds after an untimed warm-up.
// Like for like: the same client on both, so routed − single is the
// router's cost and nothing else.
func runServeIdle(cfg runConfig, res *result) error {
	routed := cfg.Workload == "routed-k2"
	t0 := time.Now()
	in, err := midInput(cfg, cfg.Size.PrimeWindows)
	if err != nil {
		return err
	}
	heap0 := heapAfterGC()
	f, err := primedFront(cfg, in, routed, nil)
	if err != nil {
		return err
	}
	defer f.close()
	c := makeClient(cfg, f)
	defer c.close()
	if routed {
		warm(c, cfg.Size.RoutedWarmup)
	} else {
		warm(c, cfg.Size.WarmupRequests)
	}
	setup := time.Since(t0)
	res.Header["requests_sha256"] = requestsDigest(c.set)

	before := readCounters()
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.Seconds*float64(time.Second)))
	ph := beginPhase()
	runLoad(ctx, c)
	ph.end()
	cancel()
	after := readCounters()
	heap1 := heapAfterGC()
	reportServe(cfg, res, c, ph, setup, heap1-heap0, len(f.keys))
	hits, misses := after.since(before, serCacheHit), after.since(before, serCacheMiss)
	if hits+misses > 0 {
		res.detail("cache_hit_ratio", hits/(hits+misses), "ratio")
	}
	if n := after.since(before, serShed) + after.since(before, "rrr_router_shed_total"); n > 0 {
		res.problem("%v requests were shed", n)
	}
	checkBodies(res, f, c.set, 200)
	runtime.KeepAlive(f)
	return nil
}

// steppedRun is the outcome of serve-ingest's timed phase.
type steppedRun struct {
	ph *phase
	// cycleMs[i] is the whole of cycle i: one window ingested and closed,
	// its marker received, StepRequests batches answered.
	cycleMs []float64
	// lagMs[i] is from the moment window i's records were offered to the
	// pipeline to the receipt of its `event: window` frame: what a
	// subscriber waits, after the feed has a window's last record, for that
	// window's signals.
	lagMs                 []float64
	cycle50, lag50, lag90 float64
	before                counters
	after                 counters
	signals               int
}

// steppedPhase drives windows [from, to) of in one cycle at a time: the
// window's records go through RunPipeline (which closes the window at end
// of feed and publishes its signals and marker), the subscriber waits for
// the marker, then c asks StepRequests batches one after another — the
// first touch of a key after a close is a cache miss, so nearly all of
// them are. Nothing overlaps: on two shared cores a request that collides
// with a close measures the scheduler, not the daemon (README.md has the
// open-loop design this replaced, and its spreads). Every fault it can
// see — records lost, markers missing, duplicated or out of order, hub
// drops — is written to res.
func steppedPhase(cfg runConfig, res *result, d *daemon, in *input, from, to int, c *client, sub *subscriber) (*steppedRun, error) {
	z := cfg.Size
	offered := in.recordsIn(from, to)
	sub.mu.Lock()
	seen := len(sub.windows)
	sub.mu.Unlock()

	run := &steppedRun{before: readCounters()}
	run.ph = beginPhase()
	next := 0
	for w := from; w < to; w++ {
		t0 := time.Now()
		if err := d.ingest(context.Background(), in, w, w+1, nil, nil); err != nil {
			return nil, fmt.Errorf("window %d: %w", w, err)
		}
		at, ok := sub.waitFor(int64(w)*in.windowSec, 5*time.Second)
		if !ok {
			res.problem("SSE stream: no marker for window %d within 5s", w)
			break
		}
		run.lagMs = append(run.lagMs, float64(at.Sub(t0))/1e6)
		for j := 0; j < z.StepRequests; j++ {
			c.post(next, true)
			next++
		}
		run.cycleMs = append(run.cycleMs, float64(time.Since(t0))/1e6)
	}
	run.ph.end()
	run.after = readCounters()

	ingested := int(run.after.since(run.before, serUpdates) + run.after.since(run.before, serTraces))
	res.Attempted += offered
	if lost := offered - ingested; lost != 0 {
		res.Failed += lost
		res.problem("%d records offered, %d ingested", offered, ingested)
	}

	// Every window's marker must arrive exactly once, in order.
	sub.mu.Lock()
	frames := append([]sseFrame(nil), sub.windows[seen:]...)
	dropped, subErr := sub.dropped, sub.err
	run.signals = sub.signals
	sub.mu.Unlock()
	windows := to - from
	res.Attempted += windows
	if len(frames) != windows || dropped > 0 || subErr != nil {
		res.Failed += max(windows-len(frames), 0) + dropped
		res.problem("SSE stream: %d of %d window markers, %d drop notices, stream error: %v",
			len(frames), windows, dropped, subErr)
	}
	for i, fr := range frames {
		if want := int64(from+i) * in.windowSec; fr.ws != want {
			res.problem("SSE stream: marker %d is for window start %d, want %d", i, fr.ws, want)
			break
		}
	}
	if n := run.after.since(run.before, serHubDrops); n > 0 {
		res.Failed += int(n)
		res.problem("hub dropped %v events", n)
	}
	lag := append([]float64(nil), run.lagMs...)
	sort.Float64s(lag)
	var err error
	if run.lag50, err = percentile(lag, 0.50, z.MinTail); err == nil {
		run.lag90, err = percentile(lag, 0.90, z.MinTail)
	}
	if err != nil {
		res.problem("signal lag: %v", err)
	}
	cycles := append([]float64(nil), run.cycleMs...)
	sort.Float64s(cycles)
	run.cycle50, _ = percentile(cycles, 0.50, 0)
	return run, nil
}

// runServeIngest primes like serve-hot, then takes the following
// StepWindows windows through steppedPhase with one client and one SSE
// subscriber. Every close bumps the monitor's state version and drops the
// verdict cache's generation, so this is the miss/render path, the hub
// and the cost of a close as a reader sees it — the read path after the
// write path, where serve-hot is the read path alone.
func runServeIngest(cfg runConfig, res *result) error {
	t0 := time.Now()
	z := cfg.Size
	last := z.PrimeWindows + z.StepWindows
	in, err := midInput(cfg, last)
	if err != nil {
		return err
	}
	heap0 := heapAfterGC()
	f, err := primedFront(cfg, in, false, nil)
	if err != nil {
		return err
	}
	defer f.close()
	c := makeClient(cfg, f)
	defer c.close()
	warm(c, z.WarmupRequests)
	sub, err := subscribe(f.url)
	if err != nil {
		return err
	}
	defer sub.close()
	setup := time.Since(t0)
	res.Header["requests_sha256"] = requestsDigest(c.set)

	run, err := steppedPhase(cfg, res, f.daemons[0], in, z.PrimeWindows, last, c, sub)
	if err != nil {
		return err
	}
	heap1 := heapAfterGC()
	reportServe(cfg, res, c, run.ph, setup, heap1-heap0, len(f.keys))
	res.detail("cycle_ms_p50", run.cycle50, "ms")
	res.detail("cycles", float64(len(run.cycleMs)), "count")
	res.detail("signal_lag_ms_p50", run.lag50, "ms")
	res.detail("signal_lag_ms_p90", run.lag90, "ms")
	hits, misses := run.after.since(run.before, serCacheHit), run.after.since(run.before, serCacheMiss)
	if hits+misses > 0 {
		res.detail("cache_hit_ratio", hits/(hits+misses), "ratio")
	}
	res.detail("cache_invalidations", run.after.since(run.before, serCacheInv), "count")
	res.detail("sse_signals", float64(run.signals), "count")
	checkBodies(res, f, c.set, 50)
	runtime.KeepAlive(f)
	return nil
}
