package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rrr"
	"rrr/internal/events"
	"rrr/internal/obs"
	"rrr/internal/server"
)

// Options tunes a Router.
type Options struct {
	// Workers are the worker base URLs, indexed by worker ID; their order
	// must match the -worker-id each daemon was started with.
	Workers []string
	// Partitions is the ring's partition count (0 = DefaultPartitions).
	// Must equal the workers' -partitions.
	Partitions int
	// Timeout bounds each worker sub-request (0 = 2s). A worker that
	// exceeds it is retried once, then reported unavailable.
	Timeout time.Duration
	// RingSize is the per-SSE-subscriber frame buffer (0 =
	// server.DefaultRingSize).
	RingSize int
	// StreamBackoff is the initial worker-stream reconnect delay
	// (0 = 100ms; doubles to a 2s cap).
	StreamBackoff time.Duration
	// MaxInFlight bounds concurrently-served router requests (0 = 1024).
	// Requests past the bound are shed with 429 + Retry-After. Probe,
	// metrics, and SSE stream endpoints are exempt (server.OverloadExempt).
	MaxInFlight int
	// BreakerThreshold is the consecutive sub-request failures that open a
	// worker's circuit breaker (0 = DefaultBreakerThreshold).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects traffic before a
	// half-open /readyz probe (0 = DefaultBreakerCooldown).
	BreakerCooldown time.Duration
}

// DefaultRouterMaxInFlight is the Options.MaxInFlight default.
const DefaultRouterMaxInFlight = 1024

// Router is the cluster's stateless front end: it owns no monitor state,
// only the ring (to route), an HTTP client (to fan out), and the stream
// merger (to order). Restarting a router loses nothing but SSE
// subscriptions.
type Router struct {
	ring     *Ring
	all      []int // every worker ID, ascending: the scatter target of whole-cluster requests
	opts     Options
	mux      *http.ServeMux
	hub      *server.Fanout[[]byte]
	merger   *merger
	breakers []*breaker
	// client carries every connection the router opens to a worker —
	// sub-requests, breaker probes, signal streams — on a transport of the
	// router's own, so Close can end them.
	client   *http.Client
	inflight atomic.Int64
	cancel   context.CancelFunc
	done     sync.WaitGroup
}

// NewRouter builds the router and starts its worker stream subscriptions;
// Close releases them.
func NewRouter(opts Options) (*Router, error) {
	ring, err := NewRing(len(opts.Workers), opts.Partitions)
	if err != nil {
		return nil, err
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 2 * time.Second
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = DefaultRouterMaxInFlight
	}
	for i, u := range opts.Workers {
		opts.Workers[i] = strings.TrimRight(u, "/")
	}
	rt := &Router{ring: ring, opts: opts, mux: http.NewServeMux(), hub: server.NewFanout[[]byte](opts.RingSize)}
	// Every admitted request may hold one connection per worker at once;
	// an idle pool of that size means a burst at the admission bound
	// redials nothing on the next one.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = opts.MaxInFlight
	tr.MaxIdleConns = opts.MaxInFlight * len(opts.Workers)
	rt.client = &http.Client{Transport: tr}
	rt.merger = newMerger(len(opts.Workers), rt.hub, ring)
	rt.breakers = make([]*breaker, len(opts.Workers))
	for i := range rt.breakers {
		rt.breakers[i] = newBreaker(i, opts.BreakerThreshold, opts.BreakerCooldown)
		rt.all = append(rt.all, i)
	}

	rt.mux.HandleFunc("GET /v1/stale/{key}", rt.handleStaleOne)
	rt.mux.HandleFunc("POST /v1/stale", rt.handleStaleBatch)
	rt.mux.HandleFunc("GET /v1/keys", rt.handleKeys)
	rt.mux.HandleFunc("GET /v1/stats", rt.handleStats)
	rt.mux.HandleFunc("GET /v1/cluster", rt.handleCluster)
	rt.mux.HandleFunc("GET /v1/signals", rt.handleSignals)
	rt.mux.HandleFunc("GET /v1/events", rt.handleEvents)
	rt.mux.HandleFunc("POST /v1/events", rt.handleEvents)
	rt.mux.HandleFunc("POST /v1/refresh/plan", rt.handleRefreshPlan)
	rt.mux.HandleFunc("POST /v1/refresh/record", rt.handleRefreshRecord)
	rt.mux.HandleFunc("POST /v1/snapshot", rt.handleSnapshot)
	rt.mux.Handle("GET /metrics", obs.Default.Handler())
	rt.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)

	ctx, cancel := context.WithCancel(context.Background())
	rt.cancel = cancel
	for i := range opts.Workers {
		c := newSSEClient(i, opts.Workers[i], rt.client, rt.merger, opts.StreamBackoff)
		rt.done.Add(1)
		go func() {
			defer rt.done.Done()
			c.run(ctx)
		}()
	}
	return rt, nil
}

// Handler returns the router's HTTP handler tree, wrapped with bounded
// in-flight admission: past opts.MaxInFlight the router sheds with
// 429 + Retry-After instead of stacking goroutines into latency collapse.
func (rt *Router) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		metRouterRequests.Inc()
		if server.OverloadExempt(r.URL.Path) {
			rt.mux.ServeHTTP(w, r)
			return
		}
		n := rt.inflight.Add(1)
		metRouterInflight.Set(n)
		defer func() { metRouterInflight.Set(rt.inflight.Add(-1)) }()
		if n > int64(rt.opts.MaxInFlight) {
			metRouterShed.Inc()
			w.Header().Set("Retry-After", "1")
			server.WriteErr(w, http.StatusTooManyRequests,
				fmt.Sprintf("overloaded: %d requests in flight (limit %d)", n, rt.opts.MaxInFlight))
			return
		}
		rt.mux.ServeHTTP(w, r)
	})
}

// Ring exposes the placement (for worker-mode corpus filtering and tests).
func (rt *Router) Ring() *Ring { return rt.ring }

// StreamConnected reports whether every worker signal stream is attached;
// differential harnesses wait for it before releasing feeds.
func (rt *Router) StreamConnected() bool { return rt.merger.allConnected() }

// Subscribers reports attached merged-stream clients.
func (rt *Router) Subscribers() int { return rt.hub.Subscribers() }

// Close stops the worker stream subscriptions and closes the idle worker
// connections.
func (rt *Router) Close() {
	rt.cancel()
	rt.done.Wait()
	rt.client.CloseIdleConnections()
}

// --- worker fan-out ---

type workerResp struct {
	status int
	body   []byte
}

// scatter runs call once per worker, concurrently, and returns the results
// and errors in the order of workers. Every fan-out the router makes goes
// through it; decoding a sub-response inside call keeps that parallel too.
func scatter[T any](workers []int, call func(worker int) (T, error)) ([]T, []error) {
	out := make([]T, len(workers))
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, worker := range workers {
		wg.Add(1)
		go func(i, worker int) {
			defer wg.Done()
			out[i], errs[i] = call(worker)
		}(i, worker)
	}
	wg.Wait()
	return out, errs
}

// failedOf lists, ascending, the positions of a scatter's non-nil errors —
// worker IDs when the scatter ran over rt.all.
func failedOf(errs []error) []int {
	var failed []int
	for i, err := range errs {
		if err != nil {
			failed = append(failed, i)
		}
	}
	return failed
}

var errBreakerOpen = errors.New("circuit breaker open")

// askAll sends one request to every worker and returns their 200 answers by
// worker ID (nil where there is none) and the workers that are down: the
// request failed after retry, or — unless probe is set — the breaker is
// open and nothing was sent. Probing is for requests that must reach a
// recovering worker: /readyz doubles as the cluster's recovery sweep, since
// every success feeds the worker's breaker through do(). Every partition
// has a replica on two workers, so a down worker does not by itself make
// data unavailable; callers decide with unavailablePartitions(down).
//
// Workers validate requests identically, so what one refuses the cluster
// refuses, in that worker's words: a non-200 answer is relayed to w and ok
// is false.
func (rt *Router) askAll(w http.ResponseWriter, r *http.Request, method, path string, body []byte, probe bool) (resps []*workerResp, down []int, ok bool) {
	resps, errs := scatter(rt.all, func(worker int) (*workerResp, error) {
		if !probe && !rt.workerUp(worker) {
			return nil, errBreakerOpen
		}
		return rt.do(r.Context(), method, worker, path, body)
	})
	for _, wr := range resps {
		if wr != nil && wr.status != http.StatusOK {
			relay(w, wr)
			return nil, nil, false
		}
	}
	return resps, failedOf(errs), true
}

// relay passes a worker's answer through as the cluster's.
func relay(w http.ResponseWriter, wr *workerResp) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(wr.status)
	w.Write(wr.body)
}

// unavailable answers 503 for a request no live replica could serve, naming
// the partitions the down workers leave without one.
func (rt *Router) unavailable(w http.ResponseWriter, msg string, workerErrs []string, down []int) {
	metRouterPartial.Inc()
	body := map[string]any{"error": msg, "unavailablePartitions": rt.unavailablePartitions(down)}
	if workerErrs != nil {
		body["workerErrors"] = workerErrs
	}
	server.WriteJSON(w, http.StatusServiceUnavailable, body)
}

// describeAttempt renders one attempt's outcome for partial-failure bodies.
func describeAttempt(wr *workerResp, err error) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("status %d", wr.status)
}

// do issues one JSON worker sub-request and reads its whole answer.
func (rt *Router) do(ctx context.Context, method string, worker int, path string, body []byte) (*workerResp, error) {
	return rt.send(ctx, method, worker, path, "application/json", body, func(resp *http.Response) ([]byte, error) {
		return io.ReadAll(resp.Body)
	})
}

// send issues one worker sub-request, retrying once on transport failure,
// 5xx, or an answer read refuses. Both attempts share a single deadline
// budget (opts.Timeout measured from the first attempt's start) so a retry
// cannot double the effective timeout, and the remaining budget is
// propagated to the worker via server.DeadlineHeader so it abandons work the
// router will discard. Every outcome feeds the worker's circuit breaker; the
// final error carries the first attempt's status context so partial-failure
// bodies say what actually happened, not just that the retry failed.
func (rt *Router) send(ctx context.Context, method string, worker int, path, ctype string, body []byte, read func(*http.Response) ([]byte, error)) (*workerResp, error) {
	dctx, cancel := context.WithTimeout(ctx, rt.opts.Timeout)
	defer cancel()
	deadline, _ := dctx.Deadline()
	attempt := func() (*workerResp, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(dctx, method, rt.opts.Workers[worker]+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", ctype)
		}
		if ms := time.Until(deadline).Milliseconds(); ms > 0 {
			req.Header.Set(server.DeadlineHeader, strconv.FormatInt(ms, 10))
		}
		metRouterFanout.Inc()
		resp, err := rt.client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, err := read(resp)
		if err != nil {
			return nil, err
		}
		return &workerResp{status: resp.StatusCode, body: data}, nil
	}
	wr, err := attempt()
	if err == nil && wr.status < 500 {
		rt.breakers[worker].onSuccess()
		return wr, nil
	}
	first := describeAttempt(wr, err)
	retried := false
	if dctx.Err() == nil {
		metRouterRetries.Inc()
		retried = true
		wr, err = attempt()
		if err == nil && wr.status < 500 {
			rt.breakers[worker].onSuccess()
			return wr, nil
		}
	}
	if rt.breakers[worker].onFailure(time.Now()) {
		metRouterBreakerOpens.Inc()
	}
	metRouterWorkerErrs.Inc()
	last := describeAttempt(wr, err)
	if retried && last != first {
		return nil, fmt.Errorf("cluster: worker %d %s %s: %s (first attempt: %s)", worker, method, path, last, first)
	}
	return nil, fmt.Errorf("cluster: worker %d %s %s: %s", worker, method, path, last)
}

// workerUp reports whether the worker's breaker admits regular traffic,
// launching the exclusive half-open /readyz probe when the cooldown of an
// open breaker has elapsed.
func (rt *Router) workerUp(worker int) bool {
	ok, probe := rt.breakers[worker].allow(time.Now())
	if probe {
		go rt.probe(worker)
	}
	return ok
}

// probe is the half-open recovery check: one GET /readyz, bypassing do()
// so a failed probe doesn't double-count through the breaker.
func (rt *Router) probe(worker int) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.opts.Timeout)
	defer cancel()
	ok := false
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rt.opts.Workers[worker]+"/readyz", nil)
	if err == nil {
		if resp, derr := rt.client.Do(req); derr == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	rt.breakers[worker].onProbe(ok, time.Now())
}

// replicaOrder lists the workers to try for a key's partition: primary
// first, demoted behind the standby while its breaker is open.
func (rt *Router) replicaOrder(p int) []int {
	reps := rt.ring.Replicas(p)
	if len(reps) == 2 && !rt.workerUp(reps[0]) && rt.workerUp(reps[1]) {
		return []int{reps[1], reps[0]}
	}
	return reps
}

// unavailablePartitions lists, ascending, every partition with no live
// replica among the given down workers — under RF=2 a single down worker
// blacks out nothing, because every partition it owns has a standby.
func (rt *Router) unavailablePartitions(down []int) []int {
	isDown := make(map[int]bool, len(down))
	for _, w := range down {
		isDown[w] = true
	}
	var parts []int
	for p := 0; p < rt.ring.Partitions(); p++ {
		alive := false
		for _, w := range rt.ring.Replicas(p) {
			if !isDown[w] {
				alive = true
				break
			}
		}
		if !alive {
			parts = append(parts, p)
		}
	}
	return parts
}

// --- verdict routing ---

func (rt *Router) handleStaleOne(w http.ResponseWriter, r *http.Request) {
	k, err := server.ParseKey(r.PathValue("key"))
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, err.Error())
		return
	}
	p := rt.ring.PartitionOf(k)
	order := rt.replicaOrder(p)
	var errs []string
	for i, worker := range order {
		wr, err := rt.do(r.Context(), http.MethodGet, worker, "/v1/stale/"+r.PathValue("key"), nil)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		if worker != rt.ring.OwnerOfPartition(p) || i > 0 {
			metRouterFailovers.Inc()
		}
		relay(w, wr)
		return
	}
	rt.unavailable(w, fmt.Sprintf("all replicas of partition %d unavailable", p), errs, order)
}

// --- merged reads ---

// parsedEvent pairs one worker routing event's ordering form with its wire
// bytes, for union-dedup merging.
type parsedEvent struct {
	ev  events.Event
	raw json.RawMessage
}

// mergeEventBodies union-dedups the workers' /v1/events answers: every
// worker ingests the full feed and runs an identical detector, so merged
// output is a single worker's list — verified byte for byte by keying the
// dedup on the raw wire form and re-emitting those exact bytes. The union
// is what hides a restarted worker: WAL replay rebuilds its staleness
// state, not its detector's past events, which survive on its peers.
func mergeEventBodies(resps []*workerResp) ([]json.RawMessage, error) {
	seen := make(map[string]bool)
	var merged []parsedEvent
	for i, wr := range resps {
		if wr == nil {
			continue
		}
		var sub struct {
			Events []json.RawMessage `json:"events"`
		}
		if err := json.Unmarshal(wr.body, &sub); err != nil {
			return nil, fmt.Errorf("worker %d events: %v", i, err)
		}
		for _, raw := range sub.Events {
			if seen[string(raw)] {
				continue
			}
			seen[string(raw)] = true
			ev, err := server.ParseEvent(raw)
			if err != nil {
				return nil, fmt.Errorf("worker %d events: %v", i, err)
			}
			merged = append(merged, parsedEvent{ev: ev, raw: raw})
		}
	}
	sort.SliceStable(merged, func(i, j int) bool { return events.EventLess(merged[i].ev, merged[j].ev) })
	out := make([]json.RawMessage, len(merged))
	for i, pe := range merged {
		out[i] = pe.raw
	}
	return out, nil
}

// handleEvents serves GET and POST /v1/events: the client's request goes to
// every worker as it came, so a filter the workers refuse is refused in
// their words.
func (rt *Router) handleEvents(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	resps, down, ok := rt.askAll(w, r, r.Method, "/v1/events", body, false)
	if !ok {
		return
	}
	// Routing events are detected identically by every full-feed worker,
	// so any single responder carries the complete list.
	if len(down) == rt.ring.Workers() {
		rt.unavailable(w, "no workers reachable", nil, down)
		return
	}
	merged, err := mergeEventBodies(resps)
	if err != nil {
		server.WriteErr(w, http.StatusBadGateway, err.Error())
		return
	}
	server.WriteEvents(w, merged)
}

func (rt *Router) handleKeys(w http.ResponseWriter, r *http.Request) {
	path := "/v1/keys"
	if r.URL.Query().Get("stale") == "1" {
		path += "?stale=1"
	}
	resps, down, ok := rt.askAll(w, r, http.MethodGet, path, nil, false)
	if !ok {
		return
	}
	// Replication makes a single down worker invisible here: every
	// partition it owns is also tracked by its standby, whose key list
	// fills the hole, and mergeKeys drops the replica duplicates. Only a
	// partition with no live replica makes the merged list incomplete.
	if len(rt.unavailablePartitions(down)) > 0 {
		rt.unavailable(w, fmt.Sprintf("%d of %d workers unavailable", len(down), rt.ring.Workers()), nil, down)
		return
	}
	parts := make([][]string, 0, len(resps))
	for i, wr := range resps {
		if wr == nil {
			continue
		}
		var resp struct {
			Keys []string `json:"keys"`
		}
		if err := json.Unmarshal(wr.body, &resp); err != nil {
			server.WriteErr(w, http.StatusBadGateway, fmt.Sprintf("worker %d keys: %v", i, err))
			return
		}
		parts = append(parts, resp.Keys)
	}
	merged, err := mergeKeys(parts)
	if err != nil {
		server.WriteErr(w, http.StatusBadGateway, err.Error())
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"keys": merged, "count": len(merged)})
}

// clusterStats is the merged /v1/stats wire form: the single-daemon shape
// plus, only when degraded, the down workers and (if any partition has no
// live replica at all) the unavailable-partition list. A healthy cluster's
// bytes carry neither field.
type clusterStats struct {
	server.Stats
	DegradedWorkers       []int `json:"degradedWorkers,omitempty"`
	UnavailablePartitions []int `json:"unavailablePartitions,omitempty"`
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	resps, down, ok := rt.askAll(w, r, http.MethodGet, "/v1/stats", nil, false)
	if !ok {
		return
	}
	if len(down) == rt.ring.Workers() {
		rt.unavailable(w, "no workers reachable", nil, down)
		return
	}
	var parts []server.Stats
	for i, wr := range resps {
		if wr == nil {
			continue
		}
		var st server.Stats
		if err := json.Unmarshal(wr.body, &st); err != nil {
			server.WriteErr(w, http.StatusBadGateway, fmt.Sprintf("worker %d stats: %v", i, err))
			return
		}
		parts = append(parts, st)
	}
	merged, err := mergeStats(parts, rt.hub.Subscribers())
	if err != nil {
		server.WriteErr(w, http.StatusBadGateway, err.Error())
		return
	}
	out := clusterStats{Stats: merged}
	if len(down) > 0 {
		// With responders missing, the replica-sum division in mergeStats
		// is approximate (a down worker's partitions are counted once, the
		// rest twice); flag the degradation rather than hide it.
		metRouterPartial.Inc()
		out.DegradedWorkers = down
		out.UnavailablePartitions = rt.unavailablePartitions(down)
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// workerInfo is one worker's entry in GET /v1/cluster.
type workerInfo struct {
	ID                int             `json:"id"`
	URL               string          `json:"url"`
	Partitions        int             `json:"partitions"`
	StandbyPartitions int             `json:"standbyPartitions"`
	Breaker           string          `json:"breaker"`
	Ready             bool            `json:"ready"`
	Stats             json.RawMessage `json:"stats,omitempty"`
}

// handleCluster is the router's own topology endpoint: per-worker
// identity, readiness, and unmerged stats — the debuggable counterpart of
// the anonymous sums /v1/stats serves.
func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	infos, _ := scatter(rt.all, func(worker int) (workerInfo, error) {
		info := workerInfo{
			ID:                worker,
			URL:               rt.opts.Workers[worker],
			Partitions:        rt.ring.OwnedPartitions(worker),
			StandbyPartitions: rt.ring.ReplicaPartitions(worker) - rt.ring.OwnedPartitions(worker),
			Breaker:           rt.breakers[worker].snapshot(),
		}
		if wr, err := rt.do(r.Context(), http.MethodGet, worker, "/readyz", nil); err == nil && wr.status == http.StatusOK {
			info.Ready = true
		}
		if wr, err := rt.do(r.Context(), http.MethodGet, worker, "/v1/stats", nil); err == nil && wr.status == http.StatusOK {
			info.Stats = json.RawMessage(bytes.TrimRight(wr.body, "\n"))
		}
		return info, nil
	})
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"workers":       infos,
		"partitions":    rt.ring.Partitions(),
		"replicaFactor": rt.ring.ReplicaFactor(),
		"streams":       rt.merger.allConnected(),
	})
}

func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	// Probe every worker, open breakers included: a recovered worker's
	// first successful /readyz here closes its breaker.
	_, down, ok := rt.askAll(w, r, http.MethodGet, "/readyz", nil, true)
	if !ok {
		return
	}
	if uncovered := rt.unavailablePartitions(down); len(uncovered) > 0 {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":                "unavailable",
			"downWorkers":           down,
			"unavailablePartitions": uncovered,
		})
		return
	}
	if !rt.merger.covered() {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "streams connecting"})
		return
	}
	if len(down) > 0 || !rt.merger.allConnected() {
		// Every partition still has a live replica and a connected stream,
		// so reads keep succeeding — but redundancy is gone.
		server.WriteJSON(w, http.StatusOK, map[string]any{
			"status":      "degraded",
			"downWorkers": down,
		})
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleSignals serves the merged stream exactly as a worker serves its
// own: clients see one daemon, not a proxy.
func (rt *Router) handleSignals(w http.ResponseWriter, r *http.Request) {
	server.ServeSSE(w, r, rt.hub, func(frame []byte) []byte { return frame })
}

// --- refresh + snapshot fan-out ---

func (rt *Router) handleRefreshPlan(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Budget int `json:"budget"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		server.WriteErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Budget <= 0 {
		server.WriteErr(w, http.StatusBadRequest, "budget must be positive")
		return
	}
	body, _ := json.Marshal(map[string]int{"budget": req.Budget})
	// Every worker is asked, open breakers included: a plan missing a live
	// worker's slice is wrong, not merely slow.
	parts, errs := scatter(rt.all, func(worker int) ([]server.PlanEntry, error) {
		wr, err := rt.do(r.Context(), http.MethodPost, worker, "/v1/refresh/plan", body)
		if err != nil {
			return nil, err
		}
		var resp struct {
			Plan []server.PlanEntry `json:"plan"`
		}
		if err := json.Unmarshal(wr.body, &resp); err != nil {
			return nil, err
		}
		return resp.Plan, nil
	})
	K := rt.ring.Workers()
	cur := make([]int, K) // per-worker merge cursor
	// Each worker plans within its own slice with the full budget and
	// returns entries in global priority order (server.PlanEntryLess), so
	// the item at global rank r sits at rank <= r within its worker:
	// a k-way merge of the per-worker lists, truncated at the budget,
	// reconstructs the single-daemon priority order — no worker's
	// below-cut entry can outrank an accepted one. Replication makes a
	// pair's entry appear in both its replicas' lists; the merge keeps the
	// first and skips later duplicates by key.
	merged := make([]server.PlanEntry, 0, req.Budget)
	keys := make([]string, 0, req.Budget)
	seen := make(map[string]bool, req.Budget)
	for len(merged) < req.Budget {
		best := -1
		for c := 0; c < K; c++ {
			if cur[c] >= len(parts[c]) {
				continue
			}
			if best < 0 || server.PlanEntryLess(parts[c][cur[c]], parts[best][cur[best]]) {
				best = c
			}
		}
		if best < 0 {
			break
		}
		e := parts[best][cur[best]]
		cur[best]++
		if seen[e.Key] {
			continue
		}
		seen[e.Key] = true
		merged = append(merged, e)
		keys = append(keys, e.Key)
	}
	resp := map[string]any{"keys": keys, "plan": merged, "planned": len(keys)}
	if uncovered := rt.unavailablePartitions(failedOf(errs)); len(uncovered) > 0 {
		metRouterPartial.Inc()
		resp["unavailablePartitions"] = uncovered
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleRefreshRecord(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	var probe struct {
		Src string `json:"src"`
		Dst string `json:"dst"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		server.WriteErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	src, err := rrr.ParseIP(probe.Src)
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, "src: "+err.Error())
		return
	}
	dst, err := rrr.ParseIP(probe.Dst)
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, "dst: "+err.Error())
		return
	}
	// A recorded refresh mutates tracked-pair state, so it must reach every
	// replica or the standby's verdicts drift from the primary's. Both are
	// written concurrently; the primary's body is preferred for the
	// response (they are byte-identical when both succeed). A refresh that
	// lands on only one replica leaves the other stale until it re-feeds —
	// the documented write-path caveat of replication without a log.
	p := rt.ring.PartitionOf(rrr.Key{Src: src, Dst: dst})
	reps := rt.ring.Replicas(p)
	resps, errs := scatter(reps, func(worker int) (*workerResp, error) {
		return rt.do(r.Context(), http.MethodPost, worker, "/v1/refresh/record", body)
	})
	var errStrs []string
	for i, err := range errs {
		if err != nil {
			errStrs = append(errStrs, err.Error())
			continue
		}
		if i > 0 {
			metRouterFailovers.Inc()
		}
		relay(w, resps[i])
		return
	}
	rt.unavailable(w, fmt.Sprintf("all replicas of partition %d unavailable", p), errStrs, reps)
}

func (rt *Router) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	results, errs := scatter(rt.all, func(worker int) (json.RawMessage, error) {
		wr, err := rt.do(r.Context(), http.MethodPost, worker, "/v1/snapshot", nil)
		if err != nil {
			return nil, err
		}
		if wr.status != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", wr.status, bytes.TrimSpace(wr.body))
		}
		return bytes.TrimRight(wr.body, "\n"), nil
	})
	for worker, err := range errs {
		if err != nil {
			server.WriteErr(w, http.StatusInternalServerError, fmt.Sprintf("worker %d snapshot: %v", worker, err))
			return
		}
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"workers": results})
}
