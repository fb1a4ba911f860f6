// Package server is rrr's query-serving layer: an HTTP/JSON API over a
// live Monitor, answering "is this traceroute stale?" at scale while a
// Pipeline ingests BGP and traceroute feeds in the background.
//
// Concurrency model: one writer (the pipeline goroutine feeding the
// Monitor) and many readers (HTTP handler goroutines querying it) share
// the Monitor's RWMutex; the signal stream reaches SSE subscribers through
// a hub whose bounded per-subscriber rings guarantee slow clients drop
// data rather than block ingestion.
//
// Endpoints (all JSON):
//
//	GET  /v1/stale/{key}      staleness verdict for one pair ("1.2.3.4-5.6.7.8")
//	POST /v1/stale            batch verdicts: {"keys": ["src-dst", ...]}
//	                          (or the router's framed form, see staleframe.go)
//	GET  /v1/keys?stale=1     tracked (or only flagged) pairs, sorted
//	GET  /v1/stats            corpus size, window clock, signal/revocation totals
//	GET  /v1/signals          Server-Sent-Events stream of live signals
//	GET  /v1/events           routing events (hijacks, leaks, blackholes, artifacts)
//	POST /v1/events           routing events filtered by class/window range
//	POST /v1/refresh/plan     {"budget": n} -> §4.3.1 refresh plan
//	POST /v1/refresh/record   fresh measurement -> change class + recalibration
//	POST /v1/snapshot         write the restart snapshot to the configured path
//	GET  /metrics             Prometheus text exposition of the obs.Default registry
//	GET  /healthz             liveness (always 200 while the process serves)
//	GET  /readyz              readiness (503 until WAL recovery completes)
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"rrr"
	"rrr/internal/events"
	"rrr/internal/obs"
	"rrr/internal/wal"
)

// Config tunes the server.
type Config struct {
	// SnapshotPath is where POST /v1/snapshot (and the daemon's shutdown
	// hook) write the restart snapshot; empty disables the endpoint.
	SnapshotPath string
	// RingSize is the per-SSE-subscriber signal buffer (0 =
	// DefaultRingSize).
	RingSize int
	// MaxInFlight bounds concurrently-served data requests (0 =
	// DefaultMaxInFlight). Requests past the bound are shed with
	// 503 + Retry-After instead of queueing into latency collapse.
	// Health, readiness, metrics, and SSE stream endpoints are exempt.
	MaxInFlight int
	// Health, when set, surfaces the pipeline's per-feed supervisor state
	// in GET /v1/stats — a degraded daemon (one feed dead or retrying)
	// keeps serving, and operators see which feed is down without
	// scraping /metrics.
	Health *rrr.PipelineHealth
	// WALStatus, when set, surfaces the write-ahead log's state in
	// GET /v1/stats (policy, segment count, records, bytes).
	WALStatus func() wal.Status
	// Worker, when set, identifies this server as one cluster partition
	// owner in GET /v1/stats, so merged cluster stats stay debuggable
	// instead of anonymous sums. Single-node daemons leave it nil and
	// their stats are byte-identical to pre-cluster builds.
	Worker *WorkerIdentity
	// Events, when set, serves the routing-event detector's emissions on
	// GET/POST /v1/events. The detector is fed by the same pipeline that
	// feeds the Monitor (PipelineConfig.Tap) and is internally locked, so
	// handlers read it while ingestion writes.
	Events *events.Detector
}

// WorkerIdentity names one cluster worker and its share of the hash ring.
type WorkerIdentity struct {
	ID         int `json:"id"`
	Workers    int `json:"workers"`
	Partitions int `json:"partitions"`
	// RF is how many distinct workers track each of this worker's pairs
	// (2 under replicated rings, so the router divides summed per-pair
	// stats back to single-daemon counts). Zero means unreplicated and is
	// omitted, keeping pre-replication stats bytes unchanged.
	RF int `json:"rf,omitempty"`
}

// Server serves staleness queries from a Monitor.
type Server struct {
	mon *rrr.Monitor
	hub *hub
	cfg Config
	mux *http.ServeMux
	// cache memoizes verdicts across Monitor state transitions, keyed by
	// pair and stamped with the Monitor's StateVersion; see verdictCache.
	cache *verdictCache
	// ready gates GET /readyz: the daemon starts serving (liveness) while
	// WAL recovery replays, and flips ready once the monitor's state is
	// complete. Defaults to true so servers without a recovery phase are
	// born ready.
	ready atomic.Bool
	// inflight counts data requests currently inside the handler tree;
	// Handler()'s admission wrapper sheds past cfg.MaxInFlight.
	inflight atomic.Int64
}

// New wires the handlers. The Monitor may (and in a daemon, will) be fed
// concurrently by a Pipeline; every handler uses only the Monitor's
// public, internally-locked API.
func New(mon *rrr.Monitor, cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	s := &Server{mon: mon, hub: newHub(cfg.RingSize), cfg: cfg, mux: http.NewServeMux(), cache: newVerdictCache(mon, 0)}
	s.mux.HandleFunc("GET /v1/stale/{key}", s.handleStaleOne)
	s.mux.HandleFunc("POST /v1/stale", s.handleStaleBatch)
	s.mux.HandleFunc("GET /v1/keys", s.handleKeys)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/signals", s.handleSignals)
	s.mux.HandleFunc("GET /v1/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/refresh/plan", s.handleRefreshPlan)
	s.mux.HandleFunc("POST /v1/refresh/record", s.handleRefreshRecord)
	s.mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	s.mux.Handle("GET /metrics", obs.Default.Handler())
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.ready.Store(true)
	return s
}

// SetReady flips the /readyz gate. The daemon clears it before WAL
// recovery (queries during replay see partial state and load balancers
// should not route to it yet) and sets it once the replayed monitor is
// current.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.ready.Load() {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "recovering"})
}

// MaxBatch caps the keys one POST /v1/stale accepts. It is a constant, not
// a setting, because it is a contract: a router in front of workers with a
// different limit would turn their 413s into lost verdicts.
const MaxBatch = 10000

// DefaultMaxInFlight is the Config.MaxInFlight default: generous enough
// that the differential and torture suites never shed, small enough to
// bound memory under a stampede.
const DefaultMaxInFlight = 4096

// DeadlineHeader carries the router's remaining per-request budget in
// milliseconds. The worker folds it into the request context so work for
// an already-expired router deadline is abandoned instead of computed and
// discarded. X-RRR-Deadline-Ms, spelled the way net/http canonicalizes it on
// the wire anyway: any other spelling costs Header.Set and Header.Get an
// allocation each, on every request.
const DeadlineHeader = "X-Rrr-Deadline-Ms"

// OverloadExempt reports whether a path bypasses in-flight admission:
// probes and metrics must answer during overload (they are how operators
// and the router's circuit breakers see the overload), and SSE streams
// are long-lived by design so counting them would wedge admission.
func OverloadExempt(path string) bool {
	switch path {
	case "/healthz", "/readyz", "/metrics", "/v1/signals":
		return true
	}
	return false
}

// Handler returns the HTTP handler tree wrapped with overload admission
// and router-deadline propagation.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if OverloadExempt(r.URL.Path) {
			s.mux.ServeHTTP(w, r)
			return
		}
		if h := r.Header.Get(DeadlineHeader); h != "" {
			if ms, err := strconv.ParseInt(h, 10, 64); err == nil {
				if ms <= 0 {
					// The caller's budget is already spent; any answer
					// would be discarded.
					metShed.Inc()
					w.Header().Set("Retry-After", "1")
					WriteErr(w, http.StatusServiceUnavailable, "deadline already exceeded")
					return
				}
				ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		n := s.inflight.Add(1)
		metInflight.Set(n)
		defer func() { metInflight.Set(s.inflight.Add(-1)) }()
		if n > int64(s.cfg.MaxInFlight) {
			metShed.Inc()
			w.Header().Set("Retry-After", "1")
			WriteErr(w, http.StatusServiceUnavailable,
				fmt.Sprintf("overloaded: %d requests in flight (limit %d)", n, s.cfg.MaxInFlight))
			return
		}
		s.mux.ServeHTTP(w, r)
	})
}

// Publish is the Pipeline sink: it fans the signal out to SSE subscribers
// without blocking ingestion. Compose with other sinks via rrr.Tee.
func (s *Server) Publish(sig rrr.Signal) { s.hub.Publish(sig) }

// PublishWindowClose fans a window-close marker out to SSE subscribers.
// Wire it to PipelineConfig.OnWindowClose so streams carry `event: window`
// frames delimiting each engine window — the ordering barrier the cluster
// router's stream merger relies on.
func (s *Server) PublishWindowClose(ws int64) { s.hub.publishWindow(ws) }

// --- key and signal JSON forms ---

// FormatKey renders a pair as "src-dst" (the API's canonical key form).
func FormatKey(k rrr.Key) string {
	return rrr.FormatIP(k.Src) + "-" + rrr.FormatIP(k.Dst)
}

// ParseKey accepts "src-dst" or the Go String() form "src->dst".
func ParseKey(s string) (rrr.Key, error) {
	sep := "-"
	if strings.Contains(s, "->") {
		sep = "->"
	}
	a, b, ok := strings.Cut(s, sep)
	if !ok {
		return rrr.Key{}, fmt.Errorf("key %q: want src-dst", s)
	}
	src, err := rrr.ParseIP(a)
	if err != nil {
		return rrr.Key{}, fmt.Errorf("key %q: %v", s, err)
	}
	dst, err := rrr.ParseIP(b)
	if err != nil {
		return rrr.Key{}, fmt.Errorf("key %q: %v", s, err)
	}
	return rrr.Key{Src: src, Dst: dst}, nil
}

// signalJSON is the wire form of a staleness prediction signal.
type signalJSON struct {
	Technique   string  `json:"technique"`
	Key         string  `json:"key"`
	MonitorID   int     `json:"monitorId"`
	WindowStart int64   `json:"windowStart"`
	Borders     []int   `json:"borders,omitempty"`
	Detail      string  `json:"detail,omitempty"`
	Score       float64 `json:"score,omitempty"`
	VPCount     int     `json:"vpCount,omitempty"`
}

func toSignalJSON(sig rrr.Signal) signalJSON {
	return signalJSON{
		Technique:   sig.Technique.String(),
		Key:         FormatKey(sig.Key),
		MonitorID:   sig.MonitorID,
		WindowStart: sig.WindowStart,
		Borders:     sig.Borders,
		Detail:      sig.Detail,
		Score:       sig.Score,
		VPCount:     sig.VPCount,
	}
}

// techniqueByName inverts Technique.String for wire-form decoding.
var techniqueByName = map[string]rrr.Technique{
	rrr.TechBGPASPath.String():     rrr.TechBGPASPath,
	rrr.TechBGPCommunity.String():  rrr.TechBGPCommunity,
	rrr.TechBGPBurst.String():      rrr.TechBGPBurst,
	rrr.TechTraceSubpath.String():  rrr.TechTraceSubpath,
	rrr.TechTraceBorder.String():   rrr.TechTraceBorder,
	rrr.TechIXPMembership.String(): rrr.TechIXPMembership,
}

// ParseSignal decodes an /v1/signals wire-form signal back into the
// engine's representation. The cluster router uses the decoded form only
// for ordering (rrr.SignalLess) and re-emits the original bytes, so the
// fields ParseSignal recovers are exactly the ones the wire form carries.
func ParseSignal(data []byte) (rrr.Signal, error) {
	var sj signalJSON
	if err := json.Unmarshal(data, &sj); err != nil {
		return rrr.Signal{}, err
	}
	k, err := ParseKey(sj.Key)
	if err != nil {
		return rrr.Signal{}, err
	}
	t, ok := techniqueByName[sj.Technique]
	if !ok {
		return rrr.Signal{}, fmt.Errorf("unknown technique %q", sj.Technique)
	}
	return rrr.Signal{
		Technique:   t,
		Key:         k,
		MonitorID:   sj.MonitorID,
		WindowStart: sj.WindowStart,
		Borders:     sj.Borders,
		Detail:      sj.Detail,
		Score:       sj.Score,
		VPCount:     sj.VPCount,
	}, nil
}

// Verdict is the staleness answer for one pair, including §6.2's
// known/unknown visibility split: a tracked pair with no potential signals
// is "unknown" — the monitor has no vantage over it, so silence is not
// evidence of freshness.
type Verdict struct {
	Key               string       `json:"key"`
	Tracked           bool         `json:"tracked"`
	Stale             bool         `json:"stale"`
	Visibility        string       `json:"visibility"` // known | unknown | untracked
	MeasuredAt        int64        `json:"measuredAt,omitempty"`
	PotentialMonitors int          `json:"potentialMonitors"`
	Signals           []signalJSON `json:"signals,omitempty"`
}

// verdictFromState renders a Monitor pair snapshot as a wire verdict. The
// signalJSON conversion copies each signal out of engine-internal storage,
// so the resulting Verdict is safe to cache across state transitions.
func verdictFromState(ps rrr.PairState) Verdict {
	v := Verdict{Key: FormatKey(ps.Key)}
	if !ps.Tracked {
		v.Visibility = "untracked"
		return v
	}
	v.Tracked = true
	v.MeasuredAt = ps.MeasuredAt
	v.PotentialMonitors = ps.Potential
	if ps.Potential == 0 {
		v.Visibility = "unknown"
	} else {
		v.Visibility = "known"
	}
	for _, sig := range ps.Signals {
		v.Signals = append(v.Signals, toSignalJSON(sig))
	}
	v.Stale = len(v.Signals) > 0
	return v
}

// renderVerdict computes and JSON-encodes the verdict for one pair
// snapshot. Rendering happens once per (pair, state version) — cache hits
// reuse the encoded bytes, so the hot read path does no reflection-driven
// marshaling at all.
func renderVerdict(ps rrr.PairState) cachedVerdict {
	v := verdictFromState(ps)
	data, err := json.Marshal(v)
	if err != nil {
		// Unreachable with finite detector scores; keep the wire JSON valid.
		data = []byte(`{"error":"verdict encoding failed"}`)
	}
	return cachedVerdict{Stale: v.Stale, JSON: data}
}

// verdicts answers a batch of keys: repeated keys are deduplicated (each
// unique key is resolved once), cached answers stamped with the current
// state version are served without locking the Monitor, and all remaining
// keys are read in one PairStates call — a single lock acquisition per
// request rather than three per key.
func (s *Server) verdicts(keys []rrr.Key) []cachedVerdict {
	ver := s.mon.StateVersion()
	out := make([]cachedVerdict, len(keys))
	// first maps each key to its first occurrence; duplicate positions are
	// back-filled from there after resolution, avoiding a per-key index
	// slice on this hot path.
	first := make(map[rrr.Key]int, len(keys))
	uniq := make([]rrr.Key, 0, len(keys))
	dups := false
	for i, k := range keys {
		if _, seen := first[k]; seen {
			dups = true
			continue
		}
		first[k] = i
		uniq = append(uniq, k)
	}
	miss := uniq[:0]
	for _, k := range uniq {
		if v, ok := s.cache.get(k, ver); ok {
			out[first[k]] = v
		} else {
			miss = append(miss, k)
		}
	}
	if len(miss) > 0 {
		states, sver := s.mon.PairStates(miss)
		for _, ps := range states {
			v := renderVerdict(ps)
			s.cache.put(ps.Key, v, sver)
			out[first[ps.Key]] = v
		}
	}
	if dups {
		for i, k := range keys {
			out[i] = out[first[k]]
		}
	}
	return out
}

// --- handlers ---

func (s *Server) handleStaleOne(w http.ResponseWriter, r *http.Request) {
	k, err := ParseKey(r.PathValue("key"))
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err.Error())
		return
	}
	cv := s.verdicts([]rrr.Key{k})[0]
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(cv.JSON)
	w.Write([]byte("\n"))
}

// DecodeStaleBatch reads and validates a POST /v1/stale body, returning the
// keys as sent and as parsed. On a bad request it answers the 400 or 413
// itself and reports ok false.
func DecodeStaleBatch(w http.ResponseWriter, r *http.Request) (names []string, keys []rrr.Key, ok bool) {
	var req struct {
		Keys []string `json:"keys"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return nil, nil, false
	}
	if !batchSizeOK(w, len(req.Keys)) {
		return nil, nil, false
	}
	keys = make([]rrr.Key, len(req.Keys))
	for i, ks := range req.Keys {
		k, err := ParseKey(ks)
		if err != nil {
			WriteErr(w, http.StatusBadRequest, err.Error())
			return nil, nil, false
		}
		keys[i] = k
	}
	return req.Keys, keys, true
}

// batchSizeOK refuses an empty or over-limit batch, whichever body form
// carried it, and reports whether n keys may be served.
func batchSizeOK(w http.ResponseWriter, n int) bool {
	switch {
	case n == 0:
		WriteErr(w, http.StatusBadRequest, "no keys")
	case n > MaxBatch:
		WriteErr(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("%d keys exceeds batch limit %d", n, MaxBatch))
	default:
		return true
	}
	return false
}

// WriteStaleBatch answers POST /v1/stale with n pre-rendered verdict bodies.
// They are spliced directly instead of round-tripping through json.Marshal,
// which would re-scan (Compact) every byte of every cached verdict on every
// request. extra is spliced after the count: the cluster router's
// pre-rendered degradation members, each with its leading comma.
func WriteStaleBatch(w http.ResponseWriter, stale, n int, verdict func(i int) []byte, extra []byte) {
	size := len(extra) + 64
	for i := 0; i < n; i++ {
		size += len(verdict(i)) + 1
	}
	var buf bytes.Buffer
	buf.Grow(size)
	buf.WriteString(`{"stale":`)
	buf.WriteString(strconv.Itoa(stale))
	buf.WriteString(`,"count":`)
	buf.WriteString(strconv.Itoa(n))
	buf.Write(extra)
	buf.WriteString(`,"verdicts":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(verdict(i))
	}
	buf.WriteString("]}\n")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

func (s *Server) handleStaleBatch(w http.ResponseWriter, r *http.Request) {
	// The body form is the only fork: admission, the deadline and the
	// verdicts are the same code for a client's JSON and a router's frame.
	var keys []rrr.Key
	var sc *staleScratch
	ok := false
	if r.Header.Get("Content-Type") == StaleFrameType {
		sc = staleScratchPool.Get().(*staleScratch)
		defer staleScratchPool.Put(sc)
		keys, ok = decodeStaleFrame(w, r, sc)
	} else {
		_, keys, ok = DecodeStaleBatch(w, r)
	}
	if !ok {
		return
	}
	// The client (or the router, via the propagated deadline) may already
	// be gone; verdict computation for a canceled request is pure waste.
	if r.Context().Err() != nil {
		return
	}
	verdicts := s.verdicts(keys)
	if r.Context().Err() != nil {
		return
	}
	stale := 0
	for i := range verdicts {
		if verdicts[i].Stale {
			stale++
		}
	}
	if sc != nil {
		writeStaleFrame(w, stale, verdicts, sc)
		return
	}
	WriteStaleBatch(w, stale, len(verdicts), func(i int) []byte { return verdicts[i].JSON }, nil)
}

func (s *Server) handleKeys(w http.ResponseWriter, r *http.Request) {
	staleOnly := r.URL.Query().Get("stale") == "1"
	var keys []rrr.Key
	if staleOnly {
		keys = s.mon.StaleKeys()
	} else {
		keys = s.mon.Tracked()
	}
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = FormatKey(k)
	}
	WriteJSON(w, http.StatusOK, map[string]any{"keys": out, "count": len(out)})
}

// Stats is GET /v1/stats: deliberately free of wall-clock fields so a
// snapshot→restart→restore cycle reproduces it byte for byte.
type Stats struct {
	CorpusSize        int            `json:"corpusSize"`
	StaleKeys         int            `json:"staleKeys"`
	WindowSec         int64          `json:"windowSec"`
	WindowsClosed     int            `json:"windowsClosed"`
	Signals           map[string]int `json:"signals"`
	TotalSignals      int            `json:"totalSignals"`
	RevokedSignals    int            `json:"revokedSignals"`
	RevokedPairEvents int            `json:"revokedPairEvents"`
	PrunedCommunities int            `json:"prunedCommunities"`
	// PrunedCommunityIDs lists the pruned communities' values, present
	// only on cluster workers (Worker set): every worker ingests the full
	// feed, so the router must merge prune decisions as a set union, not
	// a sum. Single-node responses omit it, keeping their bytes stable.
	PrunedCommunityIDs []uint32 `json:"prunedCommunityIds,omitempty"`
	Subscribers        int      `json:"subscribers"`
	// Feeds is the pipeline's per-feed health (status, retries, faults
	// absorbed); absent when the server runs without an ingesting
	// pipeline.
	Feeds []rrr.FeedHealth `json:"feeds,omitempty"`
	// WAL is the write-ahead log's state; absent without -wal-dir. Its
	// fields are log-deterministic (same record sequence → same values),
	// preserving the byte-for-byte restart guarantee above.
	WAL *wal.Status `json:"wal,omitempty"`
	// Worker identifies this server's cluster partition slice; absent on
	// single-node daemons.
	Worker *WorkerIdentity `json:"worker,omitempty"`
}

func (s *Server) stats() Stats {
	st := Stats{
		CorpusSize:    len(s.mon.Tracked()),
		StaleKeys:     len(s.mon.StaleKeys()),
		WindowSec:     s.mon.WindowSec(),
		WindowsClosed: s.mon.WindowsClosed(),
		Signals:       make(map[string]int),
		Subscribers:   s.hub.Subscribers(),
	}
	for t, n := range s.mon.SignalCounts() {
		st.Signals[t.String()] = n
		st.TotalSignals += n
	}
	st.RevokedSignals, st.RevokedPairEvents = s.mon.RevocationStats()
	st.PrunedCommunities = s.mon.PrunedCommunities()
	if s.cfg.Worker != nil {
		st.PrunedCommunityIDs = s.mon.PrunedCommunityIDs()
	}
	st.Feeds = s.cfg.Health.Snapshot() // nil-safe: nil Health yields no feeds
	if s.cfg.WALStatus != nil {
		ws := s.cfg.WALStatus()
		st.WAL = &ws
	}
	st.Worker = s.cfg.Worker
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.stats())
}

func (s *Server) handleSignals(w http.ResponseWriter, r *http.Request) {
	ServeSSE(w, r, s.hub.Fanout, eventFrame)
}

// WindowFrame renders the window-close marker frame for the window
// starting at ws.
func WindowFrame(ws int64) []byte {
	return SSEFrame("window", fmt.Appendf(nil, `{"windowStart":%d}`, ws))
}

// eventFrame renders one hub event as its SSE frame (nil if it cannot be
// encoded, which writes nothing).
func eventFrame(ev Event) []byte {
	if ev.Window {
		return WindowFrame(ev.WindowStart)
	}
	kind, v := "signal", any(toSignalJSON(ev.Signal))
	if ev.Routing != nil {
		kind, v = "routing", toEventJSON(*ev.Routing)
	}
	data, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return SSEFrame(kind, data)
}

func (s *Server) handleRefreshPlan(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Budget int `json:"budget"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Budget <= 0 {
		WriteErr(w, http.StatusBadRequest, "budget must be positive")
		return
	}
	// nil rng: the Monitor falls back to its deterministic seeded source,
	// keeping the endpoint reproducible and race-free across handlers.
	plan := s.mon.PlanRefreshDetailed(req.Budget, nil)
	keys := make([]string, len(plan))
	entries := make([]PlanEntry, len(plan))
	for i, it := range plan {
		keys[i] = FormatKey(it.Key)
		entries[i] = toPlanEntry(it)
	}
	WriteJSON(w, http.StatusOK, map[string]any{"keys": keys, "plan": entries, "planned": len(keys)})
}

// PlanEntry is one /v1/refresh/plan selection with the attributes it was
// ranked by. A cluster router re-merges workers' entries with
// PlanEntryLess to reconstruct the global priority order; a plain client
// can ignore everything but the keys list.
type PlanEntry struct {
	Key        string  `json:"key"`
	Calibrated bool    `json:"calibrated,omitempty"`
	VPTPR      float64 `json:"vpTpr,omitempty"`
	Technique  string  `json:"technique"`
	VPCount    int     `json:"vpCount,omitempty"`
	Score      float64 `json:"score,omitempty"`
	IPOverlap  int     `json:"ipOverlap,omitempty"`
	ASOverlap  int     `json:"asOverlap,omitempty"`
	SameASVP   bool    `json:"sameAsVp,omitempty"`
	SameCityVP bool    `json:"sameCityVp,omitempty"`
}

func toPlanEntry(it rrr.PlanItem) PlanEntry {
	return PlanEntry{
		Key:        FormatKey(it.Key),
		Calibrated: it.Calibrated,
		VPTPR:      it.VPTPR,
		Technique:  it.Sig.Technique.String(),
		VPCount:    it.Sig.VPCount,
		Score:      it.Sig.Score,
		IPOverlap:  it.Sig.IPOverlap,
		ASOverlap:  it.Sig.ASOverlap,
		SameASVP:   it.Sig.SameASVP,
		SameCityVP: it.Sig.SameCityVP,
	}
}

// PlanEntryLess reports whether a outranks b in the global §4.3.1
// priority order: calibrated selections first (VP summed TPR descending,
// then VP address), then Table 1's bootstrap order over the
// representative-signal attributes, with the numeric key as the final
// deterministic tiebreak. Merging per-partition plans with it reproduces
// a single daemon's order whenever the per-VP TPR sums do (always, in
// the refresh-free regime where no VP is calibrated).
func PlanEntryLess(a, b PlanEntry) bool {
	ak, aerr := ParseKey(a.Key)
	bk, berr := ParseKey(b.Key)
	if aerr != nil || berr != nil {
		return a.Key < b.Key
	}
	if a.Calibrated != b.Calibrated {
		return a.Calibrated
	}
	if a.Calibrated {
		if a.VPTPR != b.VPTPR {
			return a.VPTPR > b.VPTPR
		}
		if ak.Src != bk.Src {
			return ak.Src < bk.Src
		}
		return ak.Dst < bk.Dst
	}
	if a.IPOverlap != b.IPOverlap {
		return a.IPOverlap > b.IPOverlap
	}
	if a.ASOverlap != b.ASOverlap {
		return a.ASOverlap > b.ASOverlap
	}
	aBoth, bBoth := a.SameASVP && a.SameCityVP, b.SameASVP && b.SameCityVP
	if aBoth != bBoth {
		return aBoth
	}
	if a.SameASVP != b.SameASVP {
		return a.SameASVP
	}
	if a.SameCityVP != b.SameCityVP {
		return a.SameCityVP
	}
	at, aok := techniqueByName[a.Technique]
	bt, bok := techniqueByName[b.Technique]
	if aok && bok {
		aAS, bAS := at == rrr.TechBGPASPath, bt == rrr.TechBGPASPath
		if aAS != bAS {
			return aAS
		}
		if at.IsBGP() != bt.IsBGP() {
			if a.VPCount != b.VPCount {
				return a.VPCount > b.VPCount
			}
			return a.Score > b.Score
		}
		if at.IsBGP() {
			if a.VPCount != b.VPCount {
				return a.VPCount > b.VPCount
			}
		} else if a.Score != b.Score {
			return a.Score > b.Score
		}
	}
	if ak.Src != bk.Src {
		return ak.Src < bk.Src
	}
	return ak.Dst < bk.Dst
}

// traceJSON is the wire form of a traceroute measurement for
// POST /v1/refresh/record.
type traceJSON struct {
	MsmID   int64     `json:"msmId,omitempty"`
	ProbeID int       `json:"probeId,omitempty"`
	Time    int64     `json:"time"`
	Src     string    `json:"src"`
	Dst     string    `json:"dst"`
	Reached bool      `json:"reached,omitempty"`
	Hops    []hopJSON `json:"hops"`
}

type hopJSON struct {
	// IP is the hop address; "*" or "" marks an unresponsive hop.
	IP  string  `json:"ip"`
	RTT float64 `json:"rtt,omitempty"`
	TTL int     `json:"ttl,omitempty"`
}

func (t traceJSON) toTraceroute() (*rrr.Traceroute, error) {
	src, err := rrr.ParseIP(t.Src)
	if err != nil {
		return nil, fmt.Errorf("src: %v", err)
	}
	dst, err := rrr.ParseIP(t.Dst)
	if err != nil {
		return nil, fmt.Errorf("dst: %v", err)
	}
	tr := &rrr.Traceroute{
		MsmID: t.MsmID, ProbeID: t.ProbeID, Time: t.Time,
		Src: src, Dst: dst, Reached: t.Reached,
	}
	for i, h := range t.Hops {
		hop := rrr.Hop{RTT: h.RTT, TTL: h.TTL}
		if hop.TTL == 0 {
			hop.TTL = i + 1
		}
		if h.IP != "" && h.IP != "*" {
			ip, err := rrr.ParseIP(h.IP)
			if err != nil {
				return nil, fmt.Errorf("hop %d: %v", i, err)
			}
			hop.IP = ip
		}
		tr.Hops = append(tr.Hops, hop)
	}
	return tr, nil
}

func (s *Server) handleRefreshRecord(w http.ResponseWriter, r *http.Request) {
	var req traceJSON
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	tr, err := req.toTraceroute()
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err.Error())
		return
	}
	cls, err := s.mon.RecordRefresh(tr)
	if err != nil {
		WriteErr(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"key":         FormatKey(tr.Key()),
		"changeClass": cls.String(),
	})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.cfg.SnapshotPath == "" {
		WriteErr(w, http.StatusConflict, "no snapshot path configured (start with -snapshot)")
		return
	}
	n, err := WriteSnapshot(s.cfg.SnapshotPath, s.mon)
	if err != nil {
		WriteErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"path":    s.cfg.SnapshotPath,
		"entries": n.Entries,
		"signals": n.Signals,
		"bytes":   n.Bytes,
	})
}

// --- helpers ---

// WriteJSON marshals before touching the ResponseWriter, so an encode
// failure (e.g. a non-finite float smuggled into a response struct) becomes
// a 500 with a body instead of a silently empty 200 — headers would already
// be on the wire by the time a streaming encoder notices.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data, code = []byte(`{"error":"response encoding failed"}`), http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(data)
	w.Write([]byte("\n"))
}

// WriteErr answers code with the API's {"error": msg} body.
func WriteErr(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}
