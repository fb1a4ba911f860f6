package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call (or batch of calls) into a module, recorded from
// the benchmark's own files. Spans of one window or one request share
// Trace; Parent is the span that caused this one, 0 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Trace  int32  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer's epoch
	End    int64  `json:"end"`
	// N is how many records, signals or keys the span covered.
	N int `json:"n,omitempty"`
	// Counts are obs registry deltas taken at the span's boundaries.
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory and writes them out at exit. The ingest
// loops use it from one goroutine; the serve middleware from handler
// goroutines, hence the mutex.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// memReads counts runtime.ReadMemStats calls made on behalf of the
	// trace, for the overhead estimate.
	memReads int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (t *tracer) begin(name string, parent, trace int32, n int) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, N: n})
	// Stamp last, so the append is outside the span.
	t.spans[id-1].Start = int64(time.Since(t.epoch))
	return id
}

func (t *tracer) end(id int32) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) setCounts(id int32, c map[string]float64) {
	t.mu.Lock()
	t.spans[id-1].Counts = c
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wellNested checks what the schema test asserts of any span file: ids
// are dense, a parent precedes its children, and every child lies inside
// its parent's interval.
func wellNested(spans []span) error {
	for i, s := range spans {
		if s.ID != int32(i+1) {
			return fmt.Errorf("span %d has id %d", i+1, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) has parent %d, which does not precede it", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] is not inside its parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		if s.Trace != p.Trace {
			return fmt.Errorf("span %d (%s) is in trace %d, its parent in %d", s.ID, s.Name, s.Trace, p.Trace)
		}
	}
	return nil
}

// layerStat is one span name reduced over a run.
type layerStat struct {
	Count  int
	N      int
	DurNs  int64     // summed span durations
	SelfNs int64     // durations minus the part child spans cover
	EachMs []float64 // per-span durations
	SelfUs []float64 // per-span self times
}

// reduce folds spans to per-name statistics. A span's self time is its
// duration minus the union of its children's intervals: two sub-requests
// the router runs side by side cover their overlap once.
func reduce(spans []span) layerStats {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := make(layerStats)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		dur := s.End - s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]-1].Start < spans[kids[j]-1].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			c := spans[k-1]
			from, to := c.Start, c.End
			if from < edge {
				from = edge
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		st.Count++
		st.N += s.N
		st.DurNs += dur
		st.SelfNs += dur - covered
		st.EachMs = append(st.EachMs, float64(dur)/1e6)
		st.SelfUs = append(st.SelfUs, float64(dur-covered)/1e3)
	}
	return out
}

type layerStats map[string]*layerStat

func (m layerStats) get(name string) *layerStat {
	if st := m[name]; st != nil {
		return st
	}
	return &layerStat{}
}

// perN is summed duration over summed N, in ns.
func (st *layerStat) perN() float64 {
	if st.N == 0 {
		return 0
	}
	return float64(st.DurNs) / float64(st.N)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// memDelta accumulates allocation counts for the stages the trace wants
// them for. Reading MemStats stops the world, so it is done around whole
// stage batches only, and outside the stage's own span.
type memDelta struct {
	mallocs, bytes uint64
}

// stageTracer wires a tracer into the direct-call loop's hooks.
type stageTracer struct {
	t *tracer
	// mem names the stages whose allocations are counted.
	mem  map[string]*memDelta
	root int32
	w    int32
	// series are the registry series whose per-window deltas are kept on
	// the window's root span.
	series []string
}

func (s *stageTracer) hooks() *stageHooks {
	return &stageHooks{
		window: func(w int, fn func()) {
			var before counters
			if len(s.series) > 0 {
				before = readCounters()
			}
			s.w = int32(w)
			s.root = s.t.begin("window", 0, s.w, 0)
			fn()
			s.t.end(s.root)
			if len(s.series) > 0 {
				after := readCounters()
				d := make(map[string]float64, len(s.series))
				for _, name := range s.series {
					d[name] = after.since(before, name)
				}
				s.t.setCounts(s.root, d)
			}
		},
		stage: s.stage,
	}
}

func (s *stageTracer) stage(name string, n int, fn func()) {
	md := s.mem[name]
	var m0, m1 runtime.MemStats
	if md != nil {
		runtime.ReadMemStats(&m0)
	}
	id := s.t.begin(name, s.root, s.w, n)
	fn()
	s.t.end(id)
	if md != nil {
		runtime.ReadMemStats(&m1)
		md.mallocs += m1.Mallocs - m0.Mallocs
		md.bytes += m1.TotalAlloc - m0.TotalAlloc
		s.t.memReads += 2
	}
}

// overheadFrac estimates what tracing added to tracedWall: the measured
// cost of recording one span and of one MemStats read, times how many of
// each the run made. (The traced pass is a different loop from the
// end-to-end run, so subtracting one wall clock from the other would
// measure the loop, not the tracing.)
func (t *tracer) overheadFrac(tracedWall time.Duration) float64 {
	if tracedWall <= 0 {
		return 0
	}
	scratch := newTracer()
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		scratch.end(scratch.begin("calibrate", 0, 0, 0))
	}
	perSpan := time.Since(t0) / n
	var ms runtime.MemStats
	t0 = time.Now()
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&ms)
	}
	perRead := time.Since(t0) / 10
	cost := time.Duration(len(t.spans))*perSpan + time.Duration(t.memReads)*perRead
	return float64(cost) / float64(tracedWall)
}

// finishTrace writes the span file, checks nesting, and fills the
// metrics every traced run shares.
func finishTrace(cfg runConfig, res *result, t *tracer, tracedWall time.Duration) {
	if err := wellNested(t.spans); err != nil {
		res.problem("spans: %v", err)
	}
	path := filepath.Join(cfg.OutDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
	if err := t.write(path); err != nil {
		res.problem("writing spans: %v", err)
	}
	res.Header["spans_file"] = path
	res.set("trace.spans_total", float64(len(t.spans)), "count")
	res.set("trace.overhead_frac", t.overheadFrac(tracedWall), "ratio")
}

// zeroUnset gives every per-layer metric the workload did not produce the
// value 0: the layer did no work here.
func zeroUnset(res *result) {
	for _, m := range perLayerMetrics {
		if _, ok := res.Metrics[m.Name]; !ok {
			res.set(m.Name, 0, m.Unit)
		}
	}
}

func runTraced(cfg runConfig, res *result) error {
	var err error
	switch cfg.Workload {
	case "replay-pairs", "replay-updates", "wire-durable":
		err = traceIngest(cfg, res)
	case "serve-hot", "routed-k2":
		err = traceServeIdle(cfg, res)
	case "serve-ingest":
		err = traceServeIngest(cfg, res)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err != nil {
		return err
	}
	zeroUnset(res)
	return nil
}
