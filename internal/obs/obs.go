// Package obs is rrr's observability substrate: a small, dependency-free
// metrics registry (atomic counters, gauges, and fixed-bucket histograms)
// with Prometheus text-format exposition and a Snapshot for embedding
// metric values in bench reports.
//
// Design constraints, in order:
//
//  1. Hot-path cost. Metric handles are resolved once (package init or
//     construction time); after that an increment is a single atomic op
//     and a histogram observation is a short bounds scan plus three
//     atomics. No locks, maps, or allocation on the ingestion path.
//  2. Race-cleanliness. Every series is safe for concurrent use, and the
//     registry may be scraped while every layer is writing to it.
//  3. No dependencies. The daemon stays a pure-stdlib binary; the text
//     format below is the subset of the Prometheus exposition format that
//     every scraper understands.
//
// The package-level Default registry is what the instrumented layers
// (Pipeline, Monitor, the engine, the serving hub, snapshots)
// write to and what rrrd's GET /metrics serves. Independent registries
// can be created for tests.
package obs

import (
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// defBuckets is the default histogram bucket layout for latencies in
// seconds: 100µs to 10s, roughly logarithmic. Window closes, snapshot
// writes, and merge-loop stalls all land comfortably inside it.
var defBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically-increasing series.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current total.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a series that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat accumulates float64 sums with CAS on the bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-bucket distribution. Bounds are upper bucket
// edges in ascending order; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	count  atomic.Uint64
	sum    atomicFloat
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Timer measures one duration into a histogram (in seconds).
type Timer struct {
	start time.Time
	h     *Histogram
}

// NewTimer starts timing; Stop records into h (nil h just measures).
func NewTimer(h *Histogram) Timer { return Timer{start: time.Now(), h: h} }

// Stop records the elapsed time and returns it.
func (t Timer) Stop() time.Duration {
	d := time.Since(t.start)
	if t.h != nil {
		t.h.Observe(d.Seconds())
	}
	return d
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	// kindUnset marks a family created by Help before any series exists;
	// the first Counter/Gauge/Histogram call claims the kind.
	kindUnset
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family groups the series sharing one metric name (differing only in
// labels), which is what the exposition format's TYPE/HELP header spans.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64
	series  map[string]any // rendered label string -> *Counter | *Gauge | *Histogram
}

// registry holds metric families. Get-or-create calls take a short lock;
// the returned handles are lock-free.
type registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// newRegistry builds an empty registry.
func newRegistry() *registry { return &registry{fams: make(map[string]*family)} }

// Default is the process-wide registry the instrumented layers write to
// and GET /metrics serves.
var Default = newRegistry()

func (r *registry) getOrCreate(name string, kind metricKind, buckets []float64, labels []string) any {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, kind: kind, buckets: buckets, series: make(map[string]any)}
		r.fams[name] = f
	} else if f.kind == kindUnset {
		f.kind, f.buckets = kind, buckets
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	if m, ok := f.series[ls]; ok {
		return m
	}
	var m any
	switch kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	case kindHistogram:
		h := &Histogram{bounds: buckets}
		h.counts = make([]atomic.Uint64, len(buckets)+1)
		m = h
	}
	f.series[ls] = m
	return m
}

// Counter returns (creating if needed) the counter series with the given
// name and label key/value pairs.
func (r *registry) Counter(name string, labels ...string) *Counter {
	return r.getOrCreate(name, kindCounter, nil, labels).(*Counter)
}

// Gauge returns the gauge series with the given name and labels.
func (r *registry) Gauge(name string, labels ...string) *Gauge {
	return r.getOrCreate(name, kindGauge, nil, labels).(*Gauge)
}

// Histogram returns the histogram series with the given name, bucket
// bounds (nil means defBuckets; the family's first registration wins),
// and labels.
func (r *registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if buckets == nil {
		buckets = defBuckets
	}
	return r.getOrCreate(name, kindHistogram, buckets, labels).(*Histogram)
}

// Help sets the family's HELP text (shown in the exposition). Creating
// the family first is not required but typical.
func (r *registry) Help(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.fams[name]; f != nil {
		f.help = help
	} else {
		r.fams[name] = &family{name: name, kind: kindUnset, help: help, series: make(map[string]any)}
	}
}

// renderLabels produces the canonical `{k="v",...}` form, keys sorted so
// the same label set always names the same series.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// withLabel merges one more label (used for histogram `le`) into an
// already-rendered label string.
func withLabel(ls, k, v string) string {
	pair := k + `="` + escapeLabel(v) + `"`
	if ls == "" {
		return "{" + pair + "}"
	}
	return ls[:len(ls)-1] + "," + pair + "}"
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sortedFamilies returns a copy of every family in name order (exposition
// and snapshots are deterministic; series names are stable across runs).
// The copies — series map included — are taken under the lock, so a scrape
// never reads a family while getOrCreate or Help is writing it.
func (r *registry) sortedFamilies() []*family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		c := *f
		c.series = maps.Clone(f.series)
		fams = append(fams, &c)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func sortedSeries(f *family) []string {
	keys := make([]string, 0, len(f.series))
	for ls := range f.series {
		keys = append(keys, ls)
	}
	sort.Strings(keys)
	return keys
}

// writePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4 subset: HELP/TYPE headers, counter/gauge/histogram
// samples). Values read while writers run are individually atomic;
// histogram bucket/count/sum triples are not snapshotted together, which
// scrapers tolerate by design.
func (r *registry) writePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if len(f.series) == 0 {
			continue
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, ls := range sortedSeries(f) {
			m := f.series[ls]
			var err error
			switch v := m.(type) {
			case *Counter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, ls, v.Value())
			case *Gauge:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, ls, v.Value())
			case *Histogram:
				var cum uint64
				for i, b := range v.bounds {
					cum += v.counts[i].Load()
					if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n",
						f.name, withLabel(ls, "le", formatFloat(b)), cum); err != nil {
						return err
					}
				}
				cum += v.counts[len(v.bounds)].Load()
				if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n",
					f.name, withLabel(ls, "le", "+Inf"), cum); err != nil {
					return err
				}
				if _, err = fmt.Fprintf(w, "%s_sum%s %s\n", f.name, ls, formatFloat(v.Sum())); err != nil {
					return err
				}
				_, err = fmt.Fprintf(w, "%s_count%s %d\n", f.name, ls, v.Count())
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot returns every series value keyed by its rendered name
// (histograms expand into _bucket/_sum/_count samples), for embedding in
// bench reports and test assertions.
func (r *registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range r.sortedFamilies() {
		for _, ls := range sortedSeries(f) {
			switch v := f.series[ls].(type) {
			case *Counter:
				out[f.name+ls] = float64(v.Value())
			case *Gauge:
				out[f.name+ls] = float64(v.Value())
			case *Histogram:
				var cum uint64
				for i, b := range v.bounds {
					cum += v.counts[i].Load()
					out[f.name+"_bucket"+withLabel(ls, "le", formatFloat(b))] = float64(cum)
				}
				cum += v.counts[len(v.bounds)].Load()
				out[f.name+"_bucket"+withLabel(ls, "le", "+Inf")] = float64(cum)
				out[f.name+"_sum"+ls] = v.Sum()
				out[f.name+"_count"+ls] = float64(v.Count())
			}
		}
	}
	return out
}

// Handler serves the registry as a Prometheus scrape target.
func (r *registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.writePrometheus(w)
	})
}
