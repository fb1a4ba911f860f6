package obs

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := newRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	// Same name + labels returns the same series.
	if r.Counter("x_total") != c {
		t.Fatal("counter handle not shared")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d", g.Value())
	}
}

func TestLabelCanonicalization(t *testing.T) {
	r := newRegistry()
	a := r.Counter("s_total", "b", "2", "a", "1")
	b := r.Counter("s_total", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order changed series identity")
	}
	snap := r.Snapshot()
	if _, ok := snap[`s_total{a="1",b="2"}`]; !ok {
		t.Fatalf("canonical name missing: %v", snap)
	}
	// Escaping.
	r.Counter("esc_total", "k", "a\"b\\c\nd").Inc()
	var buf bytes.Buffer
	if err := r.writePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `esc_total{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping wrong:\n%s", buf.String())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := newRegistry()
	r.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r.Gauge("dual")
}

func TestHistogram(t *testing.T) {
	r := newRegistry()
	h := r.Histogram("lat_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got != 56.05 {
		t.Fatalf("sum = %v", got)
	}
	snap := r.Snapshot()
	want := map[string]float64{
		`lat_seconds_bucket{le="0.1"}`:  1,
		`lat_seconds_bucket{le="1"}`:    3,
		`lat_seconds_bucket{le="10"}`:   4,
		`lat_seconds_bucket{le="+Inf"}`: 5,
		`lat_seconds_count`:             5,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Fatalf("%s = %v, want %v (snap %v)", k, snap[k], v, snap)
		}
	}
}

// promLine matches the two shapes a non-comment exposition line can take.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (\+Inf|-?[0-9.e+-]+)$`)

func checkExposition(t *testing.T, text string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := newRegistry()
	r.Counter("a_total", "k", "v").Add(3)
	r.Help("a_total", "a help string")
	r.Gauge("b").Set(-2)
	r.Histogram("c_seconds", nil).Observe(0.2)
	var buf bytes.Buffer
	if err := r.writePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	checkExposition(t, out)
	for _, want := range []string{
		"# HELP a_total a help string",
		"# TYPE a_total counter",
		`a_total{k="v"} 3`,
		"# TYPE b gauge",
		"b -2",
		"# TYPE c_seconds histogram",
		`c_seconds_bucket{le="+Inf"} 1`,
		"c_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic output.
	var buf2 bytes.Buffer
	if err := r.writePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if out != buf2.String() {
		t.Fatal("exposition not deterministic")
	}
}

func TestTimer(t *testing.T) {
	r := newRegistry()
	h := r.Histogram("t_seconds", nil)
	tm := NewTimer(h)
	time.Sleep(time.Millisecond)
	if d := tm.Stop(); d <= 0 {
		t.Fatalf("elapsed = %v", d)
	}
	if h.Count() != 1 || h.Sum() <= 0 {
		t.Fatalf("histogram not fed: count=%d sum=%v", h.Count(), h.Sum())
	}
	// nil-histogram timer just measures.
	if d := NewTimer(nil).Stop(); d < 0 {
		t.Fatalf("nil timer elapsed = %v", d)
	}
}

// TestConcurrentScrape proves the registry is race-clean: writers on
// every series kind while scrapers render and snapshot. Run with -race.
func TestConcurrentScrape(t *testing.T) {
	r := newRegistry()
	c := r.Counter("w_total")
	g := r.Gauge("w_depth")
	h := r.Histogram("w_seconds", nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 2000; n++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(0.01)
				// Creating series concurrently must also be safe.
				r.Counter("w_dyn_total", "i", string(rune('a'+i))).Inc()
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.writePrometheus(&buf); err != nil {
			t.Error(err)
		}
		checkExposition(t, buf.String())
		_ = r.Snapshot()
	}
	wg.Wait()
	if c.Value() == 0 {
		t.Fatal("no writes observed")
	}
	// Bucket cumulation must be consistent once writers stop.
	snap := r.Snapshot()
	if snap[`w_seconds_bucket{le="+Inf"}`] != snap["w_seconds_count"] {
		t.Fatalf("+Inf bucket %v != count %v",
			snap[`w_seconds_bucket{le="+Inf"}`], snap["w_seconds_count"])
	}
}
