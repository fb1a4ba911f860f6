// Command benchmark is the repository's benchmark: six workloads over
// pre-generated, seed-derived inputs, each run either end to end
// (-trace 0: feed record in, verdict bytes out / signal on SSE) or as a
// traced serial pass that times the calls into each module
// (-trace 1). BENCHMARK.json at the repository root names the workloads
// and metrics; README.md in this directory defines them.
//
//	bash benchmark/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloadNames is the stable workload list, in BENCHMARK.json order.
var workloadNames = []string{"replay-pairs", "replay-updates", "wire-durable", "serve-hot", "serve-ingest", "routed-k2"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is one invocation.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Size     sizes
	// OutDir receives span files, run records and scratch state (WAL
	// segments); it is inside the checkout and git-ignored.
	OutDir string
	Root   string
}

// result is what one run hands back to main (and to the schema test).
type result struct {
	Header    map[string]any    `json:"header"`
	Metrics   map[string]metric `json:"metrics"`
	Detail    map[string]metric `json:"detail,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Problems  []string          `json:"problems,omitempty"`
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) detail(name string, v float64, unit string) {
	r.Detail[name] = metric{Value: v, Unit: unit}
}

// execute runs one workload and finishes its result: header, metric
// sanity, correctness verdict.
func execute(cfg runConfig) (*result, error) {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}, Detail: map[string]metric{}}
	res.Header = map[string]any{
		"workload": cfg.Workload, "seed": cfg.Seed, "seconds": cfg.Seconds, "trace": cfg.Trace,
		"size": cfg.Size, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "git": gitSHA(cfg.Root),
		"scratch_fs": fsType(cfg.OutDir), "started": time.Now().UTC().Format(time.RFC3339),
	}
	var err error
	switch {
	case cfg.Trace:
		err = runTraced(cfg, res)
	default:
		err = runEndToEnd(cfg, res)
	}
	if err != nil {
		return nil, err
	}
	want := endToEndMetrics
	if cfg.Trace {
		want = perLayerMetrics
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			res.problem("metric %s was not produced", m.Name)
		case !finite(got.Value):
			res.problem("metric %s is not finite", m.Name)
		case !cfg.Trace && got.Value <= 0:
			res.problem("end-to-end metric %s is %v, want > 0", m.Name, got.Value)
		}
	}
	for name := range res.Metrics {
		if !want.has(name) {
			res.problem("metric %s is not declared", name)
		}
	}
	if res.Attempted < 1 {
		res.problem("nothing was attempted")
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "one of "+fmt.Sprint(workloadNames))
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed; only the generated inputs depend on it")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, 1: per-layer metrics from the traced pass")
	flag.Parse()
	cfg.Trace = trace != 0
	cfg.Root, _ = os.Getwd()
	// One size and one output directory: every run the driver compares is
	// over the same inputs. tinySizes is reachable from the tests only.
	cfg.Size = midSizes()
	cfg.OutDir = filepath.Join("benchmark", "out")
	known := false
	for _, n := range workloadNames {
		known = known || n == cfg.Workload
	}
	if !known || cfg.Seconds <= 0 {
		fatal(fmt.Errorf("want -workload one of %v and -seconds > 0", workloadNames))
	}

	res, err := execute(cfg)
	if err != nil {
		fatal(err)
	}
	printResult(os.Stdout, cfg, res)
	if !res.Correct {
		for _, p := range res.Problems {
			fmt.Fprintln(os.Stderr, "benchmark: incorrect:", p)
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printResult writes the run header, a readable table of every metric
// with its unit, and — as the last line — the one JSON object the driver
// reads. The full record also goes to OutDir.
func printResult(w io.Writer, cfg runConfig, res *result) {
	hdr, _ := json.Marshal(res.Header)
	fmt.Fprintf(w, "# %s\n", hdr)
	table := func(title string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		if len(names) > 0 {
			fmt.Fprintf(w, "# %s\n", title)
		}
		for _, n := range names {
			fmt.Fprintf(w, "%-40s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
	table("metrics", res.Metrics)
	table("this workload's own figures", res.Detail)

	if full, err := json.MarshalIndent(res, "", "  "); err == nil {
		name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.Workload, cfg.Seed, b2i(cfg.Trace))
		_ = os.WriteFile(filepath.Join(cfg.OutDir, name), append(full, '\n'), 0o644)
	}
	last, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Fprintf(w, "%s\n", last)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
