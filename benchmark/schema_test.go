package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json declares exactly the workloads and metrics the program
// knows, in the same order, with the same units and bounds.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d is %q (why: %q), want %q with a reason", i, w.Name, w.Why, workloadNames[i])
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range b.EndToEnd {
		if want := endToEndMetrics[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end-to-end metric %d is %+v, want %+v", i, m, want)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range b.PerLayer {
		if want := perLayerMetrics[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer metric %d is %+v, want %+v", i, m, want)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
}

// Every workload, end to end and traced, at the tiny size: the result
// carries exactly the declared metrics with their units, finite, the
// end-to-end ones non-zero; nothing failed; the span file is well nested.
func TestEveryWorkloadProducesTheDeclaredMetrics(t *testing.T) {
	out := t.TempDir()
	for _, trace := range []bool{false, true} {
		want := endToEndMetrics
		if trace {
			want = perLayerMetrics
		}
		for _, w := range workloadNames {
			cfg := tinyConfig(5)
			cfg.Workload, cfg.Trace, cfg.OutDir, cfg.Root = w, trace, out, ".."
			res, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v", w, trace, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: no %s", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s is in %q, want %q", w, trace, m.Name, got.Unit, m.Unit)
				case !finite(got.Value), !trace && got.Value <= 0:
					t.Errorf("%s trace=%v: %s = %v", w, trace, m.Name, got.Value)
				}
			}
			for _, key := range []string{"nproc", "gomaxprocs", "go", "git", "seed", "size", "scratch_fs"} {
				if _, ok := res.Header[key]; !ok {
					t.Errorf("%s trace=%v: run header lacks %q", w, trace, key)
				}
			}
			if !trace {
				continue
			}
			spans := readSpans(t, res.Header["spans_file"].(string))
			if len(spans) == 0 {
				t.Errorf("%s: the traced run wrote no spans", w)
			}
			if err := wellNested(spans); err != nil {
				t.Errorf("%s: %v", w, err)
			}
		}
	}
}

// The seed reaches the generated inputs and nothing else: two seeds give
// two input digests under one identical configuration.
func TestSeedOnlyMovesTheInputs(t *testing.T) {
	var headers [2]map[string]any
	for i := range headers {
		cfg := tinyConfig(int64(11 + i))
		cfg.Workload, cfg.OutDir, cfg.Root = "replay-updates", t.TempDir(), ".."
		res, err := execute(cfg)
		if err != nil {
			t.Fatal(err)
		}
		headers[i] = res.Header
	}
	if headers[0]["input_sha256"] == headers[1]["input_sha256"] {
		t.Fatal("two seeds, one input")
	}
	for k, v := range headers[0] {
		switch k {
		case "seed", "input_sha256", "started":
		default:
			a, _ := json.Marshal(v)
			b, _ := json.Marshal(headers[1][k])
			if string(a) != string(b) {
				t.Errorf("header %q differs between seeds: %s vs %s", k, a, b)
			}
		}
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	return spans
}
