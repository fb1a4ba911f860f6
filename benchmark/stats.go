package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// percentile reads the p-th percentile (0 < p < 1) off samples sorted
// ascending. It refuses a percentile with fewer than minTail samples
// beyond it: the p95 of forty samples is two numbers, not a distribution.
func percentile(sorted []float64, p float64, minTail int) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile %.2f of no samples", p)
	}
	i := int(p * float64(n-1))
	if beyond := n - 1 - i; beyond < minTail {
		return 0, fmt.Errorf("percentile %.2f of %d samples has %d beyond it, want >= %d", p, n, beyond, minTail)
	}
	return sorted[i], nil
}

// dist is a sample set reduced to what the benchmark reports.
type dist struct {
	N                  int
	P50, P90, P95, P99 float64
}

// summarize sorts samples in place and reads p50/p90/p95/p99. p99 is
// optional (0 when the sample cannot support it); the others are not.
func summarize(samples []float64, minTail int) (dist, error) {
	sort.Float64s(samples)
	d := dist{N: len(samples)}
	var err error
	if d.P50, err = percentile(samples, 0.50, minTail); err != nil {
		return d, err
	}
	if d.P90, err = percentile(samples, 0.90, minTail); err != nil {
		return d, err
	}
	if d.P95, err = percentile(samples, 0.95, minTail); err != nil {
		return d, err
	}
	d.P99, _ = percentile(samples, 0.99, minTail)
	return d, nil
}

func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcCPUSeconds is the runtime's estimate of CPU spent in the collector
// (mark assists, background workers, pauses) so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// heapAfterGC is the live heap once a full collection has run.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// phase brackets one timed phase: wall clock, CPU, allocation and GC
// deltas, read once at each end and never inside.
type phase struct {
	start time.Time
	cpu0  time.Duration
	gc0   float64
	ms0   runtime.MemStats

	Wall       time.Duration
	CPU        time.Duration
	Mallocs    uint64
	AllocBytes uint64
	GCCPUFrac  float64
	GCPauseMs  []float64
}

// beginPhase collects garbage first so a phase does not pay for its
// predecessor's allocations.
func beginPhase() *phase {
	runtime.GC()
	p := &phase{}
	runtime.ReadMemStats(&p.ms0)
	p.cpu0 = cpuTime()
	p.gc0 = gcCPUSeconds()
	p.start = time.Now()
	return p
}

func (p *phase) end() {
	p.Wall = time.Since(p.start)
	p.CPU = cpuTime() - p.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.Mallocs = ms.Mallocs - p.ms0.Mallocs
	p.AllocBytes = ms.TotalAlloc - p.ms0.TotalAlloc
	if p.CPU > 0 {
		p.GCCPUFrac = (gcCPUSeconds() - p.gc0) / p.CPU.Seconds()
	}
	n := ms.NumGC - p.ms0.NumGC
	if n > uint32(len(ms.PauseNs)) {
		n = uint32(len(ms.PauseNs))
	}
	for i := uint32(0); i < n; i++ {
		p.GCPauseMs = append(p.GCPauseMs, float64(ms.PauseNs[(ms.NumGC-1-i)%uint32(len(ms.PauseNs))])/1e6)
	}
	sort.Float64s(p.GCPauseMs)
}

// gcPauseP95 is the phase's p95 stop-the-world pause, or its longest when
// there were too few collections for a p95.
func (p *phase) gcPauseP95() float64 {
	if len(p.GCPauseMs) == 0 {
		return 0
	}
	if v, err := percentile(p.GCPauseMs, 0.95, 10); err == nil {
		return v
	}
	return p.GCPauseMs[len(p.GCPauseMs)-1]
}

// fsType names the filesystem holding dir, which decides what an fsync
// costs.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) & 0xffffffff {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type)&0xffffffff)
}

// gitSHA resolves HEAD by reading .git directly (the driver's checkout is
// not a repository; "unknown" is the expected answer there).
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(s, "ref: ")
	if !ok {
		return s
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// finite guards a metric before it is printed.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
