package rrr_test

import (
	"io"
	"math"
	"runtime"
	"testing"

	"rrr"
	"rrr/internal/events"
	"rrr/internal/experiments"
)

// TestIngestAllocs is the allocation budget of the steady-state ingest
// path: a Monitor primed from the QuickScale table dump and tracking its
// corpus, with the routing-event detector tapping every record, takes 8
// windows of warm-up and then 24 measured windows of public traceroutes and
// simulator updates through the pipeline's own ingest step: updates a run
// at a time, traces one by one, windows closed by the clock. Every malloc
// in the process over the measured windows is charged to the records
// ingested in them. With cloned traces, unbounded detectors and per-trace
// maps this read 23.26; on engine-owned scratch 0.63 (signals, buffered
// series still growing, the close goroutines); with the RIB's value tables
// and a detector tap that no longer compacts every path 0.59; with a close
// that starts no goroutines it reads 0.51, and the budget is 1.5x that, so
// a per-record or per-quiet-monitor allocation cannot creep back between
// benchmark runs. It reads 0.54 both record by record and a run at a time:
// a run reuses the engine's change scratch.
func TestIngestAllocs(t *testing.T) {
	const warmup, measured, budget = 8, 24, 0.77

	sc := experiments.QuickScale()
	env := experiments.NewDaemonEnv(sc, 0)
	cfg := rrr.DefaultConfig()
	cfg.WindowSec = sc.WindowSec
	mon, err := rrr.NewMonitor(rrr.Options{
		Config: cfg, Mapper: env.Mapper, Aliases: env.Aliases,
		Geo: env.Geo, Rel: env.Rel, IXPMembers: env.IXPMembers,
	})
	if err != nil {
		t.Fatal(err)
	}
	det := events.NewDetector(events.Config{})
	for _, u := range env.Dump {
		mon.ObserveBGP(u)
		det.Prime(u)
	}
	for _, tr := range env.Corpus {
		_ = mon.Track(tr) // AS-loop traces are rejected by design
	}

	// Record the feed first: the simulator allocates while it generates.
	end := int64(warmup+measured) * sc.WindowSec
	var ups []rrr.Update
	for {
		u, err := env.Updates.Read()
		if err == io.EOF || u.Time >= end {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ups = append(ups, u)
	}
	var trs []*rrr.Traceroute
	for {
		tr, err := env.Traces.Read()
		if err == io.EOF || tr.Time >= end {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
	}

	// The pipeline's ingest step in its merge order: by timestamp, updates
	// first on ties, the updates before the next trace a run at a time out
	// of hand-off batches of at most HandoffCap. Windows close as the next
	// one's first record arrives.
	step := rrr.NewIngestStep(mon, det)
	records := 0
	feed := func(end int64) {
		for {
			haveU := len(ups) > 0 && ups[0].Time < end
			haveT := len(trs) > 0 && trs[0].Time < end
			switch {
			case haveU && (!haveT || ups[0].Time <= trs[0].Time):
				until := int64(math.MaxInt64)
				if len(trs) > 0 {
					until = trs[0].Time
				}
				n := step.Update(ups[:min(len(ups), rrr.HandoffCap)], until)
				ups = ups[n:]
				records += n
			case haveT:
				step.Trace(trs[0])
				trs = trs[1:]
				records++
			default:
				return
			}
		}
	}
	feed(warmup * sc.WindowSec)
	records = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	feed((warmup + measured) * sc.WindowSec)
	runtime.ReadMemStats(&after)
	if records < 1000 {
		t.Fatalf("only %d records in %d windows: the feed is not what this test was sized for", records, measured)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(records)
	t.Logf("%.2f allocations per ingested record (%d records, %d windows, %d pairs)",
		per, records, measured, len(mon.Tracked()))
	if per > budget {
		t.Fatalf("%.2f allocations per ingested record, budget %.2f", per, budget)
	}
}
