package rrr_test

import (
	"io"
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
// simulator updates through ObserveBGP / ObservePublic / CloseWindow. Every
// malloc in the process over the measured windows is charged to the records
// ingested in them. With cloned traces, unbounded detectors and per-trace
// maps this read 23.26; on engine-owned scratch 0.63 (signals, buffered
// series still growing, the close goroutines); with the RIB's value tables
// and a detector tap that no longer compacts every path 0.59; with a close
// that starts no goroutines it reads 0.51, and the budget is 1.5x that, so
// a per-record or per-quiet-monitor allocation cannot creep back between
// benchmark runs.
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

	// The pipeline's merge order: by timestamp, updates first on ties.
	records := 0
	window := func(w int) {
		limit := int64(w+1) * sc.WindowSec
		for {
			haveU := len(ups) > 0 && ups[0].Time < limit
			haveT := len(trs) > 0 && trs[0].Time < limit
			switch {
			case haveU && (!haveT || ups[0].Time <= trs[0].Time):
				det.TapUpdate(ups[0])
				mon.ObserveBGP(ups[0])
				ups = ups[1:]
			case haveT:
				det.TapTrace(trs[0])
				mon.ObservePublic(trs[0])
				trs = trs[1:]
			default:
				ws := int64(w) * sc.WindowSec
				mon.CloseWindow(ws)
				det.TapWindowClose(ws)
				return
			}
			records++
		}
	}
	for w := 0; w < warmup; w++ {
		window(w)
	}
	records = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for w := warmup; w < warmup+measured; w++ {
		window(w)
	}
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
