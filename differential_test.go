package rrr

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/faultfeed"
)

// diffResult captures everything observable about one pipeline run: the
// exact signal stream plus the monitor's final queryable state.
type diffResult struct {
	sigs   []Signal
	stale  []Key
	counts Counts
}

// diffWorkload builds the differential feed: two VPs announcing every
// window for 50 windows with an AS-path shift at 45, a revert at 48 (so
// revocation state is exercised), a three-repeat duplicate burst at 47, and
// a public trace per window. Timestamps are strictly increasing per feed,
// which makes every record unique — so adjacent-dedup can only ever remove
// injected transport duplicates, never protocol-level BGP duplicates.
func diffWorkload(t *testing.T) ([]Update, []*Traceroute) {
	t.Helper()
	var ups []Update
	for w := int64(1); w <= 50; w++ {
		ups = append(ups, announceUpd(t, w*900+3, "6.0.0.9", 6, "4.0.0.0/8", []ASN{6, 3, 4}))
		path := []ASN{5, 2, 3, 4}
		if w >= 45 && w < 48 {
			path = []ASN{5, 2, 9, 4}
		}
		ups = append(ups, announceUpd(t, w*900+7, "5.0.0.9", 5, "4.0.0.0/8", path))
		if w == 47 {
			// Protocol-level duplicate burst: repeats at distinct times.
			for rep := int64(1); rep <= 3; rep++ {
				ups = append(ups, announceUpd(t, w*900+7+rep*20, "5.0.0.9", 5, "4.0.0.0/8", path))
				ups = append(ups, announceUpd(t, w*900+13+rep*20, "6.0.0.9", 6, "4.0.0.0/8", []ASN{6, 3, 4}))
			}
		}
	}
	var pubs []*Traceroute
	for w := int64(1); w <= 50; w++ {
		pubs = append(pubs, trace(t, w*900+11, "9.0.0.1", "4.0.0.8",
			"9.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.2", "4.0.0.8"))
	}
	return ups, pubs
}

// runDifferential drives one pipeline run. With faults set, both feeds are
// wrapped in seeded duplicating injectors (a non-lossy schedule) and the
// pipeline's adjacent dedup is enabled.
func runDifferential(t *testing.T, faults *faultfeed.Config) diffResult {
	t.Helper()
	aliases := bordermap.OracleFunc(func(v uint32) (int, bool) { return int(v), true })
	m, err := NewMonitor(Options{
		Mapper: facadeMapper{}, Aliases: aliases,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	m.ObserveBGP(announceUpd(t, 0, "6.0.0.9", 6, "4.0.0.0/8", []ASN{6, 3, 4}))
	for i := 1; i <= 6; i++ {
		tr := trace(t, 0, fmt.Sprintf("1.0.0.%d", i), fmt.Sprintf("4.0.0.%d", 100+i),
			fmt.Sprintf("1.0.0.%d", 50+i), "2.0.0.1", "3.0.0.1", "4.0.0.2", fmt.Sprintf("4.0.0.%d", 100+i))
		if err := m.Track(tr); err != nil {
			t.Fatal(err)
		}
	}

	ups, pubs := diffWorkload(t)
	cfg := PipelineConfig{
		Updates: bgp.NewSliceSource(ups),
		Traces:  NewTraceSliceSource(pubs),
	}
	if faults != nil {
		fu, ft := *faults, *faults
		ft.Seed++ // independent schedule per feed
		cfg.Updates = faultfeed.Updates(cfg.Updates, fu)
		cfg.Traces = faultfeed.Traces(cfg.Traces, ft)
		cfg.DedupAdjacent = true
	}
	var res diffResult
	cfg.Sink = func(s Signal) { res.sigs = append(res.sigs, s) }
	if err := RunPipeline(context.Background(), m, cfg); err != nil {
		t.Fatal(err)
	}
	res.stale = m.StaleKeys()
	res.counts = m.Counts()
	return res
}

func (r diffResult) assertEqual(t *testing.T, name string, want diffResult) {
	t.Helper()
	if !reflect.DeepEqual(r.sigs, want.sigs) {
		t.Fatalf("%s: signal stream diverges:\n got  %v\n want %v", name, r.sigs, want.sigs)
	}
	if !reflect.DeepEqual(r.stale, want.stale) {
		t.Fatalf("%s: stale set = %v, want %v", name, r.stale, want.stale)
	}
	if !reflect.DeepEqual(r.counts, want.counts) {
		t.Fatalf("%s: counts = %+v, want %+v", name, r.counts, want.counts)
	}
}

// TestPipelineDifferentialFaultAbsorption is the end-to-end differential
// guarantee: under a seeded non-lossy fault schedule (adjacent transport
// redelivery) the pipeline's adjacent dedup makes the run byte-identical to
// the fault-free run — same signal stream, same final monitor state. Any
// divergence means a fault leaked into the engine.
func TestPipelineDifferentialFaultAbsorption(t *testing.T) {
	faults := &faultfeed.Config{Seed: 41, DupProb: 0.3}

	clean := runDifferential(t, nil)
	if len(clean.sigs) == 0 {
		t.Fatal("clean baseline produced no signals; differential check is vacuous")
	}
	hasASPath := false
	for _, s := range clean.sigs {
		if s.Technique == TechBGPASPath {
			hasASPath = true
		}
	}
	if !hasASPath {
		t.Fatal("workload produced no AS-path signals; differential check is weak")
	}

	// The subtest keeps the name the serial reference run has always had.
	t.Run("shards=1", func(t *testing.T) {
		runDifferential(t, nil).assertEqual(t, "clean run", clean)
		dupsBefore := metFeedBGP.dups.Value() + metFeedTrace.dups.Value()
		runDifferential(t, faults).assertEqual(t, "faulted run", clean)
		if metFeedBGP.dups.Value()+metFeedTrace.dups.Value() == dupsBefore {
			t.Fatal("no injected duplicate reached the dedup stage; differential check is vacuous")
		}
	})
}
