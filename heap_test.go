package rrr_test

import (
	"runtime"
	"testing"

	"rrr"
	"rrr/internal/experiments"
)

// TestTrackHeapPerPair is the ratchet on what tracking a pair keeps: a
// Monitor primed from the QuickScale table dump tracks the simulated
// corpus of 120 probes and 30 anchors (2 234 pairs), and the live heap
// after a full collection grows by at most trackHeapBudget bytes per
// tracked pair. The figure is the same on every run of a tree (1 548 to
// 1 551 B at GOMAXPROCS 1 to 4, under the race detector too), and the
// budget sits 5 % above it. With a Registration slice per pair in a map, a
// private copy of every AS-path series' fold cells and a border slice per
// trace watcher, tracking kept 3 742 B per pair here; with each series'
// detector allocated on its own, every border path and burst extras list
// append-grown and each entry keeping its unread AS-hop list, 1 829 B.
func TestTrackHeapPerPair(t *testing.T) {
	const trackHeapBudget = 1628

	sc := experiments.QuickScale()
	sc.PlatCfg.NumProbes, sc.PlatCfg.NumAnchors = 120, 30
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
	for _, u := range env.Dump {
		mon.ObserveBGP(u)
	}
	before := liveHeap()
	for _, tr := range env.Corpus {
		_ = mon.Track(tr) // AS-loop traces are rejected by design
	}
	after := liveHeap()
	runtime.KeepAlive(env)
	pairs := mon.Counts().Tracked
	if pairs < 100 {
		t.Fatalf("tracked %d pairs; the corpus is too small to measure", pairs)
	}
	perPair := float64(int64(after)-int64(before)) / float64(pairs)
	t.Logf("%d pairs, %.0f B of live heap per tracked pair (budget %d)", pairs, perPair, trackHeapBudget)
	if perPair > trackHeapBudget {
		t.Errorf("tracking keeps %.0f B per pair, budget %d", perPair, trackHeapBudget)
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
