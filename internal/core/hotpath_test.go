package core

import (
	"math/rand"
	"reflect"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
)

// TestReregisterDoesNotLeakCommMonitors: a daemon that refreshes its corpus
// re-registers pairs for as long as it runs. Each refresh used to leave the
// pair's previous community monitor, marked dead, on every commByVP list it
// was indexed under, for processCommEvents to walk on every community event.
func TestReregisterDoesNotLeakCommMonitors(t *testing.T) {
	commChange := func(te *testEnv, end int64) []Signal {
		te.e.ObserveBGP(announce(t, end+5, "6.0.0.9", 6, "4.0.0.0/8",
			bgp.Path{6, 3, 4}, bgp.Communities{bgp.MakeCommunity(3, 51000)}))
		return te.e.CloseWindow(end)
	}

	control := newEnv(t)
	control.primeVPs(t)
	control.standardEntry(t)
	want := commChange(control, control.warm(t, 0, 2))

	te := newEnv(t)
	te.primeVPs(t)
	en := te.standardEntry(t)
	for i := 0; i < 1000; i++ {
		te.e.Reregister(en)
	}
	s := te.e.shardOf(en.Key)
	if len(s.commByVP) != 2 {
		t.Fatalf("community monitors indexed under %d (VP, prefix) pairs, want the pair's 2", len(s.commByVP))
	}
	for pf, list := range s.commByVP {
		if len(list) != 1 {
			t.Errorf("commByVP[%v] holds %d monitors after 1000 re-registrations, want 1", pf, len(list))
		}
	}
	got := commChange(te, te.warm(t, 0, 2))
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("community change after re-registration churn:\n got  %v\n want %v", got, want)
	}

	te.e.RemovePair(en.Key)
	if len(s.commByVP) != 0 {
		t.Fatalf("a removed pair is still indexed under %d (VP, prefix) pairs", len(s.commByVP))
	}
}

// TestMidWindowRegistrationSeesEarlierUpdates: monitors read the window's
// updates through fold cells that observeBGPChange links on first touch, so
// a cell created (or a pair re-registered) after the touch must pick the
// window's state up at registration.
func TestMidWindowRegistrationSeesEarlierUpdates(t *testing.T) {
	dups := func(te *testEnv, end int64) {
		te.e.ObserveBGP(announce(t, end+1, "5.0.0.9", 5, "4.0.0.0/8", bgp.Path{5, 2, 3, 4}, nil))
		te.e.ObserveBGP(announce(t, end+2, "6.0.0.9", 6, "4.0.0.0/8", bgp.Path{6, 3, 4}, nil))
	}

	// Re-registered after the window's duplicate burst: the warmed-up burst
	// detector must count it exactly as if the pair had never been touched.
	control := newEnv(t)
	control.primeVPs(t)
	control.standardEntry(t)
	end := control.warm(t, 0, 45)
	dups(control, end)
	want := control.e.CloseWindow(end)

	te := newEnv(t)
	te.primeVPs(t)
	en := te.standardEntry(t)
	te.warm(t, 0, 45)
	dups(te, end)
	te.e.Reregister(en)
	got := te.e.CloseWindow(end)
	burst := false
	for _, s := range want {
		burst = burst || s.Technique == TechBGPBurst
	}
	if !burst || !reflect.DeepEqual(got, want) {
		t.Fatalf("burst before a mid-window re-registration:\n got  %v\n want %v (with a burst signal)", got, want)
	}

	// First registered after the burst: the cells are created with the
	// window's state already linked, and the shard knows its window is not
	// quiet.
	fresh := newEnv(t)
	fresh.primeVPs(t)
	dups(fresh, 0)
	en = fresh.standardEntry(t)
	s := fresh.e.shardOf(en.Key)
	if !s.winDirty {
		t.Error("shard not marked dirty by a registration over already-touched pairs")
	}
	slots := 0
	for _, bm := range s.bursts {
		for i := range bm.slots {
			slots++
			if st := bm.slots[i].cell.win; st == nil || !st.dup {
				t.Errorf("burst slot %v does not see the window's earlier duplicate", bm.slots[i].cell.pf)
			}
		}
	}
	if slots == 0 {
		t.Fatal("no burst slots registered")
	}
	fresh.e.CloseWindow(0)
	for _, c := range fresh.e.sh.cells {
		if c.win != nil {
			t.Errorf("cell %v still linked after the window closed", c.pf)
		}
	}
	if s.winDirty {
		t.Error("shard still dirty after its close")
	}
}

// TestFoldCellsOnlyForWatchedPairs: the storm workloads divide their heap
// by a few dozen pairs while the feed touches the whole table, so nothing
// per-(VP, prefix) may be created by an update.
func TestFoldCellsOnlyForWatchedPairs(t *testing.T) {
	te := newEnv(t)
	te.primeVPs(t)
	te.standardEntry(t)
	te.e.CloseWindow(0)
	watched := len(te.e.sh.cells)
	if watched != 2 {
		t.Fatalf("%d fold cells for a pair watched through 2 VPs", watched)
	}
	for i := 0; i < 1000; i++ {
		te.e.ObserveBGP(bgp.Update{
			Time: 905, PeerIP: mustIP(t, "5.0.0.9"), PeerAS: 5, Type: bgp.Announce,
			Prefix: pfx(t, "77.0.0.0/8"), ASPath: bgp.Path{5, bgp.ASN(100 + i), 77},
		})
		te.e.ObserveBGP(bgp.Update{
			Time: 905, PeerIP: uint32(50+i%100)<<24 | 9, PeerAS: bgp.ASN(50 + i%100), Type: bgp.Announce,
			Prefix: pfx(t, "4.0.0.0/8"), ASPath: bgp.Path{bgp.ASN(50 + i%100), 3, 4},
		})
	}
	if got := len(te.e.sh.cells); got != watched {
		t.Fatalf("fold cells grew from %d to %d on updates no monitor watches", watched, got)
	}
	if got := len(te.e.sh.touched); got != 0 {
		t.Fatalf("%d cells linked by updates no monitor watches", got)
	}
	te.e.CloseWindow(900)
}

// TestQuietCloseAllocs is the allocation budget of a window in which
// nothing happened, at 2000 pairs: what is left is per window and per
// shard (result slices, the close goroutines), never per monitor. The
// unbounded detectors read 2106 here.
func TestQuietCloseAllocs(t *testing.T) {
	for _, shards := range []int{1, 2} {
		e := benchEnv(t, shards, 2000)
		ws := int64(0)
		for ; ws < 30*900; ws += 900 {
			e.CloseWindow(ws)
		}
		per := testing.AllocsPerRun(50, func() {
			e.CloseWindow(ws)
			ws += 900
		})
		t.Logf("shards=%d: %.0f allocations per quiet window", shards, per)
		if per > 16 {
			t.Errorf("shards=%d: %.0f allocations per quiet window over 2000 pairs, budget 16", shards, per)
		}
	}
}

// TestObserveTraceAllocs is the allocation budget of one public traceroute
// in steady state: the patched hops, the IP path and the border path live
// in engine-owned scratch. The cloning path read 9.
func TestObserveTraceAllocs(t *testing.T) {
	e := benchEnv(t, 1, 500)
	traces := benchTraces()
	for i := 0; i < 4*len(traces); i++ {
		e.ObservePublicTrace(traces[i%len(traces)])
	}
	i := 0
	per := testing.AllocsPerRun(2000, func() {
		e.ObservePublicTrace(traces[i%len(traces)])
		i++
	})
	t.Logf("%.2f allocations per public traceroute", per)
	if per > 2 {
		t.Errorf("%.2f allocations per public traceroute, budget 2", per)
	}
}

// benchTraces is the public feed of the trace benches: 64 traceroutes from
// outside the corpus crossing the corpus pairs' borders.
func benchTraces() []*traceroute.Traceroute {
	rng := rand.New(rand.NewSource(1))
	traces := make([]*traceroute.Traceroute, 64)
	for i := range traces {
		tr := &traceroute.Traceroute{
			Src:  9<<24 | uint32(rng.Intn(1000)+1),
			Dst:  4<<24 | uint32(rng.Intn(100)+0xd000),
			Time: int64(i) * 10,
		}
		for h, ip := range []uint32{9<<24 | 2, 2<<24 | 1, 3<<24 | 1, 4<<24 | 2} {
			tr.Hops = append(tr.Hops, traceroute.Hop{TTL: h + 1, IP: ip})
		}
		traces[i] = tr
	}
	return traces
}
