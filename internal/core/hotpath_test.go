package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
)

// TestReregisterDoesNotLeakCommMonitors: a daemon that refreshes its corpus
// re-registers pairs for as long as it runs. Each refresh used to leave the
// pair's previous community monitor, marked dead, on every commByVP list it
// was indexed under, for the close to walk on every community event.
// A series its last subscriber leaves is reclaimed: out of its table and
// the awake list at once, out of the list of all series once half of that
// list is dead, instead of a scan of the whole list per removal. So the
// series tables stay within twice their live size through the churn, and
// are empty once every pair is gone.
func TestReregisterDoesNotLeakCommMonitors(t *testing.T) {
	comm := bgp.Communities{bgp.MakeCommunity(3, 51000)}
	commChange := func(te *testEnv, end int64) []Signal {
		te.e.ObserveBGP(announce(t, end+5, "6.0.0.9", 6, "4.0.0.0/8", bgp.Path{6, 3, 4}, comm))
		return te.e.CloseWindow(end)
	}
	// burst follows the community change with 45 quiet windows and a
	// window in which both VPs repeat their routes.
	burst := func(te *testEnv) []Signal {
		end := te.warm(t, 900, 45)
		te.e.ObserveBGP(announce(t, end+1, "5.0.0.9", 5, "4.0.0.0/8", bgp.Path{5, 2, 3, 4}, nil))
		te.e.ObserveBGP(announce(t, end+2, "6.0.0.9", 6, "4.0.0.0/8", bgp.Path{6, 3, 4}, comm))
		return te.e.CloseWindow(end)
	}

	control := newEnv(t)
	control.primeVPs(t)
	control.standardEntry(t)
	want := commChange(control, control.warm(t, 0, 2))
	wantBurst := burst(control)

	te := newEnv(t)
	te.primeVPs(t)
	en := te.standardEntry(t)
	sh := te.e.sh
	live := seriesHeld(sh)
	for _, name := range []string{"burst list", "AS-path list", "community groups"} {
		if live[name] == 0 {
			t.Fatalf("the pair has no %s entries", name)
		}
	}
	for i := 0; i < 1000; i++ {
		te.e.AddCorpusEntry(en)
		for name, n := range seriesHeld(sh) {
			if n > 2*live[name]+64 {
				t.Fatalf("%s holds %d series after %d re-registrations of a pair with %d", name, n, i+1, live[name])
			}
		}
	}
	if len(sh.commByVP) != 2 {
		t.Fatalf("community groups indexed under %d (VP, prefix) pairs, want the pair's 2", len(sh.commByVP))
	}
	for pf, list := range sh.commByVP {
		if len(list) != 1 {
			t.Errorf("commByVP[%v] holds %d groups after 1000 re-registrations, want 1", pf, len(list))
		}
	}
	got := commChange(te, te.warm(t, 0, 2))
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("community change after re-registration churn:\n got  %v\n want %v", got, want)
	}
	hasBurst := false
	for _, sig := range wantBurst {
		hasBurst = hasBurst || sig.Technique == TechBGPBurst
	}
	if got := burst(te); !hasBurst || !reflect.DeepEqual(got, wantBurst) {
		t.Fatalf("duplicate burst after re-registration churn:\n got  %v\n want %v (with a burst signal)", got, wantBurst)
	}

	te.e.RemovePair(en.Key)
	for name, n := range seriesHeld(sh) {
		if n != 0 {
			t.Errorf("%s holds %d series after every pair left", name, n)
		}
	}
}

// seriesHeld counts what each §4.1 series table, list and index holds,
// reclaimed series not yet compacted away included.
func seriesHeld(sh *sharedState) map[string]int {
	return map[string]int{
		"burst table":       sh.burstTab.len(),
		"burst list":        len(sh.bursts),
		"burst awake list":  len(sh.awakeBursts),
		"AS-path table":     sh.aspTab.len(),
		"AS-path list":      len(sh.asps),
		"AS-path awake":     len(sh.awakeASP),
		"community table":   sh.commTab.len(),
		"AS-path cell sets": sh.cellSets.len(),
		"community groups":  sh.commGroups,
		"community index":   len(sh.commByVP),
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
	te.e.AddCorpusEntry(en)
	got := te.e.CloseWindow(end)
	burst := false
	for _, s := range want {
		burst = burst || s.Technique == TechBGPBurst
	}
	if !burst || !reflect.DeepEqual(got, want) {
		t.Fatalf("burst before a mid-window re-registration:\n got  %v\n want %v (with a burst signal)", got, want)
	}

	// First registered after the burst: the cells are created with the
	// window's state already linked, and the window is not quiet.
	fresh := newEnv(t)
	fresh.primeVPs(t)
	dups(fresh, 0)
	fresh.standardEntry(t)
	if len(fresh.e.sh.touched) == 0 {
		t.Error("window not dirty after a registration over already-touched pairs")
	}
	cells := 0
	for _, bs := range fresh.e.sh.bursts {
		for _, c := range bs.cells {
			cells++
			if st := c.win; st == nil || !st.dup {
				t.Errorf("burst cell %v does not see the window's earlier duplicate", c.pf)
			}
		}
	}
	if cells == 0 {
		t.Fatal("no burst cells registered")
	}
	fresh.e.CloseWindow(0)
	for _, c := range fresh.e.sh.cells {
		if c.win != nil {
			t.Errorf("cell %v still linked after the window closed", c.pf)
		}
	}
	if len(fresh.e.sh.touched) != 0 {
		t.Error("window still dirty after its close")
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
// nothing happened, at 2000 pairs: none. The unbounded detectors read 2106
// here. By then every detector has been quiet for more than its Lead+Lag
// windows, so no monitor is awake.
func TestQuietCloseAllocs(t *testing.T) {
	e := benchEnv(t, 2000, 0)
	ws := int64(0)
	for ; ws < 41*900; ws += 900 {
		e.CloseWindow(ws)
	}
	awake := len(e.sh.awakeExtras) + len(e.sh.awakeASP) + len(e.sh.awakeBursts)
	if awake != 0 {
		t.Errorf("%d series awake after 41 quiet windows", awake)
	}
	per := testing.AllocsPerRun(50, func() {
		e.CloseWindow(ws)
		ws += 900
	})
	t.Logf("%.0f allocations per quiet window", per)
	if per > 0 {
		t.Errorf("%.0f allocations per quiet window over 2000 pairs, budget 0", per)
	}
}

// TestObserveTraceAllocs is the allocation budget of one public traceroute
// in steady state: the patched hops, the IP path and the border path live
// in engine-owned scratch, and the subpath and border-router loops walk
// slices. The cloning path read 9.
func TestObserveTraceAllocs(t *testing.T) {
	e := benchEnv(t, 500, 0)
	traces := benchTraces(0)
	for i := 0; i < 4*len(traces); i++ {
		e.ObservePublicTrace(traces[i%len(traces)])
	}
	i := 0
	per := testing.AllocsPerRun(2000, func() {
		e.ObservePublicTrace(traces[i%len(traces)])
		i++
	})
	t.Logf("%.2f allocations per public traceroute", per)
	if per > 0 {
		t.Errorf("%.2f allocations per public traceroute, budget 0", per)
	}
}

// subObserve is one observe call of matchSubpaths.
type subObserve struct {
	id    int
	t     int64
	match bool
}

// TestSubpathIndexMatchesScan holds matchSubpaths, which skips a monitor
// whose last anchor's bit is clear in the path's word, to the loop that
// runs TraversesVia on every monitor by start: over random paths with
// holes and repeated IPs, monitors whose last anchor is their start, and
// IPs chosen to collide in the word, both must make the same observe calls
// in the same order.
func TestSubpathIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Twelve IPs, each with a partner that sets the same bit.
	var universe []uint32
	for len(universe) < 24 {
		x := rng.Uint32()
		y := x + 1
		for ipBit(y) != ipBit(x) {
			y++
		}
		universe = append(universe, x, y)
	}
	pick := func() uint32 { return universe[rng.Intn(len(universe))] }

	sh := newSharedState(DefaultConfig(), nil, bgp.NewRIB())
	ht := newHopTable(nil, nil)
	for len(sh.subpaths) < 400 {
		ips := []uint32{pick()}
		for n := 1 + rng.Intn(3); len(ips) <= n; {
			if ip := pick(); ip != ips[len(ips)-1] {
				ips = append(ips, ip)
			}
		}
		if rng.Intn(10) == 0 && len(ips) > 2 {
			ips[len(ips)-1] = ips[0] // last anchor = start anchor
		}
		if key := subpathKeyOf(ips); sh.subpaths[key] == nil {
			sh.addSubpath(key, ips, ht.intern(ips[0]))
		}
	}

	var visits, skipped, collided, observed, matched int
	for trace := 0; trace < 3000; trace++ {
		path := make([]uint32, 1+rng.Intn(14))
		ids := make([]uint32, len(path))
		for i := range path {
			if rng.Intn(8) > 0 {
				path[i] = pick() // else a hole
			}
			ids[i] = ht.intern(path[i])
		}
		tm := int64(trace) * 60

		var got, want []subObserve
		sh.matchSubpaths(path, ids, func(mon *subpathMonitor, match bool) {
			got = append(got, subObserve{mon.id, tm, match})
		})
		on := make(map[uint32]bool)
		var word uint64
		for _, ip := range path {
			on[ip] = true
			word |= ipBit(ip)
		}
		for i, ip := range path {
			if ip == 0 {
				continue
			}
			var starts []subStart
			if id := ht.intern(ip); int(id) < len(sh.subByStart) {
				starts = sh.subByStart[id]
			}
			for _, st := range starts {
				mon := st.mon
				last := mon.ips[len(mon.ips)-1]
				visits++
				switch {
				case word&ipBit(last) == 0:
					skipped++
				case !on[last]:
					collided++
				}
				_, endIdx, via := traceroute.TraversesVia(path[i:], ip, last)
				if !via {
					continue
				}
				match := matchesSparse(path[i:], mon.ips)
				if !match && spanHasHole(path[i:], endIdx) {
					continue
				}
				want = append(want, subObserve{mon.id, tm, match})
				observed++
				if match {
					matched++
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trace %d %x: indexed observe calls %v, scanning every monitor %v", trace, path, got, want)
		}
	}
	t.Logf("%d visits: %d skipped by the word, %d let through by a colliding bit, %d observed (%d matching)",
		visits, skipped, collided, observed, matched)
	if skipped == 0 || collided == 0 || matched == 0 || matched == observed {
		t.Fatal("the random paths do not exercise the filter, a collision, a match and a mismatch")
	}
}

// TestSubpathKeyOf pins the subpath key to the fmt form it was built with:
// hashID("sub:"+key) names the monitor in every subpath signal.
func TestSubpathKeyOf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]uint32{{0}, {0xffffffff}, {0, 0xffffffff, 0x0a000001}}
	for i := 0; i < 200; i++ {
		ips := make([]uint32, 1+rng.Intn(5))
		for j := range ips {
			ips[j] = rng.Uint32() >> rng.Intn(32)
		}
		cases = append(cases, ips)
	}
	for _, ips := range cases {
		parts := make([]string, len(ips))
		for i, ip := range ips {
			parts[i] = fmt.Sprintf("%08x", ip)
		}
		if got, want := subpathKeyOf(ips), strings.Join(parts, "-"); got != want {
			t.Fatalf("subpathKeyOf(%v) = %q, want %q", ips, got, want)
		}
	}
}

// matchesSparse reports whether the anchors appear in order within path,
// starting at path[0] == anchors[0]: the reference for matchSubpaths'
// inline-anchor match.
func matchesSparse(path []uint32, anchors []uint32) bool {
	if len(path) == 0 || len(anchors) == 0 || path[0] != anchors[0] {
		return false
	}
	ai := 1
	for _, ip := range path[1:] {
		if ai == len(anchors) {
			break
		}
		if ip == anchors[ai] {
			ai++
		}
	}
	return ai == len(anchors)
}

// benchTraces is the public feed of the trace benches: 64 traceroutes from
// outside the corpus crossing the corpus pairs' borders, each through one
// far side of benchEnv's fan (all through the one far side when fan is 0).
func benchTraces(fan int) []*traceroute.Traceroute {
	rng := rand.New(rand.NewSource(1))
	traces := make([]*traceroute.Traceroute, 64)
	for i := range traces {
		tr := &traceroute.Traceroute{
			Src:  9<<24 | uint32(rng.Intn(1000)+1),
			Dst:  4<<24 | uint32(rng.Intn(100)+0xd000),
			Time: int64(i) * 10,
		}
		g := uint32(0)
		if fan > 0 {
			g = uint32(rng.Intn(fan))
		}
		for h, ip := range []uint32{9<<24 | 2, 2<<24 | 1, 3<<24 | (1 + g), 4<<24 | (2 + g)} {
			tr.Hops = append(tr.Hops, traceroute.Hop{TTL: h + 1, IP: ip})
		}
		traces[i] = tr
	}
	return traces
}
