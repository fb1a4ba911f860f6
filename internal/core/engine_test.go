package core

import (
	"math/rand"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/corpus"
	"rrr/internal/traceroute"
)

func mkTraceIPs(when int64, src, dst uint32, hops ...uint32) *traceroute.Traceroute {
	tr := &traceroute.Traceroute{Src: src, Dst: dst, Time: when, ProbeID: 1}
	for i, h := range hops {
		tr.Hops = append(tr.Hops, traceroute.Hop{TTL: i + 1, IP: h})
	}
	if n := len(hops); n > 0 && hops[n-1] == dst {
		tr.Reached = true
	}
	return tr
}

type workloadResult struct {
	windows [][]Signal
	counts  map[Technique]int
	revoked [2]int
	plan    []traceroute.Key
}

// runWorkload drives a multi-technique feed — AS-path changes, a community
// change, an update burst, diverging public subpaths, an IXP joiner, mid-run
// registrations, and refresh/reregister cycles — through a fresh engine
// built from cfg with the IXP bootstrap off, and records every window's
// signal stream. A non-zero faultSeed perturbs observation delivery (see
// faultedFeed). A non-nil afterClose sees the engine after every close.
func runWorkload(t *testing.T, cfg Config, faultSeed int64, afterClose func(*Engine)) workloadResult {
	t.Helper()
	const w = int64(900)
	cfg.IXPBootstrapSec = 0
	eng := NewEngine(cfg, testMapper{}, identityAliases, workloadGeo(), workloadRel())
	e := &faultedFeed{Engine: eng}
	if faultSeed != 0 {
		e.rng = rand.New(rand.NewSource(faultSeed))
	}
	corp := corpus.New(testMapper{}, identityAliases)
	res := workloadResult{counts: map[Technique]int{}}

	e.SetInitialIXPMembership(map[int][]bgp.ASN{1: {3}})
	ixpIfaceMember[240<<24|77] = 9

	pfx4 := pfx(t, "4.0.0.0/8")
	// 12 VPs with routes to 4.0.0.0/8; vp index 1 carries a community
	// baseline so a later community change is judged against it, and the
	// last three traverse extra AS 8 so burst exculpation series exist.
	vpPath := func(v int) bgp.Path {
		if v >= 9 {
			return bgp.Path{bgp.ASN(50 + v), 8, 3, 4}
		}
		return bgp.Path{bgp.ASN(50 + v), 2, 3, 4}
	}
	announceVP := func(tm int64, v int, path bgp.Path, comms bgp.Communities) {
		e.ObserveBGP(bgp.Update{
			Time: tm, PeerIP: uint32(50+v)<<24 | 9, PeerAS: bgp.ASN(50 + v),
			Type: bgp.Announce, Prefix: pfx4, ASPath: path, Communities: comms,
		})
	}
	for v := 0; v < 12; v++ {
		var comms bgp.Communities
		if v == 1 {
			comms = bgp.Communities{bgp.MakeCommunity(3, 100)}
		}
		announceVP(0, v, vpPath(v), comms)
	}

	// Corpus pairs share the 2.0.0.1 → 3.0.0.1 → 4.0.0.2 backbone (shared
	// subpath and border monitors) and spread over src/dst.
	addEntry := func(tm int64, srcNet, i uint32) *corpus.Entry {
		t.Helper()
		tr := mkTraceIPs(tm,
			srcNet<<24|i, 4<<24|(srcNet*100)+i,
			srcNet<<24|(i+50), 2<<24|1, 3<<24|1, 4<<24|2, 4<<24|(srcNet*100)+i)
		en, err := corp.Process(tr)
		if err != nil {
			t.Fatal(err)
		}
		e.AddCorpusEntry(en)
		return en
	}
	var entries []*corpus.Entry
	for i := uint32(1); i <= 24; i++ {
		entries = append(entries, addEntry(0, 1, i))
	}

	closeW := func(ws int64) {
		res.windows = append(res.windows, e.CloseWindow(ws))
		if afterClose != nil {
			afterClose(eng)
		}
	}
	// steadyPub confirms the shared subpath from a public vantage; the
	// AS4 backbone hop anchors the series beyond the border that shifts.
	steadyPub := func(tm int64) {
		e.ObservePublicTrace(mkTraceIPs(tm,
			9<<24|1, 4<<24|8, 9<<24|2, 2<<24|1, 3<<24|1, 4<<24|2, 4<<24|8))
	}

	// Warm-up: 60 windows establish AS-path baselines, and a public trace
	// per window builds the shared subpath and border series histories.
	end := int64(0)
	for i := 0; i < 60; i++ {
		steadyPub(end + 5)
		closeW(end)
		end += w
	}

	// Mid-run registrations join shared monitors warmed above.
	for i := uint32(1); i <= 8; i++ {
		entries = append(entries, addEntry(end, 7, i))
	}
	entries[0].MeasuredAt = end
	e.Reregister(entries[0])

	// Window A: one VP shifts its path (AS-path signals).
	announceVP(end+5, 0, bgp.Path{50, 2, 9, 4}, nil)
	steadyPub(end + 20)
	closeW(end)
	end += w

	// Window B: the VP reverts; after the ratio settles the engine revokes
	// the window-A signals (§4.3.2).
	announceVP(end+5, 0, vpPath(0), nil)
	steadyPub(end + 20)
	closeW(end)
	end += w
	steadyPub(end + 5)
	closeW(end)
	end += w

	// Window C: the community-carrying VP adds an AS3 community.
	announceVP(end+5, 1, vpPath(1),
		bgp.Communities{bgp.MakeCommunity(3, 100), bgp.MakeCommunity(3, 51000)})
	steadyPub(end + 20)
	closeW(end)
	end += w

	// Window D: an unexplained duplicate-update burst across the VP set
	// (the extra-AS witnesses at vp index ≥9 stay quiet). VP 1 re-announces
	// its exact communities — stripping them would read as a community
	// change and suppress the burst as an echo.
	for rep := 0; rep < 3; rep++ {
		for v := 0; v < 9; v++ {
			var comms bgp.Communities
			if v == 1 {
				comms = bgp.Communities{bgp.MakeCommunity(3, 100), bgp.MakeCommunity(3, 51000)}
			}
			announceVP(end+int64(rep*12+v)+1, v, vpPath(v), comms)
		}
	}
	steadyPub(end + 200)
	closeW(end)
	end += w

	// Windows E..H: public traces diverge from the shared subpath at the
	// AS3 ingress (subpath + border-router signals), and an IXP joiner
	// appears next to a known member's interface.
	for i := 0; i < 4; i++ {
		e.ObservePublicTrace(mkTraceIPs(end+5,
			9<<24|1, 4<<24|8, 9<<24|2, 2<<24|1, 3<<24|9, 4<<24|2, 4<<24|8))
		if i == 0 {
			e.ObservePublicTrace(mkTraceIPs(end+50,
				1<<24|5, 9<<24|8, 1<<24|6, 240<<24|77, 9<<24|8))
		}
		closeW(end)
		end += w
	}

	// Settle, then refresh a changed pair and re-register it (calibration
	// outcome recording plus monitor teardown/rebuild).
	for i := 0; i < 3; i++ {
		steadyPub(end + 5)
		closeW(end)
		end += w
	}
	for _, en := range entries[:4] {
		fresh := mkTraceIPs(end, en.Key.Src, en.Key.Dst,
			en.Key.Src+50, 2<<24|1, 3<<24|1, 4<<24|2, en.Key.Dst)
		fen, err := corp.Process(fresh)
		if err != nil {
			t.Fatal(err)
		}
		e.EvaluateRefresh(fen)
		e.Reregister(fen)
	}
	for i := 0; i < 3; i++ {
		closeW(end)
		end += w
	}

	res.plan = e.RefreshPlan(8, rand.New(rand.NewSource(42)))
	res.counts = e.SignalCounts()
	res.revoked[0], res.revoked[1] = e.RevocationStats()
	return res
}

// workloadGeo places the shared backbone hops in cities so the workload's
// border crossings are monitorable; workloadRel makes AS2 the joiner's
// provider so the IXP scenario signals.
func workloadGeo() mapGeo {
	return mapGeo{2<<24 | 1: 1, 3<<24 | 1: 2, 3<<24 | 9: 2, 4<<24 | 2: 3, 9<<24 | 2: 4}
}

func workloadRel() mapRel {
	return mapRel{[2]bgp.ASN{1, 2}: RelCustomerOf}
}

// TestShardedQueryFanout checks that the aggregate query surface counts
// each pair once.
func TestShardedQueryFanout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IXPBootstrapSec = 0
	s := NewEngine(cfg, testMapper{}, identityAliases, mapGeo{}, mapRel{})
	corp := corpus.New(testMapper{}, identityAliases)

	for v := 0; v < 12; v++ {
		s.ObserveBGP(bgp.Update{
			Time: 0, PeerIP: uint32(50+v)<<24 | 9, PeerAS: bgp.ASN(50 + v),
			Type: bgp.Announce, Prefix: pfx(t, "4.0.0.0/8"),
			ASPath: bgp.Path{bgp.ASN(50 + v), 2, 3, 4},
		})
	}
	var keys []traceroute.Key
	for i := uint32(1); i <= 12; i++ {
		tr := mkTraceIPs(0, 1<<24|i, 4<<24|100+i,
			1<<24|(i+50), 2<<24|1, 3<<24|1, 4<<24|2, 4<<24|100+i)
		en, err := corp.Process(tr)
		if err != nil {
			t.Fatal(err)
		}
		s.AddCorpusEntry(en)
		keys = append(keys, en.Key)
	}
	st := s.monitorStats()
	if st.ASPathMonitors == 0 || st.SubpathMonitors == 0 {
		t.Fatalf("stats missing monitors: %+v", st)
	}
	// Stats must count each pair's monitors once.
	if st.ASPathMonitors > 12*12 {
		t.Fatalf("ASPathMonitors double-counted: %d", st.ASPathMonitors)
	}
	// The 12 pairs watch the same 12 VPs over τ = 1 2 3 4, and every VP
	// shares both burst suffixes ([2 3 4] and [3 4]): one series per
	// technique serves them all, and the gauges say so.
	if want := (stats{BurstSeries: 1, ASPathSeries: 1, CommunityGroups: 1,
		BurstMonitors: 24, ASPathMonitors: 12, CommunityTargets: 12, SubpathMonitors: st.SubpathMonitors}); st != want {
		t.Fatalf("series of 12 same-input pairs: %+v, want %+v", st, want)
	}
	for tech, want := range map[Technique][2]int{
		TechBGPBurst:     {st.BurstSeries, st.BurstMonitors},
		TechBGPASPath:    {st.ASPathSeries, st.ASPathMonitors},
		TechBGPCommunity: {st.CommunityGroups, st.CommunityTargets},
	} {
		if got := [2]int{int(s.seriesMet.series[tech].Value()), int(s.seriesMet.subscribers[tech].Value())}; got != want {
			t.Errorf("%v gauges read %v series/subscribers, monitorStats %v", tech, got, want)
		}
	}

	s.ObserveBGP(bgp.Update{
		Time: 41*900 + 5, PeerIP: 50<<24 | 9, PeerAS: 50,
		Type: bgp.Announce, Prefix: pfx(t, "4.0.0.0/8"), ASPath: bgp.Path{50, 2, 9, 4},
	})
	// CloseWindow drains pending observations before closing.
	for i := 0; i < 45; i++ {
		s.CloseWindow(int64(i) * 900)
	}
	flagged := 0
	for _, k := range keys {
		if len(s.Active(k)) > 0 {
			flagged++
			s.clearActive(k)
			if len(s.Active(k)) != 0 {
				t.Fatalf("clearActive(%v) left signals", k)
			}
		}
	}
	if s.WindowsClosed() != 45 {
		t.Fatalf("WindowsClosed = %d, want 45", s.WindowsClosed())
	}
	s.RemovePair(keys[0])
	if _, ok := s.Entry(keys[0]); ok {
		t.Fatal("RemovePair left entry registered")
	}
}

// TestShardMetricsPerClose: rrr_shard_close_window_seconds takes exactly
// one observation per CloseWindow. The series is process-global, so the
// test reads a delta through the engine's own handle.
func TestShardMetricsPerClose(t *testing.T) {
	e := NewEngine(DefaultConfig(), testMapper{}, identityAliases, mapGeo{}, mapRel{})
	before := e.met.close.Count()
	const closes = 5
	for w := 0; w < closes; w++ {
		e.CloseWindow(int64(w) * 900)
	}
	if got := e.met.close.Count() - before; got != closes {
		t.Errorf("close histogram took %d observations over %d closes", got, closes)
	}
}

// TestRestoreActive checks snapshot restore: injected signals are served
// (and clearable) per key.
func TestRestoreActive(t *testing.T) {
	s := NewEngine(DefaultConfig(), testMapper{}, identityAliases, mapGeo{}, mapRel{})

	var sigs []Signal
	var keys []traceroute.Key
	for i := uint32(1); i <= 9; i++ {
		k := traceroute.Key{Src: 1<<24 | i, Dst: 4<<24 | i}
		keys = append(keys, k)
		sigs = append(sigs,
			Signal{Technique: TechBGPASPath, Key: k, WindowStart: 900, MonitorID: int(i)},
			Signal{Technique: TechBGPBurst, Key: k, WindowStart: 1800, MonitorID: int(i)})
	}
	s.RestoreActive(sigs)
	for _, k := range keys {
		act := s.Active(k)
		if len(act) != 2 {
			t.Fatalf("Active(%v) = %d signals, want 2", k, len(act))
		}
		for _, sg := range act {
			if sg.Key != k {
				t.Fatalf("signal for %v served for %v", sg.Key, k)
			}
		}
	}
	s.clearActive(keys[0])
	if len(s.Active(keys[0])) != 0 {
		t.Fatal("clearActive left restored signals")
	}
	if len(s.Active(keys[1])) != 2 {
		t.Fatal("clearActive bled into another key")
	}
}

// TestCommunityFPQuotaDefaultUnified is the regression test for the config
// mismatch where DefaultConfig set CommunityFPQuota=1 but a zero-valued
// Config fell back to a different quota inside NewEngine.
func TestCommunityFPQuotaDefaultUnified(t *testing.T) {
	e := NewEngine(Config{WindowSec: 900}, testMapper{}, identityAliases, nil, nil)
	if got, want := e.Calib.fpQuota, DefaultConfig().CommunityFPQuota; got != want {
		t.Errorf("NewEngine zero-config quota = %d, want DefaultConfig's %d", got, want)
	}
}

// TestZeroConfigMatchesDefault: the paper's fixed parameters are constants,
// not Config fields a zero value can silently switch off. A Config that sets
// only WindowSec must run the workload exactly as DefaultConfig does, §4.3.2
// revocation included.
func TestZeroConfigMatchesDefault(t *testing.T) {
	want := runWorkload(t, DefaultConfig(), 0, nil)
	got := runWorkload(t, Config{WindowSec: 900}, 0, nil)
	if got.revoked != want.revoked {
		t.Errorf("revocation stats = %v, want DefaultConfig's %v", got.revoked, want.revoked)
	}
	if g, w := got.digest(), want.digest(); g != w {
		t.Errorf("digest = %s, want DefaultConfig's %s", g, w)
	}
}
