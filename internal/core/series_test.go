package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/corpus"
	"rrr/internal/traceroute"
)

// lineageRun is what runLineageWorkload observed: the digest of every
// window's signals and of every pair's active list after every close, plus
// how often one pair raised two burst signals in one window.
type lineageRun struct {
	digest string
	counts map[Technique]int
	// twinBursts counts (pair, window) cases with two burst signals from
	// different monitors of the pair, the case whose active-list order
	// registration order decides.
	twinBursts int
}

// runLineageWorkload registers pairs whose BGP monitors have the same
// inputs at different times and under different detector histories, so a
// series shared between monitors whose states differ shows up in the
// signal stream:
//
//   - (a) A5 watches exactly what A1..A4 watch but registers 20 windows
//     later (right after B3), so its detectors are still warming up at the
//     next burst;
//   - (b) VP 0 leaves the [2 3 4] suffix and A3 is re-registered: its
//     burst monitor on that suffix keeps its retired detector over a new VP
//     set;
//   - (c) A2 is removed, the feed runs on for five windows, and A2 comes
//     back with its detectors as of its removal while A1's kept stepping;
//   - (d) B1, the only pair watching its AS-path series, leaves, and B2
//     with the same inputs arrives 10 windows later.
//
// B1 registers before A1..A4, and B3 before A5, with the inputs of A's
// [3 4] burst monitor (all 12 VPs), while A's [2 3 4] monitor watches VPs
// 0..8 only. So A's [3 4] series predates its [2 3 4] series, and in a
// window where both fire, A's signals must still reach its active list in
// A's registration order.
func runLineageWorkload(t *testing.T) lineageRun {
	t.Helper()
	const w = int64(900)
	cfg := DefaultConfig()
	cfg.IXPBootstrapSec = 0
	e := NewEngine(cfg, testMapper{}, identityAliases, workloadGeo(), workloadRel())
	corp := corpus.New(testMapper{}, identityAliases)
	rng := rand.New(rand.NewSource(36))
	run := lineageRun{}
	h := sha256.New()

	pfx4 := pfx(t, "4.0.0.0/8")
	basePath := func(v int) bgp.Path {
		if v >= 9 {
			return bgp.Path{bgp.ASN(50 + v), 8, 3, 4}
		}
		return bgp.Path{bgp.ASN(50 + v), 2, 3, 4}
	}
	comm := bgp.MakeCommunity(3, 100)
	extra := bgp.MakeCommunity(3, 51000)
	type vpState struct {
		path   bgp.Path
		comms  bgp.Communities
		routed bool
		revert int
		pinned bool // held off its base path by the schedule, not by churn
	}
	vps := make([]vpState, 12)
	send := func(tm int64, v int) {
		st := vps[v]
		e.ObserveBGP(bgp.Update{
			Time: tm, PeerIP: uint32(50+v)<<24 | 9, PeerAS: bgp.ASN(50 + v),
			Type: bgp.Announce, Prefix: pfx4, ASPath: st.path, Communities: st.comms,
		})
	}
	for v := range vps {
		vps[v] = vpState{path: basePath(v), routed: true}
		if v == 1 {
			vps[v].comms = bgp.Communities{comm}
		}
		send(0, v)
	}

	var entries []*corpus.Entry
	process := func(tm int64, srcNet, i uint32, mid uint32) *corpus.Entry {
		t.Helper()
		dst := 4<<24 | (srcNet*100 + i)
		en, err := corp.Process(mkTraceIPs(tm, srcNet<<24|i, dst,
			srcNet<<24|(i+50), mid, 3<<24|1, 4<<24|2, dst))
		if err != nil {
			t.Fatal(err)
		}
		e.AddCorpusEntry(en)
		entries = append(entries, en)
		return en
	}
	// A pairs cross AS 2 (τ = 1 2 3 4), B pairs AS 11 (τ = 7 11 3 4).
	pairA := func(tm int64, i uint32) *corpus.Entry { return process(tm, 1, i, 2<<24|1) }
	pairB := func(tm int64, i uint32) *corpus.Entry { return process(tm, 7, i, 11<<24|1) }

	end := int64(0)
	hashSig := func(h hash.Hash, s Signal) {
		fmt.Fprintf(h, "%d %d %d %d %d %v %q %x %d %d %d %t %t %d\n",
			int(s.Technique), s.Key.Src, s.Key.Dst, s.MonitorID, s.WindowStart, s.Borders,
			s.Detail, math.Float64bits(s.Score), s.VPCount, s.IPOverlap, s.ASOverlap,
			s.SameASVP, s.SameCityVP, uint64(s.Comm))
	}
	closeW := func() {
		sigs := e.CloseWindow(end)
		fmt.Fprintf(h, "window %d\n", end/w)
		for _, s := range sigs {
			hashSig(h, s)
		}
		bursts := map[traceroute.Key]map[int]bool{}
		for _, s := range sigs {
			if s.Technique == TechBGPBurst {
				if bursts[s.Key] == nil {
					bursts[s.Key] = map[int]bool{}
				}
				bursts[s.Key][s.MonitorID] = true
			}
		}
		for _, m := range bursts {
			if len(m) >= 2 {
				run.twinBursts++
			}
		}
		seen := map[traceroute.Key]bool{}
		for _, en := range entries {
			if seen[en.Key] {
				continue
			}
			seen[en.Key] = true
			fmt.Fprintf(h, "active %v\n", en.Key)
			for _, s := range e.Active(en.Key) {
				hashSig(h, s)
			}
		}
		end += w
	}

	// churn is one window of seeded activity: flaps, duplicates, community
	// toggles and withdrawals, over the VPs the schedule does not hold.
	churn := func() {
		for v := range vps {
			if vps[v].pinned {
				continue
			}
			tm := end + int64(10+v)
			switch r := rng.Intn(100); {
			case !vps[v].routed:
				if r < 50 {
					vps[v].routed = true
					send(tm, v)
				}
			case vps[v].revert > 0:
				if vps[v].revert--; vps[v].revert == 0 {
					vps[v].path = basePath(v)
					send(tm, v)
				}
			case r < 3:
				vps[v].path, vps[v].revert = bgp.Path{bgp.ASN(50 + v), 2, 9, 4}, 1+rng.Intn(3)
				send(tm, v)
			case r < 5:
				send(tm, v)
			case r < 10 && v <= 3:
				if len(vps[v].comms) == 2 {
					vps[v].comms = bgp.Communities{comm}
				} else {
					vps[v].comms = bgp.Communities{comm, extra}
				}
				send(tm, v)
			case r < 11:
				vps[v].routed = false
				e.ObserveBGP(bgp.Update{
					Time: tm, PeerIP: uint32(50+v)<<24 | 9, PeerAS: bgp.ASN(50 + v),
					Type: bgp.Withdraw, Prefix: pfx4,
				})
			}
		}
	}
	// burst is a window in which VPs 0..8 repeat their routes twice and VP
	// 10 moves to a path that leaves the [3 4] suffix at AS 3, which keeps
	// the flagged pairs off their AS-path baselines (so revocation leaves
	// their active lists alone) until shiftBack.
	burst := func() {
		for v := 0; v <= 8; v++ {
			if vps[v].routed {
				send(end+int64(30+v), v)
				send(end+int64(40+v), v)
			}
		}
		vps[10].path, vps[10].revert, vps[10].pinned = bgp.Path{60, 8, 3, 9, 4}, 0, true
		vps[10].routed = true
		send(end+50, 10)
	}
	shiftBack := func() {
		vps[10].path, vps[10].pinned = basePath(10), false
		send(end+5, 10)
	}

	// B1 first, so the all-VP burst series exists before A1 registers.
	pairB(0, 1)
	for i := uint32(1); i <= 4; i++ {
		pairA(0, i)
	}
	a := entries[1:5]

	for n := 0; n < 200; n++ {
		switch n {
		case 20: // (a)
			pairB(end, 3)
			pairA(end, 5)
		case 50: // (c)
			e.RemovePair(a[1].Key)
		case 55:
			e.AddCorpusEntry(a[1])
		case 75: // (b)
			vps[0].path, vps[0].revert, vps[0].pinned = bgp.Path{50, 2, 9, 4}, 0, true
			vps[0].routed = true
			send(end+1, 0)
		case 76:
			e.Reregister(a[2])
		case 100: // (d)
			e.RemovePair(entries[0].Key)
		case 110:
			pairB(end, 2)
		case 150:
			vps[0].path, vps[0].pinned = basePath(0), false
			send(end+1, 0)
		}
		switch n {
		case 30, 45, 60, 90, 115, 125, 140, 165, 185:
			burst()
		case 38, 52, 68, 98, 121, 132, 150, 172, 192:
			shiftBack()
			churn()
		default:
			churn()
		}
		closeW()
	}

	run.counts = e.SignalCounts()
	for tech := Technique(0); tech < numTechniques; tech++ {
		fmt.Fprintf(h, "count %d %d\n", tech, run.counts[tech])
	}
	sigs, pairs := e.RevocationStats()
	fmt.Fprintf(h, "revoked %d %d\n", sigs, pairs)
	for _, k := range e.RefreshPlan(6, rand.New(rand.NewSource(42))) {
		fmt.Fprintf(h, "plan %d %d\n", k.Src, k.Dst)
	}
	run.digest = hex.EncodeToString(h.Sum(nil))
	return run
}

// lineageDigest is runLineageWorkload's digest at f64a11a, where every
// monitor owned its detector.
const lineageDigest = "3f95011e85bee348aabf45a39424ae54297404a67f92cadd19d99dd74ea7d919"

// TestSharedSeriesLineage: monitors with the same inputs share one series
// only when their detector histories are the same, so every pair's signals
// and active list must match what one detector per monitor gave.
func TestSharedSeriesLineage(t *testing.T) {
	run := runLineageWorkload(t)
	for _, tech := range []Technique{TechBGPASPath, TechBGPCommunity, TechBGPBurst} {
		if run.counts[tech] == 0 {
			t.Errorf("no %v signals; the workload is too weak", tech)
		}
	}
	if run.twinBursts == 0 {
		t.Error("no pair raised two burst signals in one window")
	}
	t.Logf("counts %v, %d twin bursts", run.counts, run.twinBursts)
	if run.digest != lineageDigest {
		t.Errorf("digest %s, want %s", run.digest, lineageDigest)
	}
}
