package core

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"rrr/internal/anomaly"
	"rrr/internal/bgp"
	"rrr/internal/corpus"
	"rrr/internal/trie"
)

// runSleepWorkload drives the feed shapes that decide which monitors a
// window close visits: seeded churn (path flaps, duplicate bursts,
// community toggles, withdrawals, a more-specific prefix) long enough for
// every detector to leave its constant regime, then a BGP-quiet stretch
// longer than a bitmap detector's Lead+Lag windows, so every detector
// settles; while they are settled, pairs are re-registered (taking their
// retired detectors), removed and re-added; then the churn resumes and
// the quiet stretch repeats. Public traces arrive every window throughout,
// so the traceroute series keep advancing while BGP is quiet.
func runSleepWorkload(t *testing.T) workloadResult {
	t.Helper()
	const w = int64(900)
	cfg := DefaultConfig()
	cfg.IXPBootstrapSec = 0
	e := NewEngine(cfg, testMapper{}, identityAliases, workloadGeo(), workloadRel())
	corp := corpus.New(testMapper{}, identityAliases)
	var res workloadResult
	rng := rand.New(rand.NewSource(35))

	pfx4, pfx16 := pfx(t, "4.0.0.0/8"), pfx(t, "4.0.0.0/16")
	basePath := func(v int) bgp.Path {
		if v >= 9 {
			return bgp.Path{bgp.ASN(50 + v), 8, 3, 4}
		}
		return bgp.Path{bgp.ASN(50 + v), 2, 3, 4}
	}
	altPath := func(v int) bgp.Path { return bgp.Path{bgp.ASN(50 + v), 2, 9, 4} }
	comm := bgp.MakeCommunity(3, 100)
	extra := bgp.MakeCommunity(3, 51000)
	type vpState struct {
		path   bgp.Path
		comms  bgp.Communities
		routed bool
		revert int
	}
	vps := make([]vpState, 12)
	send := func(tm int64, v int, pf trie.Prefix) {
		st := vps[v]
		e.ObserveBGP(bgp.Update{
			Time: tm, PeerIP: uint32(50+v)<<24 | 9, PeerAS: bgp.ASN(50 + v),
			Type: bgp.Announce, Prefix: pf, ASPath: st.path, Communities: st.comms,
		})
	}
	for v := range vps {
		vps[v] = vpState{path: basePath(v), routed: true}
		if v == 1 {
			vps[v].comms = bgp.Communities{comm}
		}
		send(0, v, pfx4)
	}

	var entries []*corpus.Entry
	addEntry := func(tm int64, srcNet, i uint32) *corpus.Entry {
		t.Helper()
		en, err := corp.Process(mkTraceIPs(tm,
			srcNet<<24|i, 4<<24|(srcNet*100)+i,
			srcNet<<24|(i+50), 2<<24|1, 3<<24|1, 4<<24|2, 4<<24|(srcNet*100)+i))
		if err != nil {
			t.Fatal(err)
		}
		e.AddCorpusEntry(en)
		return en
	}
	for i := uint32(1); i <= 16; i++ {
		entries = append(entries, addEntry(0, 1, i))
	}

	end := int64(0)
	pub := func(tm int64) {
		mid := uint32(3<<24 | 1)
		if rng.Intn(40) == 0 {
			mid = 3<<24 | 9
		}
		e.ObservePublicTrace(mkTraceIPs(tm,
			9<<24|1, 4<<24|8, 9<<24|2, 2<<24|1, mid, 4<<24|2, 4<<24|8))
	}
	closeW := func() {
		pub(end + 7)
		res.windows = append(res.windows, e.CloseWindow(end))
		end += w
	}
	// churn is one window of seeded BGP activity over the 12 VPs.
	churn := func() {
		for v := range vps {
			tm := end + int64(10+v)
			switch r := rng.Intn(100); {
			case !vps[v].routed:
				if r < 50 {
					vps[v].routed = true
					send(tm, v, pfx4)
				}
			case vps[v].revert > 0:
				if vps[v].revert--; vps[v].revert == 0 {
					vps[v].path = basePath(v)
					send(tm, v, pfx4)
				}
			case r < 4:
				// A flap: the path moves and comes back a few windows later.
				vps[v].path, vps[v].revert = altPath(v), 1+rng.Intn(3)
				send(tm, v, pfx4)
			case r < 20:
				for rep := 0; rep < 1+rng.Intn(3); rep++ {
					send(tm+int64(rep), v, pfx4)
				}
			case r < 26 && v <= 3:
				if len(vps[v].comms) == 2 {
					vps[v].comms = bgp.Communities{comm}
				} else {
					vps[v].comms = bgp.Communities{comm, extra}
				}
				send(tm, v, pfx4)
			case r < 27:
				vps[v].routed = false
				e.ObserveBGP(bgp.Update{
					Time: tm, PeerIP: uint32(50+v)<<24 | 9, PeerAS: bgp.ASN(50 + v),
					Type: bgp.Withdraw, Prefix: pfx4,
				})
			}
		}
	}

	// settle puts every VP back on its first route, so the quiet stretch
	// that follows returns the ratios to their baselines and revocation
	// runs over settled monitors.
	settle := func() {
		for v := range vps {
			base := vpState{path: basePath(v), routed: true}
			if v == 1 {
				base.comms = bgp.Communities{comm}
			}
			st := vps[v]
			if !st.routed || !st.path.Equal(base.path) || !st.comms.Equal(base.comms) {
				vps[v] = base
				send(end+int64(20+v), v, pfx4)
			}
		}
	}

	for i := 0; i < 70; i++ {
		churn()
		closeW()
	}
	settle()
	// A more-specific route for VP 3: pairs registered from here on watch
	// it through a second fold cell.
	send(end+3, 3, pfx16)
	for i := 0; i < 50; i++ {
		closeW()
	}

	// Every BGP detector is settled now. Re-register, remove and add pairs
	// under them, in quiet windows.
	for _, en := range entries[:4] {
		e.AddCorpusEntry(en)
	}
	e.RemovePair(entries[4].Key)
	e.RemovePair(entries[5].Key)
	closeW()
	for i := uint32(1); i <= 6; i++ {
		entries = append(entries, addEntry(end, 7, i))
	}
	e.AddCorpusEntry(entries[4])
	for i := 0; i < 3; i++ {
		closeW()
	}
	for i := 0; i < 60; i++ {
		churn()
		closeW()
	}
	settle()
	for i := 0; i < 45; i++ {
		closeW()
	}
	// One window of churn over settled detectors, a refresh of the pairs
	// it flagged, then churn again.
	churn()
	closeW()
	for _, en := range entries[:6] {
		if len(e.Active(en.Key)) > 0 {
			e.EvaluateRefresh(en)
			e.AddCorpusEntry(en)
		}
	}
	for i := 0; i < 30; i++ {
		churn()
		closeW()
	}

	res.plan = e.RefreshPlan(8, rand.New(rand.NewSource(42)))
	res.counts = e.SignalCounts()
	res.revoked[0], res.revoked[1] = e.RevocationStats()
	return res
}

// sleepDigest is runSleepWorkload's digest, captured at e715fab, whose
// close stepped every detector in every window; with settled monitors
// asleep, the engine must still reproduce it.
const sleepDigest = "48e9e933a8ff625cf64b9370f96d2fb275f09335a71f15ad5496f502659f3e09"

// TestSleepingMonitorsMatchPinned: a monitor that sleeps through quiet
// windows and replays them when woken — by a dirty window, a removal or a
// re-registration that retires its detector — must leave the signal
// stream, the revocations and the refresh plan exactly as stepping it
// every window did.
func TestSleepingMonitorsMatchPinned(t *testing.T) {
	res := runSleepWorkload(t)
	for _, tech := range []Technique{TechBGPASPath, TechBGPCommunity, TechBGPBurst} {
		if res.counts[tech] == 0 {
			t.Errorf("no %v signals; the workload is too weak", tech)
		}
	}
	if got := res.digest(); got != sleepDigest {
		t.Errorf("digest %s, want %s", got, sleepDigest)
	}
}

// sameSlice reports whether a and b are the same slice: one backing array,
// one length. Equal contents in another array would not do: the cell must
// hold the RIB's route, not a copy that happens to match it.
func sameSlice[E any](a, b []E) bool {
	return unsafe.SliceData(a) == unsafe.SliceData(b) && len(a) == len(b)
}

// checkCellRoutes fails unless every fold cell caches the RIB's current
// route for its (VP, prefix) — whether there is one, and the very path and
// community slices the RIB holds — and every community state's at-baseline
// bit and every monitor's off-baseline count agree with it.
func checkCellRoutes(t *testing.T, e *Engine, when string) {
	t.Helper()
	for pf, c := range e.sh.cells {
		rt, ok := e.rib.Route(pf.vp, pf.pf)
		if c.routed != ok || !sameSlice(c.path, rt.ASPath) || !sameSlice(c.comms, rt.Communities) {
			t.Fatalf("%s: cell %v caches route %v (path %v, communities %v), the RIB holds %v (%+v)",
				when, pf, c.routed, c.path, c.comms, ok, rt)
		}
	}
	for k, pm := range e.mons {
		cm := &pm.comm
		if cm.group == nil {
			continue
		}
		off := 0
		for _, st := range cm.group.overlap {
			at := st.cell.routed && st.cell.comms.Equal(st.baseline)
			if at != st.atBase {
				t.Fatalf("%s: pair %v VP %v atBase=%v, route says %v", when, k, st.cell.pf.vp, st.atBase, at)
			}
			if !at {
				off++
			}
		}
		if off != cm.group.offBase {
			t.Fatalf("%s: pair %v offBase=%d, %d states off baseline", when, k, cm.group.offBase, off)
		}
	}
}

// TestCellRouteCache: the per-pair close reads routes from the fold
// cells, so after every close each cell must hold the RIB's route — through
// the faulted differential workload, withdrawals, announcements too
// specific to enter the RIB, and registrations in the middle of a window.
func TestCellRouteCache(t *testing.T) {
	closes := 0
	runWorkload(t, DefaultConfig(), 1337, func(e *Engine) {
		closes++
		checkCellRoutes(t, e, fmt.Sprintf("differential close %d", closes))
	})

	te := newEnv(t)
	te.primeVPs(t)
	te.standardEntry(t)
	end := te.warm(t, 0, 2)
	closeAndCheck := func(when string) {
		t.Helper()
		te.e.CloseWindow(end)
		end += 900
		checkCellRoutes(t, te.e, when)
	}
	withdraw := func(vpIP string, vpAS bgp.ASN, prefix string) {
		te.e.ObserveBGP(bgp.Update{
			Time: end + 5, PeerIP: mustIP(t, vpIP), PeerAS: vpAS, Type: bgp.Withdraw, Prefix: pfx(t, prefix),
		})
	}

	withdraw("5.0.0.9", 5, "4.0.0.0/8")
	closeAndCheck("withdrawal")
	if c := te.e.sh.cells[vpPrefix{vp: bgp.VPKey{PeerIP: mustIP(t, "5.0.0.9"), PeerAS: 5}, pf: pfx(t, "4.0.0.0/8")}]; c == nil || c.routed || c.path != nil {
		t.Fatal("the withdrawn route's cell still holds a route")
	}

	// Too specific for the RIB: filtered before it reaches the fold.
	te.e.ObserveBGP(announce(t, end+5, "5.0.0.9", 5, "4.0.0.0/25", bgp.Path{5, 2, 3, 4}, nil))
	te.e.ObserveBGP(announce(t, end+6, "6.0.0.9", 6, "4.0.0.0/25", bgp.Path{6, 9, 4}, nil))
	closeAndCheck("too-specific announcements")

	// Mid-window: vpA comes back, vpB changes communities and path, then a
	// pair is registered over both cells, then vpB changes again.
	te.e.ObserveBGP(announce(t, end+5, "5.0.0.9", 5, "4.0.0.0/8", bgp.Path{5, 2, 3, 4}, nil))
	te.e.ObserveBGP(announce(t, end+6, "6.0.0.9", 6, "4.0.0.0/8", bgp.Path{6, 3, 4},
		bgp.Communities{bgp.MakeCommunity(3, 7)}))
	tr := mkTrace(t, end, "1.0.0.5", "4.0.0.77", "1.0.0.6", "2.0.0.1", "3.0.0.1", "4.0.0.2", "4.0.0.77")
	en, err := te.corp.Process(tr)
	if err != nil {
		t.Fatal(err)
	}
	te.e.AddCorpusEntry(en)
	te.e.ObserveBGP(announce(t, end+7, "6.0.0.9", 6, "4.0.0.0/8", bgp.Path{6, 3, 4}, nil))
	closeAndCheck("mid-window registration")

	// A more-specific prefix creates a new cell for the next registration.
	te.e.ObserveBGP(announce(t, end+5, "6.0.0.9", 6, "4.0.0.0/16", bgp.Path{6, 3, 4}, nil))
	tr = mkTrace(t, end, "1.0.0.8", "4.0.0.78", "1.0.0.9", "2.0.0.1", "3.0.0.1", "4.0.0.2", "4.0.0.78")
	if en, err = te.corp.Process(tr); err != nil {
		t.Fatal(err)
	}
	te.e.AddCorpusEntry(en)
	withdraw("6.0.0.9", 6, "4.0.0.0/16")
	closeAndCheck("more-specific announced, registered over and withdrawn")
	closeAndCheck("quiet")
}

// TestRatioSeriesDecidesOncePerBucket holds ratioSeries.activate, which
// asks ChooseWindowMin once per ladder bucket over sorted times, to the
// same series asking on every observation with a full scan of the buffer
// in arrival order: the buffer, and the observation that activates the
// series, must match at every step — through bursts of thousands of
// observations in one bucket (so the buffer trims while the answer is
// remembered), observations a little out of order, sparse stretches, a
// ladder whose rungs share a divisor smaller than its shortest rung, and a
// feed that delivers observations hours late, as a faulted feed does.
func TestRatioSeriesDecidesOncePerBucket(t *testing.T) {
	for _, tc := range []struct {
		ladder []int64
		late   int
	}{{nil, 60}, {[]int64{600, 1500, 3000}, 60}, {nil, 20000}} {
		ladder := tc.ladder
		cfg := DefaultConfig()
		cfg.PublicLadder = ladder
		sh := newSharedState(cfg, nil, bgp.NewRIB())
		rng := rand.New(rand.NewSource(int64(len(ladder) + tc.late)))
		var got ratioSeries
		var want refRatioSeries
		tm := int64(5000)
		trims := 0
		for i := 0; got.series == nil || want.series == nil; i++ {
			switch {
			case i < 20000:
				// A dense burst: thousands of observations per bucket.
				if rng.Intn(8) == 0 {
					tm++
				}
			case i < 20200:
				tm += 3000 + int64(rng.Intn(5000)) // too sparse to activate
			default:
				tm += 300 // activates on the shortest rung
			}
			at := tm - int64(rng.Intn(tc.late)) // out of order
			match := rng.Intn(2) == 0
			before := got.buffered()
			got.observe(sh, at, match)
			if got.buffered() < before {
				trims++
			}
			want.buf = append(want.buf, subObs{t: at, match: match})
			activateEveryTime(&want, sh, at)
			n := got.buffered()
			if (got.series == nil) != (want.series == nil) || n != len(want.buf) ||
				(n > 0 && got.bufferedAt(0) != want.buf[0]) {
				var gotFirst []subObs
				if n > 0 {
					gotFirst = append(gotFirst, got.bufferedAt(0))
				}
				t.Fatalf("ladder %v, late %d, observation %d at %d: activated %v, buffer %d from %v; asking every time: %v, %d from %v",
					ladder, tc.late, i, at, got.series != nil, n, gotFirst,
					want.series != nil, len(want.buf), want.buf[:min(1, len(want.buf))])
			}
			if i > 200000 {
				t.Fatalf("ladder %v, late %d: no activation in %d observations", ladder, tc.late, i)
			}
		}
		if got.series.WindowSec != want.series.WindowSec {
			t.Fatalf("ladder %v, late %d: window %d, asking every time %d", ladder, tc.late, got.series.WindowSec, want.series.WindowSec)
		}
		if trims == 0 {
			t.Fatalf("ladder %v, late %d: the buffer never trimmed", ladder, tc.late)
		}
		if !got.unsorted {
			t.Fatalf("ladder %v, late %d: the buffer never went out of order", ladder, tc.late)
		}
		t.Logf("ladder %v, late %d: %d trims, activated at %d s with %d-s windows", ladder, tc.late, trims, tm, got.series.WindowSec)
	}
}

// refRatioSeries is the reference model of a ratioSeries' buffer: every
// observation as it arrived, unpacked.
type refRatioSeries struct {
	buf    []subObs
	series *anomaly.WindowedSeries
}

// activateEveryTime is ratioSeries.activate without the bucket memo and
// without sorting: it counts the buffer in arrival order, rung by rung,
// as ChooseWindowMin did before it required ascending times.
func activateEveryTime(r *refRatioSeries, sh *sharedState, now int64) {
	if len(r.buf) < 2*anomaly.MinObservations {
		return
	}
	ladder := sh.cfg.PublicLadder
	if len(ladder) == 0 {
		ladder = []int64{900, 1800, 3600, 7200, 14400, 28800, 43200, 86400}
	}
rungs:
	for _, w := range ladder {
		startIdx := now/w - anomaly.MinObservations
		if startIdx < 0 {
			continue
		}
		var filled [anomaly.MinObservations]int
		for _, o := range r.buf {
			if k := o.t/w - startIdx; k >= 0 && k < anomaly.MinObservations {
				filled[k]++
			}
		}
		for _, f := range filled {
			if f < 2 {
				continue rungs
			}
		}
		r.series = &anomaly.WindowedSeries{WindowSec: w, Det: anomaly.NewZScore()}
		r.buf = nil
		return
	}
	if len(r.buf) > 4096 {
		r.buf = r.buf[len(r.buf)-2048:]
	}
}

// TestPackedObservationBounds: a buffered observation packs its time and
// match bit into one word only while the time survives the shift. At the
// packed range's ends the buffer stays packed; one past either end it
// turns wide for good, keeping every observation it already held, and
// every buffered observation reads back exactly as observed.
func TestPackedObservationBounds(t *testing.T) {
	sh := newSharedState(DefaultConfig(), nil, bgp.NewRIB())
	for _, tc := range []struct {
		edge, past int64
	}{{maxPackedTime, maxPackedTime + 1}, {minPackedTime, minPackedTime - 1}} {
		var r ratioSeries
		want := []subObs{{t: 5000, match: true}, {t: tc.edge, match: false}, {t: tc.edge, match: true}}
		for _, o := range want {
			r.observe(sh, o.t, o.match)
		}
		if r.wide != nil || len(r.buf) != len(want) {
			t.Fatalf("time %d: buffer wide=%v with %d packed, want %d packed", tc.edge, r.wide != nil, len(r.buf), len(want))
		}
		want = append(want, subObs{t: tc.past, match: true}, subObs{t: 7000, match: false})
		for _, o := range want[3:] {
			r.observe(sh, o.t, o.match)
		}
		if r.wide == nil || r.buf != nil {
			t.Fatalf("time %d did not turn the buffer wide", tc.past)
		}
		if r.buffered() != len(want) {
			t.Fatalf("%d observations buffered, want %d", r.buffered(), len(want))
		}
		for i, o := range want {
			if got := r.bufferedAt(i); got != o {
				t.Errorf("observation %d reads %+v, want %+v", i, got, o)
			}
		}
	}
}

// TestBorderIndexBound: a watcher keeps its border index in 32 bits, and
// corpus.Process bounds an entry's border path so that every index fits:
// the last index below corpus.MaxBorders narrows exactly, the first one
// past it panics instead of wrapping.
func TestBorderIndexBound(t *testing.T) {
	if got := borderOf(corpus.MaxBorders - 1); int(got) != corpus.MaxBorders-1 {
		t.Fatalf("borderOf(%d) = %d", corpus.MaxBorders-1, got)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("borderOf(%d) did not panic", corpus.MaxBorders)
		}
	}()
	b := borderOf(corpus.MaxBorders)
	t.Fatalf("borderOf(%d) = %d", corpus.MaxBorders, b)
}
