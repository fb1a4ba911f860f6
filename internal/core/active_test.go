package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/corpus"
	"rrr/internal/traceroute"
)

// activeModel is what a pair's active signals must be, built from the
// signal stream alone: a close appends the pair's signals of the window,
// and revocation, re-registration and removal drop the pair's list.
type activeModel struct {
	t     *testing.T
	lists map[traceroute.Key][]Signal
	// keys is every pair the workload ever registered or restored.
	keys map[traceroute.Key]bool
	// revSigs and revPairs are the engine's revocation totals as of the
	// last check; revoked counts the lists revocation dropped.
	revSigs, revPairs int
	revoked           int
}

func newActiveModel(t *testing.T) *activeModel {
	return &activeModel{t: t, lists: map[traceroute.Key][]Signal{}, keys: map[traceroute.Key]bool{}}
}

// closed checks e after a close that returned sigs (in signalLess order).
// A pair's list keeps its earlier signals in order and gains the window's
// signals of the pair; their order within the window is the emission
// order, which the stream does not carry, so the tail is compared as a
// multiset. A pair whose list the engine dropped must be one revocation
// accounts for.
func (m *activeModel) closed(e *Engine, step int, sigs []Signal) {
	m.t.Helper()
	added := map[traceroute.Key][]Signal{}
	for _, s := range sigs {
		added[s.Key] = append(added[s.Key], s)
		m.keys[s.Key] = true
	}
	revSigs, revPairs := 0, 0
	for _, k := range sortedKeys(m.keys) {
		want, add := m.lists[k], added[k]
		got := e.Active(k)
		if len(got) == 0 && len(want)+len(add) > 0 {
			revSigs += len(want) + len(add)
			revPairs++
			delete(m.lists, k)
			continue
		}
		if len(got) != len(want)+len(add) {
			m.t.Fatalf("step %d: %v holds %d signals, want %d held + %d raised", step, k, len(got), len(want), len(add))
		}
		if len(want) > 0 && !reflect.DeepEqual(got[:len(want)], want) {
			m.t.Fatalf("step %d: %v's earlier signals changed:\n got %v\nwant %v", step, k, got[:len(want)], want)
		}
		tail := slices.Clone(got[len(want):])
		sortSignals(tail)
		if len(add) > 0 && !reflect.DeepEqual(tail, add) {
			m.t.Fatalf("step %d: %v gained\n %v\nwant\n %v", step, k, tail, add)
		}
		if n := e.ActiveCount(k); n != len(got) {
			m.t.Fatalf("step %d: ActiveCount(%v) = %d, Active lists %d", step, k, n, len(got))
		}
		if len(got) > 0 {
			m.lists[k] = got
		}
	}
	s, p := e.RevocationStats()
	if s-m.revSigs != revSigs || p-m.revPairs != revPairs {
		m.t.Fatalf("step %d: revocation moved by %d signals in %d pairs; the model dropped %d in %d",
			step, s-m.revSigs, p-m.revPairs, revSigs, revPairs)
	}
	m.revSigs, m.revPairs = s, p
	m.revoked += revPairs
}

// dropped records that re-registration or removal cleared k.
func (m *activeModel) dropped(e *Engine, k traceroute.Key) {
	m.t.Helper()
	delete(m.lists, k)
	if n := e.ActiveCount(k); n != 0 {
		m.t.Fatalf("%v holds %d signals after leaving", k, n)
	}
}

// same fails unless e holds exactly the model's lists, in order.
func (m *activeModel) same(e *Engine, when string) {
	m.t.Helper()
	for _, k := range sortedKeys(m.keys) {
		if got, want := e.Active(k), m.lists[k]; !reflect.DeepEqual(got, want) {
			m.t.Fatalf("%s: %v holds\n %v\nwant\n %v", when, k, got, want)
		}
	}
}

func distinctProtos(e *Engine) int {
	seen := map[*sigProto]bool{}
	for _, recs := range e.active {
		for _, r := range recs {
			seen[r.proto] = true
		}
	}
	return len(seen)
}

func sortedKeys(set map[traceroute.Key]bool) []traceroute.Key {
	keys := make([]traceroute.Key, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Src != keys[j].Src {
			return keys[i].Src < keys[j].Src
		}
		return keys[i].Dst < keys[j].Dst
	})
	return keys
}

// TestActiveSignalsMatchModel drives seeded BGP churn and public traces
// that shift for stretches (so border-router and subpath monitors fire
// window after window) through an engine; re-registers, removes and adds
// pairs; restores every active signal into a second engine, which has no
// monitor behind them; and keeps going there until revocation clears
// pairs. After every close each pair's Active list must be the model's.
func TestActiveSignalsMatchModel(t *testing.T) {
	const w = int64(900)
	cfg := DefaultConfig()
	cfg.IXPBootstrapSec = 0
	rng := rand.New(rand.NewSource(49))
	corp := corpus.New(testMapper{}, identityAliases)
	m := newActiveModel(t)

	pfx4 := pfx(t, "4.0.0.0/8")
	basePath := func(v int) bgp.Path {
		if v >= 9 {
			return bgp.Path{bgp.ASN(50 + v), 8, 3, 4}
		}
		return bgp.Path{bgp.ASN(50 + v), 2, 3, 4}
	}
	comm := bgp.MakeCommunity(3, 100)
	type vpState struct {
		path   bgp.Path
		comms  bgp.Communities
		routed bool
	}
	vps := make([]vpState, 12)
	for v := range vps {
		vps[v] = vpState{path: basePath(v), routed: true}
	}
	var e *Engine
	send := func(tm int64, v int) {
		u := bgp.Update{Time: tm, PeerIP: uint32(50+v)<<24 | 9, PeerAS: bgp.ASN(50 + v), Prefix: pfx4}
		if st := vps[v]; st.routed {
			u.Type, u.ASPath, u.Communities = bgp.Announce, st.path, st.comms
		} else {
			u.Type = bgp.Withdraw
		}
		e.ObserveBGP(u)
	}
	// fresh builds an engine whose RIB holds the VPs' current routes.
	fresh := func(tm int64) {
		e = NewEngine(cfg, testMapper{}, identityAliases, workloadGeo(), workloadRel())
		for v := range vps {
			if vps[v].routed {
				send(tm, v)
			}
		}
	}
	fresh(0)

	tracked := map[traceroute.Key]*corpus.Entry{}
	var order []traceroute.Key // registration order
	track := func(en *corpus.Entry) {
		if _, ok := tracked[en.Key]; !ok {
			order = append(order, en.Key)
		}
		tracked[en.Key] = en
		m.keys[en.Key] = true
		e.AddCorpusEntry(en)
	}
	addEntry := func(tm int64, srcNet, i uint32) *corpus.Entry {
		t.Helper()
		en, err := corp.Process(mkTraceIPs(tm,
			srcNet<<24|i, 4<<24|(srcNet*100)+i,
			srcNet<<24|(i+50), 2<<24|1, 3<<24|1, 4<<24|2, 4<<24|(srcNet*100)+i))
		if err != nil {
			t.Fatal(err)
		}
		track(en)
		return en
	}
	var entries []*corpus.Entry
	for i := uint32(1); i <= 20; i++ {
		entries = append(entries, addEntry(0, 1, i))
	}

	end, step := int64(0), 0
	shifted := false
	closeW := func() {
		mid := uint32(3<<24 | 1)
		if shifted != (rng.Intn(12) == 0) {
			mid = 3<<24 | 9
		}
		e.ObservePublicTrace(mkTraceIPs(end+7,
			9<<24|1, 4<<24|8, 9<<24|2, 2<<24|1, mid, 4<<24|2, 4<<24|8))
		step++
		m.closed(e, step, e.CloseWindow(end))
		end += w
	}
	churn := func() {
		for v := range vps {
			tm := end + int64(10+v)
			switch r := rng.Intn(100); {
			case !vps[v].routed:
				if r < 50 {
					vps[v].routed = true
					send(tm, v)
				}
			case r < 4:
				vps[v].path = bgp.Path{bgp.ASN(50 + v), 2, 9, 4}
				send(tm, v)
			case r < 10:
				vps[v].path = basePath(v)
				send(tm, v)
			case r < 22:
				for rep := 0; rep < 1+rng.Intn(3); rep++ {
					send(tm+int64(rep), v)
				}
			case r < 28 && v <= 3:
				if len(vps[v].comms) == 0 {
					vps[v].comms = bgp.Communities{comm}
				} else {
					vps[v].comms = nil
				}
				send(tm, v)
			case r < 29:
				vps[v].routed = false
				send(tm, v)
			}
		}
	}
	settle := func() {
		for v := range vps {
			if st := vps[v]; !st.routed || !st.path.Equal(basePath(v)) || st.comms != nil {
				vps[v] = vpState{path: basePath(v), routed: true}
				send(end+int64(20+v), v)
			}
		}
	}
	run := func(n int, bgpChurn bool) {
		for i := 0; i < n; i++ {
			if bgpChurn {
				churn()
			}
			closeW()
		}
	}

	// A shift while BGP churns, then every route back at baseline until
	// revocation clears the pairs.
	run(60, true)
	shifted = true
	run(15, true)
	shifted = false
	settle()
	run(40, false)
	if m.revoked == 0 {
		t.Fatal("no pair was revoked before the restore; the workload is too weak")
	}
	run(10, true)

	// Re-register and remove pairs that hold signals, and add new ones.
	for _, en := range entries[:3] {
		track(en)
		m.dropped(e, en.Key)
	}
	for _, en := range entries[3:5] {
		e.RemovePair(en.Key)
		delete(tracked, en.Key)
		m.dropped(e, en.Key)
	}
	for i := uint32(1); i <= 4; i++ {
		entries = append(entries, addEntry(end, 7, i))
	}
	shifted = true
	run(15, true)
	shifted = false
	run(5, true)
	settle()

	// Snapshot every active signal and restore it into a fresh engine
	// tracking the same pairs over the same routes. Revocation skips the
	// restored pairs until they raise a signal of their own.
	var snap []Signal
	for _, k := range sortedKeys(m.keys) {
		snap = append(snap, e.Active(k)...)
	}
	// A monitor's repeats share one prototype.
	held, protos := len(snap), distinctProtos(e)
	if held == 0 || 2*protos > held {
		t.Fatalf("%d signals held on %d prototypes; want repeats sharing them", held, protos)
	}
	fresh(end)
	for _, k := range order {
		if en, ok := tracked[k]; ok {
			e.AddCorpusEntry(en)
		}
	}
	e.RestoreActive(snap)
	m.revSigs, m.revPairs = 0, 0
	m.same(e, "after restore")
	before := m.revoked

	run(60, true)
	shifted = true
	run(15, true)
	shifted = false
	settle()
	run(60, false)
	if m.revoked == before {
		t.Error("no pair was revoked after the restore; the workload is too weak")
	}
	t.Logf("%d closes; %d signals restored, %d held on %d prototypes before the restore; %d pair lists revoked",
		step, len(snap), held, protos, m.revoked)
}

// TestActiveSignalHeap is the ratchet on what an active signal holds: 150
// pairs watch one subpath and one border router that public traces move
// away from for 90 windows, so each pair's monitors fire window after
// window (no BGP monitor is registered, so nothing revokes them). The live
// heap the pairs' active signals hold, measured by dropping them after a
// full collection, is at most activeSigBudget bytes per signal. It reads
// 27.8 to 28.2 B (GOMAXPROCS 1 to 4, and under the race detector), and
// the budget sits 5 % above. Held as Signal values in append-grown slices,
// each with its own Detail string, they took 214 B per signal here.
func TestActiveSignalHeap(t *testing.T) {
	const activeSigBudget = 29.6

	const w = int64(900)
	cfg := DefaultConfig()
	cfg.IXPBootstrapSec = 0
	e := NewEngine(cfg, testMapper{}, identityAliases, workloadGeo(), workloadRel())
	corp := corpus.New(testMapper{}, identityAliases)
	var keys []traceroute.Key
	for i := uint32(1); i <= 150; i++ {
		en, err := corp.Process(mkTraceIPs(0, 1<<24|i, 4<<24|1000+i,
			1<<24|(i+1000), 2<<24|1, 3<<24|1, 4<<24|2, 4<<24|1000+i))
		if err != nil {
			t.Fatal(err)
		}
		e.AddCorpusEntry(en)
		keys = append(keys, en.Key)
	}
	for i := int64(0); i < 150; i++ {
		mid := uint32(3<<24 | 1)
		if i >= 60 {
			mid = 3<<24 | 9
		}
		e.ObservePublicTrace(mkTraceIPs(i*w+7,
			9<<24|1, 4<<24|8, 9<<24|2, 2<<24|1, mid, 4<<24|2, 4<<24|8))
		e.CloseWindow(i * w)
	}
	held := 0
	monitors := map[[2]int]bool{}
	for _, k := range keys {
		for _, s := range e.Active(k) {
			held++
			monitors[[2]int{int(k.Src), s.MonitorID}] = true
		}
	}
	if held < 10000 || 20*len(monitors) > held {
		t.Fatalf("%d active signals from %d (pair, monitor)s; want at least 10 000 repeating ones", held, len(monitors))
	}
	before := heapAfterGC()
	for _, k := range keys {
		e.clearActive(k)
	}
	after := heapAfterGC()
	runtime.KeepAlive(e)
	perSig := float64(int64(before)-int64(after)) / float64(held)
	t.Logf("%d active signals from %d (pair, monitor)s, %.1f B of live heap each (budget %.1f)",
		held, len(monitors), perSig, activeSigBudget)
	if perSig > activeSigBudget {
		t.Errorf("an active signal holds %.1f B, budget %.1f", perSig, activeSigBudget)
	}
}

// heapAfterGC is the heap in use after a full collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
