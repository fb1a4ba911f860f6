package rrr

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/bordermap"
)

// facadeMapper: AS by first octet; 240.x is IXP 1.
type facadeMapper struct{}

func (facadeMapper) ASOf(ip uint32) (bgp.ASN, bool) {
	f := ip >> 24
	if f == 240 || f == 0 {
		return 0, false
	}
	return bgp.ASN(f), true
}

func (facadeMapper) IXPOf(ip uint32) (int, bool) {
	if ip>>24 == 240 {
		return 1, true
	}
	return 0, false
}

func ip(t *testing.T, s string) uint32 {
	t.Helper()
	v, err := ParseIP(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func trace(t *testing.T, when int64, src, dst string, hops ...string) *Traceroute {
	t.Helper()
	tr := &Traceroute{Src: ip(t, src), Dst: ip(t, dst), Time: when}
	for i, h := range hops {
		hop := Hop{TTL: i + 1}
		if h != "*" {
			hop.IP = ip(t, h)
		}
		tr.Hops = append(tr.Hops, hop)
	}
	return tr
}

func newTestMonitor(t *testing.T) *Monitor {
	t.Helper()
	aliases := bordermap.OracleFunc(func(v uint32) (int, bool) { return int(v), true })
	m, err := NewMonitor(Options{Mapper: facadeMapper{}, Aliases: aliases})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func announceUpd(t *testing.T, tm int64, vpIP string, as ASN, prefix string, path []ASN) Update {
	t.Helper()
	p, err := ParsePrefix(prefix)
	if err != nil {
		t.Fatal(err)
	}
	return Update{Time: tm, PeerIP: ip(t, vpIP), PeerAS: as, Type: bgp.Announce,
		Prefix: p, ASPath: path}
}

func TestMonitorRequiresMapper(t *testing.T) {
	if _, err := NewMonitor(Options{}); err == nil {
		t.Fatal("want error without mapper")
	}
}

// TestAdvanceNegativeFirstWindow pins the floor-division first-window snap:
// a pre-epoch observation at t=-450 belongs to window [-900, 0), so
// Advance(900) must close two windows (-900 and 0). Truncating division
// would snap the first window to 0 and close only one.
func TestAdvanceNegativeFirstWindow(t *testing.T) {
	m := newTestMonitor(t)
	m.ObserveBGP(announceUpd(t, -450, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	m.Advance(900)
	if n := m.WindowsClosed(); n != 2 {
		t.Fatalf("WindowsClosed = %d; want 2 (windows -900 and 0)", n)
	}
}

func TestMonitorEndToEnd(t *testing.T) {
	m := newTestMonitor(t)
	// Prime the RIB: two VPs with routes to 4.0.0.0/8.
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	m.ObserveBGP(announceUpd(t, 0, "6.0.0.9", 6, "4.0.0.0/8", []ASN{6, 3, 4}))

	// Track a corpus traceroute.
	tr := trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.2", "4.0.0.9")
	if err := m.Track(tr); err != nil {
		t.Fatal(err)
	}
	if len(m.Tracked()) != 1 {
		t.Fatal("Tracked != 1")
	}
	if len(m.Potential(tr.Key())) == 0 {
		t.Fatal("no potential signals")
	}

	// Quiet windows via Advance, then a suffix change.
	if sigs := m.Advance(45 * 900); len(sigs) != 0 {
		t.Fatalf("quiet advance produced %d signals", len(sigs))
	}
	m.ObserveBGP(announceUpd(t, 45*900+5, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 9, 4}))
	sigs := m.Advance(46 * 900)
	if len(sigs) == 0 {
		t.Fatal("suffix change produced no signals")
	}
	if !m.Stale(tr.Key()) {
		t.Fatal("pair should be stale")
	}
	if len(m.StaleKeys()) != 1 {
		t.Fatal("StaleKeys != 1")
	}

	// Refresh planning respects budget.
	plan := m.PlanRefresh(1, rand.New(rand.NewSource(1)))
	if len(plan) != 1 || plan[0] != tr.Key() {
		t.Fatalf("plan = %v", plan)
	}

	// Record a refresh showing the change.
	fresh := trace(t, 46*900, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "9.0.0.1", "4.0.0.3", "4.0.0.9")
	cls, err := m.RecordRefresh(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if cls != ASChange {
		t.Fatalf("cls = %v; want AS change", cls)
	}
	if m.Stale(tr.Key()) {
		t.Fatal("refresh should clear staleness")
	}
	counts := m.SignalCounts()
	if counts[TechBGPASPath] == 0 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestMonitorUntrack(t *testing.T) {
	m := newTestMonitor(t)
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	tr := trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if err := m.Track(tr); err != nil {
		t.Fatal(err)
	}
	m.Untrack(tr.Key())
	if len(m.Tracked()) != 0 || len(m.Potential(tr.Key())) != 0 {
		t.Fatal("untrack incomplete")
	}
}

// TestChangedSinceLog: every state version logs the pairs it changed, and
// a reader the log no longer reaches back to, or one behind a restore, is
// told "all".
func TestChangedSinceLog(t *testing.T) {
	m := newTestMonitor(t)
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	tr := trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	v0 := m.StateVersion()
	if keys, all, now := m.ChangedSince(v0); len(keys) != 0 || all || now != v0 {
		t.Fatalf("ChangedSince(current) = %v, %v, %d; want nothing at %d", keys, all, now, v0)
	}
	if err := m.Track(tr); err != nil {
		t.Fatal(err)
	}
	m.Untrack(tr.Key())
	m.Advance(900) // quiet: logs no pair
	keys, all, now := m.ChangedSince(v0)
	if all || now != v0+3 || !reflect.DeepEqual(keys, []Key{tr.Key(), tr.Key()}) {
		t.Fatalf("after track, untrack, quiet close: %v, %v, %d; want the pair twice at %d", keys, all, now, v0+3)
	}

	for i := 0; i < changeLogLen; i++ {
		if err := m.Track(tr); err != nil {
			t.Fatal(err)
		}
	}
	if _, all, _ := m.ChangedSince(v0); !all {
		t.Fatalf("ChangedSince(%d), %d versions back: not all", v0, m.StateVersion()-v0)
	}
	if keys, all, _ := m.ChangedSince(m.StateVersion() - changeLogLen); all || len(keys) != changeLogLen {
		t.Fatalf("ChangedSince the log's oldest version: %d keys, all %v; want %d", len(keys), all, changeLogLen)
	}

	m2 := newTestMonitor(t)
	v := m2.StateVersion()
	if err := m2.Restore(m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, all, _ := m2.ChangedSince(v); !all {
		t.Fatal("ChangedSince across a restore: not all")
	}
}

func TestMonitorClassifyReadOnly(t *testing.T) {
	m := newTestMonitor(t)
	tr := trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if err := m.Track(tr); err != nil {
		t.Fatal(err)
	}
	same := trace(t, 900, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	cls, err := m.Classify(same)
	if err != nil || cls != Unchanged {
		t.Fatalf("classify same = %v, %v", cls, err)
	}
	diff := trace(t, 900, "1.0.0.1", "4.0.0.9", "1.0.0.2", "7.0.0.1", "3.0.0.1", "4.0.0.9")
	cls, err = m.Classify(diff)
	if err != nil || cls != ASChange {
		t.Fatalf("classify diff = %v, %v", cls, err)
	}
	// Classify must not replace the stored entry.
	en, _ := m.Entry(tr.Key())
	if en.Trace.Time != 0 {
		t.Fatal("classify replaced entry")
	}
}

func TestMonitorTrackRejectsLoops(t *testing.T) {
	m := newTestMonitor(t)
	loop := trace(t, 0, "1.0.0.1", "1.0.0.9", "1.0.0.2", "2.0.0.1", "1.0.0.3")
	if err := m.Track(loop); err == nil {
		t.Fatal("AS-loop trace accepted")
	}
}

func TestNewRIBFromUpdates(t *testing.T) {
	ups := []Update{
		announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 4}),
		announceUpd(t, 1, "6.0.0.9", 6, "4.0.0.0/8", []ASN{6, 4}),
	}
	rib := NewRIBFromUpdates(ups)
	if got := len(rib.VPs()); got != 2 {
		t.Fatalf("VPs = %d; want 2", got)
	}
}

func TestMonitorPrunedCommunities(t *testing.T) {
	m := newTestMonitor(t)
	if m.PrunedCommunities() != 0 {
		t.Fatal("fresh monitor has pruned communities")
	}
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	m.ObserveBGP(announceUpd(t, 0, "6.0.0.9", 6, "4.0.0.0/8", []ASN{6, 3, 4}))
	tr := trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if err := m.Track(tr); err != nil {
		t.Fatal(err)
	}
	m.Advance(3 * 900)
	// A community change that repeated refreshes disprove gets pruned.
	u := announceUpd(t, 3*900+5, "6.0.0.9", 6, "4.0.0.0/8", []ASN{6, 3, 4})
	u.Communities = Communities3(3, 7000)
	m.ObserveBGP(u)
	m.Advance(4 * 900)
	if !m.Stale(tr.Key()) {
		t.Fatal("community signal missing")
	}
	// Refresh shows no change: community outcome recorded as FP.
	same := trace(t, 4*900, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if _, err := m.RecordRefresh(same); err != nil {
		t.Fatal(err)
	}
	if m.PrunedCommunities() == 0 {
		t.Fatal("false-positive community not pruned (quota 1)")
	}
}

// Communities3 builds a one-element community set (test helper).
func Communities3(as ASN, v uint16) []Community {
	return []Community{MakeCommunity(as, v)}
}

func TestCloseWindowThenAdvanceNoDoubleClose(t *testing.T) {
	m := newTestMonitor(t)
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	tr := trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if err := m.Track(tr); err != nil {
		t.Fatal(err)
	}
	m.CloseWindow(0)
	// Advance must resume at window 1, not re-close window 0; with 45
	// total windows of history the detector behaves identically to the
	// pure-Advance path.
	m.Advance(45 * 900)
	m.ObserveBGP(announceUpd(t, 45*900+5, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 9, 4}))
	if sigs := m.Advance(46 * 900); len(sigs) == 0 {
		t.Fatal("mixed CloseWindow/Advance missed the change")
	}
}

func TestActiveSignalsAndFormatIP(t *testing.T) {
	m := newTestMonitor(t)
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	tr := trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if err := m.Track(tr); err != nil {
		t.Fatal(err)
	}
	m.Advance(45 * 900)
	m.ObserveBGP(announceUpd(t, 45*900+5, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 9, 4}))
	m.Advance(46 * 900)
	sigs := m.ActiveSignals(tr.Key())
	if len(sigs) == 0 {
		t.Fatal("no active signals")
	}
	if got := FormatIP(tr.Key().Src); got != "1.0.0.1" {
		t.Fatalf("FormatIP = %q", got)
	}
	// RecordRefresh on an untracked pair errors cleanly via Classify path.
	other := trace(t, 0, "8.0.0.1", "4.0.0.9", "8.0.0.2", "4.0.0.9")
	if _, err := m.RecordRefresh(other); err != nil {
		t.Fatalf("refresh of untracked pair should register it: %v", err)
	}
	if _, ok := m.Entry(other.Key()); !ok {
		t.Fatal("untracked refresh did not store entry")
	}
}

func TestRevocationStats(t *testing.T) {
	m := newTestMonitor(t)
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	tr := trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if err := m.Track(tr); err != nil {
		t.Fatal(err)
	}
	m.Advance(45 * 900)
	m.ObserveBGP(announceUpd(t, 45*900+5, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 9, 4}))
	m.Advance(46 * 900)
	if !m.Stale(tr.Key()) {
		t.Fatal("not stale")
	}
	// Revert and settle.
	m.ObserveBGP(announceUpd(t, 46*900+5, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	m.Advance(48 * 900)
	if m.Stale(tr.Key()) {
		t.Fatal("still stale after revert")
	}
	sigs, pairs := m.RevocationStats()
	if sigs == 0 || pairs == 0 {
		t.Fatalf("revocation stats = %d, %d; want > 0", sigs, pairs)
	}
}

// countingMapper counts ASOf calls, exposing how many times a traceroute
// was processed (border mapping resolves every hop).
type countingMapper struct {
	facadeMapper
	calls *int
}

func (m countingMapper) ASOf(ip uint32) (bgp.ASN, bool) {
	*m.calls++
	return m.facadeMapper.ASOf(ip)
}

// TestRecordRefreshSingleProcess is the regression test for RecordRefresh
// processing the traceroute twice and re-registering a different *Entry
// than the one it stored, leaving engine and corpus on different pointers.
func TestRecordRefreshSingleProcess(t *testing.T) {
	calls := 0
	aliases := bordermap.OracleFunc(func(v uint32) (int, bool) { return int(v), true })
	m, err := NewMonitor(Options{Mapper: countingMapper{calls: &calls}, Aliases: aliases})
	if err != nil {
		t.Fatal(err)
	}
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	tr := trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if err := m.Track(tr); err != nil {
		t.Fatal(err)
	}

	calls = 0
	fresh := trace(t, 900, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if _, err := m.RecordRefresh(fresh); err != nil {
		t.Fatal(err)
	}
	refreshCalls := calls
	calls = 0
	if err := m.Track(trace(t, 1800, "1.0.0.1", "4.0.0.9",
		"1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")); err != nil {
		t.Fatal(err)
	}
	if refreshCalls > calls {
		t.Errorf("RecordRefresh resolved %d hops, Track only %d: trace processed more than once", refreshCalls, calls)
	}

	// Corpus and engine must share one entry, holding the fresh trace.
	fresh2 := trace(t, 2700, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if _, err := m.RecordRefresh(fresh2); err != nil {
		t.Fatal(err)
	}
	stored, ok := m.corp.Get(fresh2.Key())
	if !ok || stored.Trace != fresh2 {
		t.Fatal("corpus does not hold the fresh measurement")
	}
	reg, ok := m.engine.Entry(fresh2.Key())
	if !ok || reg != stored {
		t.Fatal("engine and corpus hold different entry pointers")
	}
}

// TestAdvanceEpochTimestamps is the regression test for Advance's first
// call iterating empty windows from time 0: with realistic epoch
// timestamps it used to close ~1.8 million windows before reaching the
// feed.
func TestAdvanceEpochTimestamps(t *testing.T) {
	const start = int64(1_600_000_000)
	m := newTestMonitor(t)
	m.ObserveBGP(announceUpd(t, start, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	tr := trace(t, start, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if err := m.Track(tr); err != nil {
		t.Fatal(err)
	}
	m.Advance(start + 3*900)
	if n := m.engine.WindowsClosed(); n > 4 {
		t.Fatalf("Advance from epoch closed %d windows; want the feed's ~3", n)
	}
	// And the snapped grid still detects changes.
	m.Advance(start + 45*900)
	m.ObserveBGP(announceUpd(t, start+45*900+5, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 9, 4}))
	if sigs := m.Advance(start + 46*900); len(sigs) == 0 {
		t.Fatal("suffix change missed on epoch-aligned grid")
	}

	// First call with no prior observations snaps to the target time.
	m2 := newTestMonitor(t)
	m2.Advance(start)
	if n := m2.engine.WindowsClosed(); n != 0 {
		t.Fatalf("empty advance closed %d windows", n)
	}
}

// TestPlanRefreshNilRNG: a nil *rand.Rand must not panic and must pick a
// fresh deterministic source per call, so concurrent handlers can share
// the endpoint without a shared-RNG race.
func TestPlanRefreshNilRNG(t *testing.T) {
	m := newTestMonitor(t)
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	for i := uint32(1); i <= 6; i++ {
		tr := &Traceroute{Src: 1<<24 | i, Dst: 4<<24 | 100 + i, Time: 0}
		for j, h := range []uint32{1<<24 | (i + 50), 2<<24 | 1, 3<<24 | 1, 4<<24 | 100 + i} {
			tr.Hops = append(tr.Hops, Hop{TTL: j + 1, IP: h})
		}
		if err := m.Track(tr); err != nil {
			t.Fatal(err)
		}
	}
	m.Advance(45 * 900)
	m.ObserveBGP(announceUpd(t, 45*900+5, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 9, 4}))
	m.Advance(46 * 900)
	if len(m.StaleKeys()) == 0 {
		t.Fatal("scenario produced no stale pairs")
	}

	p1 := m.PlanRefresh(3, nil)
	if len(p1) != 3 {
		t.Fatalf("plan = %v", p1)
	}
	p2 := m.PlanRefresh(3, nil)
	if len(p1) != len(p2) {
		t.Fatalf("nil-rng plans differ in size: %v vs %v", p1, p2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("nil-rng plan not deterministic: %v vs %v", p1, p2)
		}
	}
}

// TestTrackedAndStaleKeysSorted locks in the documented deterministic
// (Src, Dst) ordering regardless of insertion order.
func TestTrackedAndStaleKeysSorted(t *testing.T) {
	m := newTestMonitor(t)
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	// Track in descending src order.
	for _, src := range []string{"8.0.0.1", "3.0.0.1", "1.0.0.1"} {
		tr := trace(t, 0, src, "4.0.0.9", "2.0.0.1", "3.0.0.1", "4.0.0.9")
		if err := m.Track(tr); err != nil {
			t.Fatal(err)
		}
	}
	sorted := func(keys []Key) bool {
		for i := 1; i < len(keys); i++ {
			a, b := keys[i-1], keys[i]
			if a.Src > b.Src || (a.Src == b.Src && a.Dst >= b.Dst) {
				return false
			}
		}
		return true
	}
	if keys := m.Tracked(); len(keys) != 3 || !sorted(keys) {
		t.Fatalf("Tracked not sorted: %v", keys)
	}
	m.Advance(45 * 900)
	m.ObserveBGP(announceUpd(t, 45*900+5, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 9, 4}))
	m.Advance(46 * 900)
	if keys := m.StaleKeys(); len(keys) < 2 || !sorted(keys) {
		t.Fatalf("StaleKeys not sorted: %v", keys)
	}
}

// TestSnapshotRestore round-trips the monitor's restartable state: corpus,
// active signals, window clock, and cumulative counters.
func TestSnapshotRestore(t *testing.T) {
	m, _ := snapshotScenario(t)
	snap := m.Snapshot()
	if len(snap.Traces) != 1 || len(snap.Active) == 0 {
		t.Fatalf("snapshot = %d traces, %d signals", len(snap.Traces), len(snap.Active))
	}

	m2 := newTestMonitor(t)
	if err := m2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	k := snap.Traces[0].Key()
	if !m2.Stale(k) {
		t.Fatal("restored monitor lost staleness")
	}
	if got, want := m2.Tracked(), m.Tracked(); len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("Tracked = %v, want %v", got, want)
	}
	got, want := m2.SignalCounts(), m.SignalCounts()
	for tech, n := range want {
		if got[tech] != n {
			t.Fatalf("SignalCounts[%v] = %d, want %d", tech, got[tech], n)
		}
	}
	if m2.WindowsClosed() != m.WindowsClosed() {
		t.Fatalf("WindowsClosed = %d, want %d", m2.WindowsClosed(), m.WindowsClosed())
	}

	// The restored monitor keeps working: a refresh clears the staleness
	// and counters keep accumulating on top of the restored baseline.
	fresh := trace(t, 47*900, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "9.0.0.1", "4.0.0.3", "4.0.0.9")
	if cls, err := m2.RecordRefresh(fresh); err != nil || cls != ASChange {
		t.Fatalf("refresh on restored monitor = %v, %v", cls, err)
	}
	if m2.Stale(k) {
		t.Fatal("refresh did not clear restored staleness")
	}

	// Snapshots chain: a second snapshot of the restored monitor carries
	// the combined counters.
	snap2 := m2.Snapshot()
	if snap2.WindowsClosed != m2.WindowsClosed() {
		t.Fatalf("second snapshot windows = %d, want %d", snap2.WindowsClosed, m2.WindowsClosed())
	}

	// Window-size mismatch is refused.
	bad := *snap
	bad.WindowSec = snap.WindowSec + 1
	if err := newTestMonitor(t).Restore(&bad); err == nil {
		t.Fatal("WindowSec mismatch accepted")
	}
}

// snapshotScenario: one tracked pair, gone stale via an AS-path change.
func snapshotScenario(t *testing.T) (*Monitor, *Traceroute) {
	t.Helper()
	m := newTestMonitor(t)
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	tr := trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if err := m.Track(tr); err != nil {
		t.Fatal(err)
	}
	m.Advance(45 * 900)
	m.ObserveBGP(announceUpd(t, 45*900+5, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 9, 4}))
	m.Advance(46 * 900)
	if !m.Stale(tr.Key()) {
		t.Fatal("scenario setup: pair not stale")
	}
	return m, tr
}

// TestMonitorConcurrentAccess drives feeds and queries from separate
// goroutines; run with -race it checks the Monitor's locking.
func TestMonitorConcurrentAccess(t *testing.T) {
	m := newTestMonitor(t)
	m.ObserveBGP(announceUpd(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []ASN{5, 2, 3, 4}))
	tr := trace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	if err := m.Track(tr); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				m.Stale(tr.Key())
				m.ActiveSignals(tr.Key())
				m.SignalCounts()
				m.Tracked()
				m.StaleKeys()
				m.PrunedCommunities()
			}
		}()
	}
	// One feeder: feeds stay time-ordered.
	for w := int64(0); w < 50; w++ {
		path := []ASN{5, 2, 3, 4}
		if w%7 == 0 {
			path = []ASN{5, 2, 9, 4}
		}
		m.ObserveBGP(announceUpd(t, w*900+5, "5.0.0.9", 5, "4.0.0.0/8", path))
		m.Advance((w + 1) * 900)
	}
	close(done)
	wg.Wait()
}
