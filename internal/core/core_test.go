package core

import (
	"math/rand"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/corpus"
	"rrr/internal/traceroute"
	"rrr/internal/trie"
)

// The test universe: AS i owns i.0.0.0/8; 240.x is IXP 1 with members
// resolved via ixpMembers below.
type testMapper struct{}

var ixpIfaceMember = map[uint32]bgp.ASN{}

func (testMapper) ASOf(ip uint32) (bgp.ASN, bool) {
	f := ip >> 24
	if f == 240 || f == 0 || f == 99 {
		return 0, false
	}
	return bgp.ASN(f), true
}

func (testMapper) IXPOf(ip uint32) (int, bool) {
	if ip>>24 == 240 {
		return 1, true
	}
	return 0, false
}

func (testMapper) IXPMemberOf(ip uint32) (bgp.ASN, bool) {
	as, ok := ixpIfaceMember[ip]
	return as, ok
}

// identityAliases: every interface is its own router.
var identityAliases = bordermap.OracleFunc(func(ip uint32) (int, bool) {
	return int(ip), true
})

// mapGeo locates IPs via an explicit map.
type mapGeo map[uint32]int

func (g mapGeo) LocateCity(ip uint32, _ int64) (int, bool) {
	c, ok := g[ip]
	return c, ok
}

// mapRel answers relationship queries from an explicit table.
type mapRel map[[2]bgp.ASN]Rel

func (r mapRel) Rel(a, b bgp.ASN) Rel { return r[[2]bgp.ASN{a, b}] }

func mustIP(t *testing.T, s string) uint32 {
	t.Helper()
	v, err := trie.ParseIP(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func mkTrace(t *testing.T, when int64, src, dst string, hops ...string) *traceroute.Traceroute {
	t.Helper()
	tr := &traceroute.Traceroute{Src: mustIP(t, src), Dst: mustIP(t, dst), Time: when, ProbeID: 1}
	for i, h := range hops {
		hop := traceroute.Hop{TTL: i + 1}
		if h != "*" {
			hop.IP = mustIP(t, h)
		}
		tr.Hops = append(tr.Hops, hop)
	}
	if n := len(tr.Hops); n > 0 && tr.Hops[n-1].IP == tr.Dst {
		tr.Reached = true
	}
	return tr
}

func pfx(t *testing.T, s string) trie.Prefix {
	t.Helper()
	p, err := trie.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func announce(t *testing.T, tm int64, vpIP string, vpAS bgp.ASN, prefix string, path bgp.Path, comms bgp.Communities) bgp.Update {
	t.Helper()
	return bgp.Update{
		Time: tm, PeerIP: mustIP(t, vpIP), PeerAS: vpAS, Type: bgp.Announce,
		Prefix: pfx(t, prefix), ASPath: path, Communities: comms,
	}
}

type testEnv struct {
	e    *Engine
	corp *corpus.Corpus
	geo  mapGeo
	rel  mapRel
}

func newEnv(t *testing.T) *testEnv {
	t.Helper()
	geo := mapGeo{}
	rel := mapRel{}
	cfg := DefaultConfig()
	cfg.IXPBootstrapSec = 0 // unit tests exercise signals from t=0
	e := NewEngine(cfg, testMapper{}, identityAliases, geo, rel)
	return &testEnv{
		e:    e,
		corp: corpus.New(testMapper{}, identityAliases),
		geo:  geo,
		rel:  rel,
	}
}

// primeVPs announces the two standard VP routes to 4.0.0.0/8:
//
//	vpA 5.0.0.9 (AS5): 5 2 3 4
//	vpB 6.0.0.9 (AS6): 6 3 4
func (te *testEnv) primeVPs(t *testing.T) {
	t.Helper()
	te.e.ObserveBGP(announce(t, 0, "5.0.0.9", 5, "4.0.0.0/8", bgp.Path{5, 2, 3, 4}, nil))
	te.e.ObserveBGP(announce(t, 0, "6.0.0.9", 6, "4.0.0.0/8", bgp.Path{6, 3, 4}, nil))
}

// standardEntry registers the corpus traceroute 1.0.0.1 → 4.0.0.9 with AS
// path 1 2 3 4 and an AS4 backbone hop shared with public traces.
func (te *testEnv) standardEntry(t *testing.T) *corpus.Entry {
	t.Helper()
	tr := mkTrace(t, 0, "1.0.0.1", "4.0.0.9",
		"1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.2", "4.0.0.9")
	en, err := te.corp.Process(tr)
	if err != nil {
		t.Fatal(err)
	}
	te.e.AddCorpusEntry(en)
	return en
}

// warm runs n quiet windows.
func (te *testEnv) warm(t *testing.T, from int64, n int) int64 {
	t.Helper()
	w := te.e.cfg.WindowSec
	for i := int64(0); i < int64(n); i++ {
		if sigs := te.e.CloseWindow(from + i*w); len(sigs) != 0 {
			t.Fatalf("quiet window %d produced signals: %v", i, sigs)
		}
	}
	return from + int64(n)*w
}

func TestRegistrationCreatesMonitors(t *testing.T) {
	te := newEnv(t)
	te.primeVPs(t)
	en := te.standardEntry(t)
	regs := te.e.Registrations(en.Key)
	counts := make(map[Technique]int)
	for _, r := range regs {
		counts[r.Technique]++
	}
	if counts[TechBGPASPath] == 0 {
		t.Error("no AS-path monitors")
	}
	if counts[TechBGPBurst] == 0 {
		t.Error("no burst monitors")
	}
	if counts[TechBGPCommunity] == 0 {
		t.Error("no community monitor")
	}
	if counts[TechTraceSubpath] == 0 {
		t.Error("no subpath monitors")
	}
	if len(en.Borders) != 3 {
		t.Fatalf("expected 3 borders, got %d", len(en.Borders))
	}
}

func TestASPathSignalOnSuffixChange(t *testing.T) {
	te := newEnv(t)
	te.primeVPs(t)
	en := te.standardEntry(t)
	end := te.warm(t, 0, 45)

	// vpA's path shifts inside the suffix: 5 2 9 4 still first-intersects
	// τ at AS2 but no longer matches the suffix 2 3 4.
	te.e.ObserveBGP(announce(t, end+10, "5.0.0.9", 5, "4.0.0.0/8", bgp.Path{5, 2, 9, 4}, nil))
	sigs := te.e.CloseWindow(end)
	var got []Signal
	for _, s := range sigs {
		if s.Technique == TechBGPASPath && s.Key == en.Key {
			got = append(got, s)
		}
	}
	if len(got) == 0 {
		t.Fatalf("no AS-path signal; window sigs = %v", sigs)
	}
	if len(got[0].Borders) == 0 {
		t.Error("signal covers no borders")
	}
	if len(te.e.Active(en.Key)) == 0 {
		t.Error("signal not tracked as active")
	}
}

func TestASPathMissingWindowsNotOutliers(t *testing.T) {
	te := newEnv(t)
	te.primeVPs(t)
	te.standardEntry(t)
	end := te.warm(t, 0, 30)
	// Withdraw both VP routes: P_intersect becomes empty → missing, never
	// an outlier.
	te.e.ObserveBGP(bgp.Update{Time: end + 1, PeerIP: mustIP(t, "5.0.0.9"), PeerAS: 5,
		Type: bgp.Withdraw, Prefix: pfx(t, "4.0.0.0/8")})
	te.e.ObserveBGP(bgp.Update{Time: end + 1, PeerIP: mustIP(t, "6.0.0.9"), PeerAS: 6,
		Type: bgp.Withdraw, Prefix: pfx(t, "4.0.0.0/8")})
	for i := 0; i < 5; i++ {
		sigs := te.e.CloseWindow(end + int64(i)*900)
		for _, s := range sigs {
			if s.Technique == TechBGPASPath {
				t.Fatalf("missing-value window flagged: %v", s)
			}
		}
	}
}

func TestCommunitySignalAndCaveats(t *testing.T) {
	te := newEnv(t)
	te.primeVPs(t)
	en := te.standardEntry(t)
	end := te.warm(t, 0, 2)

	// vpB adds a community defined by AS3 (on τ): signal.
	te.e.ObserveBGP(announce(t, end+5, "6.0.0.9", 6, "4.0.0.0/8",
		bgp.Path{6, 3, 4}, bgp.Communities{bgp.MakeCommunity(3, 51000)}))
	sigs := te.e.CloseWindow(end)
	found := false
	for _, s := range sigs {
		if s.Technique == TechBGPCommunity && s.Key == en.Key {
			found = true
			if s.Comm != bgp.MakeCommunity(3, 51000) {
				t.Errorf("signal community = %v", s.Comm)
			}
		}
	}
	if !found {
		t.Fatalf("no community signal in %v", sigs)
	}

	// Caveat 2: vpA adding the community that vpB already carries on an
	// overlapping path is not a new signal.
	end += 900
	te.e.ObserveBGP(announce(t, end+5, "5.0.0.9", 5, "4.0.0.0/8",
		bgp.Path{5, 2, 3, 4}, bgp.Communities{bgp.MakeCommunity(3, 51000)}))
	sigs = te.e.CloseWindow(end)
	for _, s := range sigs {
		if s.Technique == TechBGPCommunity {
			t.Fatalf("caveat-2 community change signaled: %v", s)
		}
	}

	// Irrelevant community (AS 77 not on τ): no signal.
	end += 900
	te.e.ObserveBGP(announce(t, end+5, "6.0.0.9", 6, "4.0.0.0/8",
		bgp.Path{6, 3, 4}, bgp.Communities{
			bgp.MakeCommunity(3, 51000), bgp.MakeCommunity(77, 1),
		}))
	sigs = te.e.CloseWindow(end)
	for _, s := range sigs {
		if s.Technique == TechBGPCommunity {
			t.Fatalf("irrelevant community signaled: %v", s)
		}
	}
}

func TestCommunityPrunedByCalibration(t *testing.T) {
	te := newEnv(t)
	te.primeVPs(t)
	te.standardEntry(t)
	comm := bgp.MakeCommunity(3, 7000)
	for i := 0; i < 3; i++ {
		te.e.Calib.RecordCommunityOutcome(comm, false)
	}
	if !te.e.Calib.CommunityPruned(comm) {
		t.Fatal("community not pruned after FP quota")
	}
	end := te.warm(t, 0, 2)
	te.e.ObserveBGP(announce(t, end+5, "6.0.0.9", 6, "4.0.0.0/8",
		bgp.Path{6, 3, 4}, bgp.Communities{comm}))
	sigs := te.e.CloseWindow(end)
	for _, s := range sigs {
		if s.Technique == TechBGPCommunity {
			t.Fatalf("pruned community still signals: %v", s)
		}
	}
	if te.e.Calib.PrunedCommunityCount() != 1 {
		t.Errorf("pruned count = %d", te.e.Calib.PrunedCommunityCount())
	}
}

func TestBurstSignalAndExculpation(t *testing.T) {
	te := newEnv(t)
	// Paths share extra AS 8 (not on τ); vpC traverses 8 without the
	// suffix, acting as the exculpation witness.
	te.e.ObserveBGP(announce(t, 0, "5.0.0.9", 5, "4.0.0.0/8", bgp.Path{5, 8, 3, 4}, nil))
	te.e.ObserveBGP(announce(t, 0, "6.0.0.9", 6, "4.0.0.0/8", bgp.Path{6, 8, 3, 4}, nil))
	te.e.ObserveBGP(announce(t, 0, "7.0.0.9", 7, "4.0.0.0/8", bgp.Path{7, 8, 9, 4}, nil))
	en := te.standardEntry(t)
	end := te.warm(t, 0, 45)

	dup := func(tm int64, vpIP string, vpAS bgp.ASN, path bgp.Path) {
		te.e.ObserveBGP(announce(t, tm, vpIP, vpAS, "4.0.0.0/8", path, nil))
	}

	// Burst with the witness also bursting: change is on AS8, not the
	// suffix → exculpated, no signal.
	dup(end+1, "5.0.0.9", 5, bgp.Path{5, 8, 3, 4})
	dup(end+2, "6.0.0.9", 6, bgp.Path{6, 8, 3, 4})
	dup(end+3, "7.0.0.9", 7, bgp.Path{7, 8, 9, 4})
	sigs := te.e.CloseWindow(end)
	for _, s := range sigs {
		if s.Technique == TechBGPBurst {
			t.Fatalf("exculpated burst signaled: %v", s)
		}
	}
	end += 900

	// Quiet refractory windows so the next burst is a fresh outlier.
	end = te.warm(t, end, 10)

	// Burst without the witness: unexplained → signal.
	dup(end+1, "5.0.0.9", 5, bgp.Path{5, 8, 3, 4})
	dup(end+2, "6.0.0.9", 6, bgp.Path{6, 8, 3, 4})
	sigs = te.e.CloseWindow(end)
	found := false
	for _, s := range sigs {
		if s.Technique == TechBGPBurst && s.Key == en.Key {
			found = true
		}
	}
	if !found {
		t.Fatalf("unexplained burst did not signal: %v", sigs)
	}
}

func TestSubpathSignal(t *testing.T) {
	te := newEnv(t)
	te.primeVPs(t)
	en := te.standardEntry(t)

	// Public traces from a different source to a different AS4 host share
	// the monitored subpath [2.0.0.1 3.0.0.1 4.0.0.2]: the AS4 backbone
	// hop anchors the series beyond the border that will shift.
	w := te.e.cfg.WindowSec
	var now int64
	for i := 0; i < 60; i++ {
		now = int64(i) * w
		pub := mkTrace(t, now+5, "9.0.0.1", "4.0.0.8",
			"9.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.2", "4.0.0.8")
		te.e.ObservePublicTrace(pub)
		if sigs := te.e.CloseWindow(now); len(sigs) != 0 {
			t.Fatalf("steady public traces produced signals at %d: %v", i, sigs)
		}
	}
	// Route shift: public traces now cross a different AS3 ingress but
	// still reach the AS4 backbone hop.
	var got []Signal
	for i := 60; i < 64; i++ {
		now = int64(i) * w
		pub := mkTrace(t, now+5, "9.0.0.1", "4.0.0.8",
			"9.0.0.2", "2.0.0.1", "3.0.0.7", "4.0.0.2", "4.0.0.8")
		te.e.ObservePublicTrace(pub)
		for _, s := range te.e.CloseWindow(now) {
			if s.Technique == TechTraceSubpath && s.Key == en.Key {
				got = append(got, s)
			}
		}
	}
	if len(got) == 0 {
		t.Fatal("subpath shift not signaled")
	}
	if len(got[0].Borders) != 1 {
		t.Errorf("subpath signal borders = %v", got[0].Borders)
	}
}

func TestBorderRouterSignal(t *testing.T) {
	te := newEnv(t)
	te.primeVPs(t)
	// Cities: AS2 side city 1, AS3 side city 2.
	te.geo[mustIP(t, "2.0.0.1")] = 1
	te.geo[mustIP(t, "2.0.0.5")] = 1
	te.geo[mustIP(t, "3.0.0.1")] = 2
	te.geo[mustIP(t, "3.0.0.7")] = 2
	te.geo[mustIP(t, "1.0.0.2")] = 9
	te.geo[mustIP(t, "4.0.0.2")] = 9
	te.geo[mustIP(t, "4.0.0.9")] = 9
	en := te.standardEntry(t)

	w := te.e.cfg.WindowSec
	// Public traces between the same ⟨AS,city⟩ pair via the same border
	// router (3.0.0.1), through a different IP-level path (2.0.0.5 side).
	for i := 0; i < 60; i++ {
		now := int64(i) * w
		te.e.ObservePublicTrace(mkTrace(t, now+5, "9.0.0.1", "4.0.0.8",
			"9.0.0.2", "2.0.0.5", "3.0.0.1", "4.0.0.8"))
		te.e.CloseWindow(now)
	}
	// The ASes shift to border router 3.0.0.7 between the same cities.
	var got []Signal
	for i := 60; i < 64; i++ {
		now := int64(i) * w
		te.e.ObservePublicTrace(mkTrace(t, now+5, "9.0.0.1", "4.0.0.8",
			"9.0.0.2", "2.0.0.5", "3.0.0.7", "4.0.0.8"))
		for _, s := range te.e.CloseWindow(now) {
			if s.Technique == TechTraceBorder && s.Key == en.Key {
				got = append(got, s)
			}
		}
	}
	if len(got) == 0 {
		t.Fatal("border router shift not signaled")
	}
}

func TestIXPMembershipSignal(t *testing.T) {
	te := newEnv(t)
	te.primeVPs(t)
	// AS3 is a known member of IXP 1. AS2 is AS1's provider. τ = 1 2 3 4
	// contains AS1 (joiner) and member AS3, non-adjacent.
	te.e.SetInitialIXPMembership(map[int][]bgp.ASN{1: {3}})
	te.rel[[2]bgp.ASN{1, 2}] = RelCustomerOf
	en := te.standardEntry(t)

	// A public trace shows AS1 as near-end neighbor of an IXP interface.
	ixpIfaceMember[mustIP(t, "240.0.0.77")] = 9
	pub := mkTrace(t, 100, "1.0.0.5", "9.0.0.8",
		"1.0.0.6", "240.0.0.77", "9.0.0.8")
	te.e.ObservePublicTrace(pub)
	sigs := te.e.CloseWindow(0)
	found := false
	for _, s := range sigs {
		if s.Technique == TechIXPMembership && s.Key == en.Key {
			found = true
		}
	}
	if !found {
		t.Fatalf("IXP membership signal missing: %v", sigs)
	}
	// Re-observing the same member does not re-signal.
	te.e.ObservePublicTrace(pub)
	sigs = te.e.CloseWindow(900)
	for _, s := range sigs {
		if s.Technique == TechIXPMembership {
			t.Fatalf("duplicate membership signaled: %v", s)
		}
	}
}

func TestIXPPrivatePeerSuppressed(t *testing.T) {
	te := newEnv(t)
	te.primeVPs(t)
	te.e.SetInitialIXPMembership(map[int][]bgp.ASN{1: {3}})
	te.rel[[2]bgp.ASN{1, 2}] = RelPeerPrivate
	te.standardEntry(t)
	ixpIfaceMember[mustIP(t, "240.0.0.78")] = 9
	te.e.ObservePublicTrace(mkTrace(t, 100, "1.0.0.5", "9.0.0.8",
		"1.0.0.6", "240.0.0.78", "9.0.0.8"))
	sigs := te.e.CloseWindow(0)
	for _, s := range sigs {
		if s.Technique == TechIXPMembership {
			t.Fatalf("private-peer case signaled without permission: %v", s)
		}
	}
	// With the learned exception, it signals.
	te2 := newEnv(t)
	te2.primeVPs(t)
	te2.e.SetInitialIXPMembership(map[int][]bgp.ASN{1: {3}})
	te2.rel[[2]bgp.ASN{1, 2}] = RelPeerPrivate
	te2.e.allowPrivatePeerSignals(1)
	te2.standardEntry(t)
	te2.e.ObservePublicTrace(mkTrace(t, 100, "1.0.0.5", "9.0.0.8",
		"1.0.0.6", "240.0.0.78", "9.0.0.8"))
	sigs = te2.e.CloseWindow(0)
	found := false
	for _, s := range sigs {
		if s.Technique == TechIXPMembership {
			found = true
		}
	}
	if !found {
		t.Fatal("allowed private-peer case did not signal")
	}
}

func TestRevocationOnRevert(t *testing.T) {
	te := newEnv(t)
	te.primeVPs(t)
	en := te.standardEntry(t)
	end := te.warm(t, 0, 45)
	// Shift then revert vpA's path.
	te.e.ObserveBGP(announce(t, end+10, "5.0.0.9", 5, "4.0.0.0/8", bgp.Path{5, 2, 9, 4}, nil))
	te.e.CloseWindow(end)
	if len(te.e.Active(en.Key)) == 0 {
		t.Fatal("expected active signal after shift")
	}
	end += 900
	te.e.ObserveBGP(announce(t, end+10, "5.0.0.9", 5, "4.0.0.0/8", bgp.Path{5, 2, 3, 4}, nil))
	te.e.CloseWindow(end)
	// The revert window itself registers instability (ratio 0.5); the
	// following quiet window settles the ratio back to its baseline and
	// the revocation fires.
	end += 900
	te.e.CloseWindow(end)
	if n := len(te.e.Active(en.Key)); n != 0 {
		t.Fatalf("signals not revoked after revert: %d active", n)
	}
}

func TestEvaluateRefreshOutcomes(t *testing.T) {
	te := newEnv(t)
	te.primeVPs(t)
	en := te.standardEntry(t)
	end := te.warm(t, 0, 45)
	te.e.ObserveBGP(announce(t, end+10, "5.0.0.9", 5, "4.0.0.0/8", bgp.Path{5, 2, 9, 4}, nil))
	te.e.CloseWindow(end)
	if len(te.e.Active(en.Key)) == 0 {
		t.Fatal("no active signals to evaluate")
	}
	// Refresh shows a changed border inside the flagged span.
	newTr := mkTrace(t, end+900, "1.0.0.1", "4.0.0.9",
		"1.0.0.2", "2.0.0.1", "3.0.0.7", "4.0.0.9")
	newEn, err := te.corp.Process(newTr)
	if err != nil {
		t.Fatal(err)
	}
	cls, ok := te.e.EvaluateRefresh(newEn)
	if !ok {
		t.Fatal("EvaluateRefresh found no entry")
	}
	if cls != bordermap.BorderChange {
		t.Fatalf("classification = %v; want border change", cls)
	}
	// Outcomes recorded: at least one TP for the source.
	foundTP := false
	for _, reg := range te.e.Registrations(en.Key) {
		tally := te.e.Calib.stats[calibKey{src: en.Key.Src, monitor: reg.MonitorID}]
		if tally != nil {
			for _, o := range tally.ring {
				if o == OutcomeTP {
					foundTP = true
				}
			}
		}
	}
	if !foundTP {
		t.Fatal("no TP outcome recorded")
	}
	// Reregister swaps the entry.
	te.e.Reregister(newEn)
	got, _ := te.e.Entry(en.Key)
	if got != newEn {
		t.Fatal("Reregister did not swap the entry")
	}
	if len(te.e.Active(en.Key)) != 0 {
		t.Fatal("active signals survive reregistration")
	}
}

func TestRefreshPlanRespectsBudget(t *testing.T) {
	te := newEnv(t)
	te.primeVPs(t)
	// Two corpus pairs from different sources.
	en1 := te.standardEntry(t)
	tr2 := mkTrace(t, 0, "1.0.0.77", "4.0.0.9",
		"1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	en2, err := te.corp.Process(tr2)
	if err != nil {
		t.Fatal(err)
	}
	te.e.AddCorpusEntry(en2)
	end := te.warm(t, 0, 45)
	te.e.ObserveBGP(announce(t, end+10, "5.0.0.9", 5, "4.0.0.0/8", bgp.Path{5, 2, 9, 4}, nil))
	te.e.CloseWindow(end)
	if len(te.e.Active(en1.Key)) == 0 || len(te.e.Active(en2.Key)) == 0 {
		t.Fatal("both pairs should be flagged")
	}
	rng := rand.New(rand.NewSource(1))
	plan := te.e.RefreshPlan(1, rng)
	if len(plan) != 1 {
		t.Fatalf("plan size = %d; want 1 (budget)", len(plan))
	}
	plan = te.e.RefreshPlan(10, rng)
	if len(plan) != 2 {
		t.Fatalf("plan size = %d; want 2 (all flagged)", len(plan))
	}
}

func TestCalibratorRates(t *testing.T) {
	c := NewCalibrator(4, 3)
	if _, _, ok := c.Rates(1, 1); ok {
		t.Fatal("rates should be uninitialized")
	}
	c.Record(1, 1, OutcomeTP)
	c.Record(1, 1, OutcomeFN)
	c.Record(1, 1, OutcomeTN)
	if _, _, ok := c.Rates(1, 1); ok {
		t.Fatal("rates initialized before window full")
	}
	c.Record(1, 1, OutcomeFP)
	tpr, tnr, ok := c.Rates(1, 1)
	if !ok || tpr != 0.5 || tnr != 0.5 {
		t.Fatalf("rates = %f, %f, %v; want 0.5, 0.5", tpr, tnr, ok)
	}
	// Sliding: four more TPs push out the old outcomes.
	for i := 0; i < 4; i++ {
		c.Record(1, 1, OutcomeTP)
	}
	tpr, tnr, _ = c.Rates(1, 1)
	if tpr != 1 || tnr != 0 {
		t.Fatalf("slid rates = %f, %f", tpr, tnr)
	}
}

func TestTable1Ordering(t *testing.T) {
	a := Signal{IPOverlap: 3, Technique: TechTraceSubpath, Score: 4}
	b := Signal{IPOverlap: 2, ASOverlap: 9, Technique: TechBGPASPath, VPCount: 50}
	if !table1Less(a, b) {
		t.Error("longer IP overlap must win (priority 1)")
	}
	c := Signal{ASOverlap: 4, Technique: TechBGPASPath}
	d := Signal{ASOverlap: 3, Technique: TechBGPASPath}
	if !table1Less(c, d) {
		t.Error("longer AS overlap must win (priority 2)")
	}
	e := Signal{SameASVP: true, SameCityVP: true}
	f := Signal{SameASVP: true}
	if !table1Less(e, f) {
		t.Error("same AS+city beats same AS (priority 3 vs 4)")
	}
	g := Signal{Technique: TechBGPASPath}
	h := Signal{Technique: TechTraceBorder}
	if !table1Less(g, h) {
		t.Error("AS-level change beats border change (priority 6 vs 7)")
	}
	i := Signal{Technique: TechBGPBurst, VPCount: 5}
	j := Signal{Technique: TechBGPBurst, VPCount: 2}
	if !table1Less(i, j) {
		t.Error("BGP ties break on VP count")
	}
}

func TestDisabledTechniques(t *testing.T) {
	geo := mapGeo{}
	rel := mapRel{}
	cfg := DefaultConfig()
	cfg.IXPBootstrapSec = 0
	cfg.Disabled = []Technique{TechBGPASPath, TechBGPBurst, TechBGPCommunity,
		TechTraceSubpath, TechTraceBorder, TechIXPMembership}
	e := NewEngine(cfg, testMapper{}, identityAliases, geo, rel)
	te := &testEnv{e: e, corp: corpus.New(testMapper{}, identityAliases), geo: geo, rel: rel}
	te.primeVPs(t)
	en := te.standardEntry(t)
	if n := len(te.e.Registrations(en.Key)); n != 0 {
		t.Fatalf("disabled engine registered %d monitors", n)
	}
	end := te.warm(t, 0, 45)
	te.e.ObserveBGP(announce(t, end+10, "5.0.0.9", 5, "4.0.0.0/8", bgp.Path{5, 2, 9, 4}, nil))
	if sigs := te.e.CloseWindow(end); len(sigs) != 0 {
		t.Fatalf("disabled engine emitted %v", sigs)
	}
}

func TestDisableSingleTechnique(t *testing.T) {
	geo := mapGeo{}
	rel := mapRel{}
	cfg := DefaultConfig()
	cfg.IXPBootstrapSec = 0
	cfg.Disabled = []Technique{TechBGPASPath}
	e := NewEngine(cfg, testMapper{}, identityAliases, geo, rel)
	te := &testEnv{e: e, corp: corpus.New(testMapper{}, identityAliases), geo: geo, rel: rel}
	te.primeVPs(t)
	en := te.standardEntry(t)
	for _, r := range te.e.Registrations(en.Key) {
		if r.Technique == TechBGPASPath {
			t.Fatal("disabled technique still registered")
		}
	}
	// Other techniques still present.
	if len(te.e.Registrations(en.Key)) == 0 {
		t.Fatal("all techniques vanished")
	}
}

func TestBurstQuorumScalesWithVPs(t *testing.T) {
	// With seven VPs sharing the suffix the quorum is three: a
	// two-duplicate coincidence must not fire; a burst from four must.
	te := newEnv(t)
	vps := []string{"5.0.0.9", "6.0.0.9", "7.0.0.9", "8.0.0.9", "9.0.0.9", "11.0.0.9", "12.0.0.9"}
	for i, v := range vps {
		te.e.ObserveBGP(announce(t, 0, v, bgp.ASN(5+i), "4.0.0.0/8",
			bgp.Path{bgp.ASN(5 + i), 3, 4}, nil))
	}
	en := te.standardEntry(t)
	end := te.warm(t, 0, 45)

	dup := func(tm int64, v string, as bgp.ASN) {
		te.e.ObserveBGP(announce(t, tm, v, as, "4.0.0.0/8",
			bgp.Path{as, 3, 4}, nil))
	}
	// Two duplicates out of six: below quorum.
	dup(end+1, vps[0], 5)
	dup(end+2, vps[1], 6)
	for _, s := range te.e.CloseWindow(end) {
		if s.Technique == TechBGPBurst {
			t.Fatalf("sub-quorum burst signaled: %v", s)
		}
	}
	end += 900
	end = te.warm(t, end, 10)
	// Four duplicates: quorum met.
	for i := 0; i < 4; i++ {
		dup(end+int64(i)+1, vps[i], bgp.ASN(5+i))
	}
	found := false
	for _, s := range te.e.CloseWindow(end) {
		if s.Technique == TechBGPBurst && s.Key == en.Key {
			found = true
		}
	}
	if !found {
		t.Fatal("quorum burst did not signal")
	}
}

func TestRefreshPlanPrefersCalibratedVP(t *testing.T) {
	te := newEnv(t)
	te.primeVPs(t)
	en1 := te.standardEntry(t)
	tr2 := mkTrace(t, 0, "1.0.0.77", "4.0.0.9",
		"1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.2", "4.0.0.9")
	en2, err := te.corp.Process(tr2)
	if err != nil {
		t.Fatal(err)
	}
	te.e.AddCorpusEntry(en2)

	// Calibrate: every monitor of src 1.0.0.1 has perfect TPR; src
	// 1.0.0.77 has zero TPR (all signals were false).
	for _, reg := range te.e.Registrations(en1.Key) {
		for i := 0; i < 30; i++ {
			te.e.Calib.Record(en1.Key.Src, reg.MonitorID, OutcomeTP)
		}
	}
	for _, reg := range te.e.Registrations(en2.Key) {
		for i := 0; i < 30; i++ {
			te.e.Calib.Record(en2.Key.Src, reg.MonitorID, OutcomeFP)
		}
	}
	end := te.warm(t, 0, 45)
	te.e.ObserveBGP(announce(t, end+10, "5.0.0.9", 5, "4.0.0.0/8", bgp.Path{5, 2, 9, 4}, nil))
	te.e.CloseWindow(end)
	if len(te.e.Active(en1.Key)) == 0 || len(te.e.Active(en2.Key)) == 0 {
		t.Fatal("both pairs should be flagged")
	}
	// With budget 1, the calibrated high-TPR source must win.
	rng := rand.New(rand.NewSource(2))
	plan := te.e.RefreshPlan(1, rng)
	if len(plan) != 1 || plan[0] != en1.Key {
		t.Fatalf("plan = %v; want [%v]", plan, en1.Key)
	}
}

// TestRefreshPlanIgnoresMapOrder: VP 2's relative TPR is 0.1+0.2+0.3 over
// three flagged pairs and VP 1's is 0.6 over one. Summed in map order, VP
// 2's total comes out as 0.6 or 0.6000000000000001, which decides the VP a
// one-pair budget goes to; the plan must be the same on every call.
func TestRefreshPlanIgnoresMapOrder(t *testing.T) {
	calib := NewCalibrator(10, 1)
	type flag struct {
		key     traceroute.Key
		monitor int
		tp      int // of 10 outcomes
	}
	flags := []flag{
		{traceroute.Key{Src: 1, Dst: 9}, 100, 6},
		{traceroute.Key{Src: 2, Dst: 10}, 200, 1},
		{traceroute.Key{Src: 2, Dst: 11}, 201, 2},
		{traceroute.Key{Src: 2, Dst: 12}, 202, 3},
	}
	for _, f := range flags {
		for i := 0; i < 10; i++ {
			o := OutcomeFN
			if i < f.tp {
				o = OutcomeTP
			}
			calib.Record(f.key.Src, f.monitor, o)
		}
	}
	var first []traceroute.Key
	for run := 0; run < 100; run++ {
		active := make(map[traceroute.Key][]Signal) // a fresh iteration order
		for _, f := range flags {
			active[f.key] = []Signal{{Key: f.key, MonitorID: f.monitor}}
		}
		plan := planKeys(refreshPlan(active, nil, calib, 1, rand.New(rand.NewSource(1))))
		if run == 0 {
			first = plan
		} else if len(plan) != 1 || plan[0] != first[0] {
			t.Fatalf("call %d planned %v, call 0 planned %v", run, plan, first)
		}
	}
}

func TestSubpathWindowLadderSparseData(t *testing.T) {
	// Observations arriving every ~2 hours cannot support 15-minute
	// windows; the monitor must choose a larger rung and still detect a
	// shift.
	te := newEnv(t)
	te.primeVPs(t)
	en := te.standardEntry(t)
	w := int64(7200) // one public observation every 2 hours
	var now int64
	// 2*MinObservations buffered + 20 consecutive populated windows.
	for i := 0; i < 100; i++ {
		now = int64(i)*w + 600
		te.e.ObservePublicTrace(mkTrace(t, now, "9.0.0.1", "4.0.0.8",
			"9.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.2", "4.0.0.8"))
		for ws := int64(i) * w; ws < int64(i+1)*w; ws += 900 {
			for _, s := range te.e.CloseWindow(ws) {
				if s.Technique == TechTraceSubpath {
					t.Fatalf("steady sparse series signaled at obs %d", i)
				}
			}
		}
	}
	st := te.e.monitorStats()
	if st.SubpathActive == 0 {
		t.Fatal("no subpath series activated on 2-hour data")
	}
	// Shift: the AS3 ingress changes.
	var got []Signal
	for i := 100; i < 106; i++ {
		now = int64(i)*w + 600
		te.e.ObservePublicTrace(mkTrace(t, now, "9.0.0.1", "4.0.0.8",
			"9.0.0.2", "2.0.0.1", "3.0.0.7", "4.0.0.2", "4.0.0.8"))
		for ws := int64(i) * w; ws < int64(i+1)*w; ws += 900 {
			for _, s := range te.e.CloseWindow(ws) {
				if s.Technique == TechTraceSubpath && s.Key == en.Key {
					got = append(got, s)
				}
			}
		}
	}
	if len(got) == 0 {
		t.Fatal("sparse-series shift not signaled")
	}
}

func TestEngineDeterministic(t *testing.T) {
	run := func() []Signal {
		te := newEnv(t)
		te.primeVPs(t)
		te.standardEntry(t)
		var all []Signal
		for w := int64(0); w < 50; w++ {
			if w == 45 {
				te.e.ObserveBGP(announce(t, w*900+10, "5.0.0.9", 5, "4.0.0.0/8",
					bgp.Path{5, 2, 9, 4}, nil))
			}
			te.e.ObservePublicTrace(mkTrace(t, w*900+100, "9.0.0.1", "4.0.0.8",
				"9.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.2", "4.0.0.8"))
			all = append(all, te.e.CloseWindow(w*900)...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("signal counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("signal %d differs:\n%v\n%v", i, a[i], b[i])
		}
	}
}

func TestDisabledCommunityNeverSignals(t *testing.T) {
	geo := mapGeo{}
	rel := mapRel{}
	cfg := DefaultConfig()
	cfg.IXPBootstrapSec = 0
	cfg.Disabled = []Technique{TechBGPCommunity}
	e := NewEngine(cfg, testMapper{}, identityAliases, geo, rel)
	te := &testEnv{e: e, corp: corpus.New(testMapper{}, identityAliases), geo: geo, rel: rel}
	te.primeVPs(t)
	te.standardEntry(t)
	end := te.warm(t, 0, 2)
	te.e.ObserveBGP(announce(t, end+5, "6.0.0.9", 6, "4.0.0.0/8",
		bgp.Path{6, 3, 4}, bgp.Communities{bgp.MakeCommunity(3, 51000)}))
	for _, s := range te.e.CloseWindow(end) {
		if s.Technique == TechBGPCommunity {
			t.Fatalf("disabled community technique signaled: %v", s)
		}
	}
}

func TestReregisterDoesNotLeakMonitors(t *testing.T) {
	te := newEnv(t)
	te.primeVPs(t)
	en := te.standardEntry(t)
	base := te.e.monitorStats()
	for i := 0; i < 500; i++ {
		te.e.Reregister(en)
	}
	st := te.e.monitorStats()
	if st.ASPathMonitors > base.ASPathMonitors+2 {
		t.Fatalf("asp monitors grew: %d -> %d", base.ASPathMonitors, st.ASPathMonitors)
	}
	if st.BurstMonitors > base.BurstMonitors+2 {
		t.Fatalf("burst monitors grew: %d -> %d", base.BurstMonitors, st.BurstMonitors)
	}
	if st.SubpathMonitors > base.SubpathMonitors+2 {
		t.Fatalf("subpath monitors grew: %d -> %d", base.SubpathMonitors, st.SubpathMonitors)
	}
	// Registrations stay one set per pair, not 500.
	if n := len(te.e.Registrations(en.Key)); n > len(te.e.Registrations(en.Key))+0 && n > 50 {
		t.Fatalf("registrations accumulated: %d", n)
	}
	// The engine still works after churn.
	end := te.warm(t, 0, 45)
	te.e.ObserveBGP(announce(t, end+10, "5.0.0.9", 5, "4.0.0.0/8", bgp.Path{5, 2, 9, 4}, nil))
	if sigs := te.e.CloseWindow(end); len(sigs) == 0 {
		t.Fatal("post-churn engine emits no signals")
	}
}

func TestTechniqueStringsAndAccessors(t *testing.T) {
	for _, tech := range []Technique{TechBGPASPath, TechBGPCommunity, TechBGPBurst,
		TechTraceSubpath, TechTraceBorder, TechIXPMembership} {
		if tech.String() == "unknown" || tech.String() == "" {
			t.Fatalf("bad name for technique %d", tech)
		}
	}
	if Technique(99).String() != "unknown" {
		t.Fatal("unknown technique name")
	}
	te := newEnv(t)
	te.primeVPs(t)
	en := te.standardEntry(t)
	if te.e.rib == nil {
		t.Fatal("RIB accessor nil")
	}
	counts := te.e.SignalCounts()
	if len(counts) != 6 {
		t.Fatalf("SignalCounts has %d techniques", len(counts))
	}
	end := te.warm(t, 0, 45)
	te.e.ObserveBGP(announce(t, end+10, "5.0.0.9", 5, "4.0.0.0/8", bgp.Path{5, 2, 9, 4}, nil))
	te.e.CloseWindow(end)
	if len(te.e.Active(en.Key)) == 0 {
		t.Fatal("no active signals")
	}
	te.e.clearActive(en.Key)
	if len(te.e.Active(en.Key)) != 0 {
		t.Fatal("clearActive failed")
	}
	if te.e.SignalCounts()[TechBGPASPath] == 0 {
		t.Fatal("counts not incremented")
	}
}

func TestEngineToleratesDegenerateInputs(t *testing.T) {
	te := newEnv(t)
	te.primeVPs(t)
	te.standardEntry(t)
	// Empty public trace.
	te.e.ObservePublicTrace(&traceroute.Traceroute{Src: 1, Dst: 2})
	// Trace of only unresponsive hops.
	te.e.ObservePublicTrace(mkTrace(t, 5, "9.0.0.1", "4.0.0.8", "*", "*", "*"))
	// Too-specific BGP prefix is filtered, never monitored.
	u := announce(t, 6, "5.0.0.9", 5, "4.0.0.0/8", bgp.Path{5, 4}, nil)
	u.Prefix = pfx(t, "4.1.2.0/25")
	te.e.ObserveBGP(u)
	if _, ok := te.e.rib.Route(bgp.VPKey{PeerIP: mustIP(t, "5.0.0.9"), PeerAS: 5},
		pfx(t, "4.1.2.0/25")); ok {
		t.Fatal("too-specific prefix entered the RIB")
	}
	// Withdraw for a prefix never announced.
	te.e.ObserveBGP(bgp.Update{Time: 7, PeerIP: mustIP(t, "5.0.0.9"), PeerAS: 5,
		Type: bgp.Withdraw, Prefix: pfx(t, "99.0.0.0/8")})
	if sigs := te.e.CloseWindow(0); len(sigs) != 0 {
		t.Fatalf("degenerate inputs produced signals: %v", sigs)
	}
	// RemovePair for an unknown key is a no-op.
	te.e.RemovePair(traceroute.Key{Src: 12345, Dst: 54321})
}

func TestEvaluateRefreshUnknownPair(t *testing.T) {
	te := newEnv(t)
	tr := mkTrace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "4.0.0.9")
	en, err := te.corp.Process(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := te.e.EvaluateRefresh(en); ok {
		t.Fatal("EvaluateRefresh on untracked pair reported ok")
	}
}

// TestRestoredSignalsOutliveQuietWindow pins the §4.3.2 exemption for
// snapshot-restored signals: a restarted process registers fresh monitors
// whose baseline is whatever routes it found, so the first quiet close reads
// every restored pair as "back at baseline". The signals must survive that
// — and a real deviation-and-revert observed by this process must still
// revoke them.
func TestRestoredSignalsOutliveQuietWindow(t *testing.T) {
	te := newEnv(t)
	te.primeVPs(t)
	en := te.standardEntry(t)
	restored := []Signal{
		{Technique: TechBGPASPath, Key: en.Key, WindowStart: -2700, MonitorID: 7},
		{Technique: TechBGPBurst, Key: en.Key, WindowStart: -1800, MonitorID: 8},
		{Technique: TechBGPCommunity, Key: en.Key, WindowStart: -900, MonitorID: 9},
	}
	te.e.RestoreActive(restored)

	end := te.warm(t, 0, 1)
	if n := len(te.e.Active(en.Key)); n != len(restored) {
		t.Fatalf("%d of %d restored signals active after one quiet window", n, len(restored))
	}
	if sigs, pairs := te.e.RevocationStats(); sigs != 0 || pairs != 0 {
		t.Fatalf("RevocationStats() = (%d, %d) after one quiet window, want (0, 0)", sigs, pairs)
	}

	end = te.warm(t, end, 44)
	if n := len(te.e.Active(en.Key)); n != len(restored) {
		t.Fatalf("%d of %d restored signals active after warm-up", n, len(restored))
	}
	// Shift, revert, settle — the sequence TestRevocationOnRevert proves
	// revokes a pair that was never restored.
	te.e.ObserveBGP(announce(t, end+10, "5.0.0.9", 5, "4.0.0.0/8", bgp.Path{5, 2, 9, 4}, nil))
	te.e.CloseWindow(end)
	raised := len(te.e.Active(en.Key)) - len(restored)
	if raised <= 0 {
		t.Fatal("expected a fresh signal after the shift")
	}
	end += 900
	te.e.ObserveBGP(announce(t, end+10, "5.0.0.9", 5, "4.0.0.0/8", bgp.Path{5, 2, 3, 4}, nil))
	te.e.CloseWindow(end)
	te.e.CloseWindow(end + 900)
	if n := len(te.e.Active(en.Key)); n != 0 {
		t.Fatalf("%d signals still active after an observed revert", n)
	}
	if sigs, pairs := te.e.RevocationStats(); sigs < len(restored)+raised || pairs != 1 {
		t.Fatalf("RevocationStats() = (%d, %d), want (>= %d, 1)", sigs, pairs, len(restored)+raised)
	}
}
