package corpus

import (
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/netsim"
	"rrr/internal/platform"
	"rrr/internal/traceroute"
)

func setup(t *testing.T) (*netsim.Sim, *platform.Platform, *Corpus) {
	t.Helper()
	s := netsim.New(netsim.TestConfig())
	cfg := platform.DefaultConfig()
	cfg.NumProbes = 20
	cfg.NumAnchors = 8
	p := platform.New(s, cfg)
	oracle := bordermap.OracleFunc(func(ip uint32) (int, bool) {
		r, ok := s.T.RouterForIP(ip)
		return int(r), ok
	})
	return s, p, New(s.Mapper(), oracle)
}

// regularProbes returns the platform's non-anchor probes.
func regularProbes(p *platform.Platform) []*platform.Probe {
	var out []*platform.Probe
	for _, pr := range p.Probes {
		if !pr.Anchor {
			out = append(out, pr)
		}
	}
	return out
}

func TestAddGetRemove(t *testing.T) {
	_, p, c := setup(t)
	traces := p.AnchoringRound(regularProbes(p)[:4], p.Anchors()[:4], 0)
	added := 0
	for _, tr := range traces {
		if _, err := c.Add(tr); err == nil {
			added++
		}
	}
	if added == 0 || c.Len() != added {
		t.Fatalf("added=%d len=%d", added, c.Len())
	}
	k := c.Keys()[0]
	e, ok := c.Get(k)
	if !ok || e.Key != k {
		t.Fatal("Get failed")
	}
	if len(e.ASPath) < 2 {
		t.Fatalf("AS path too short: %v", e.ASPath)
	}
	c.Remove(k)
	if _, ok := c.Get(k); ok {
		t.Fatal("Remove failed")
	}
	if len(c.Keys()) != added-1 {
		t.Fatal("Keys not updated after Remove")
	}
}

func TestKeysSortedDeterministic(t *testing.T) {
	_, p, c := setup(t)
	for _, tr := range p.AnchoringRound(regularProbes(p)[:5], p.Anchors()[:5], 0) {
		c.Add(tr)
	}
	k1 := c.Keys()
	k2 := c.Keys()
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatal("Keys not stable")
		}
		if i > 0 && (k1[i-1].Src > k1[i].Src ||
			(k1[i-1].Src == k1[i].Src && k1[i-1].Dst >= k1[i].Dst)) {
			t.Fatal("Keys not sorted")
		}
	}
}

func TestClassifyUnchangedAndRefresh(t *testing.T) {
	s, p, c := setup(t)
	probe := regularProbes(p)[0]
	anchor := p.Anchors()[0]
	tr := p.Measure(probe, anchor.IP, 0)
	if _, err := c.Add(tr); err != nil {
		t.Fatal(err)
	}
	// Same routing state, later measurement: unchanged at border level
	// (responsiveness noise may hide hops but borders compare via keys).
	tr2 := p.Measure(probe, anchor.IP, 900)
	cls, err := c.Classify(tr2)
	if err != nil {
		t.Fatal(err)
	}
	if cls == bordermap.ASChange {
		t.Fatalf("no event but AS change detected")
	}
	// Refresh replaces the stored entry.
	cls2, err := c.Refresh(tr2)
	if err != nil {
		t.Fatal(err)
	}
	if cls2 != cls {
		t.Fatalf("Refresh class %v != Classify class %v", cls2, cls)
	}
	e, _ := c.Get(tr.Key())
	if e.MeasuredAt != 900 {
		t.Fatal("Refresh did not replace entry")
	}
	_ = s
}

func TestClassifyDetectsEventChange(t *testing.T) {
	s, p, c := setup(t)
	// Build corpus across all probe/anchor pairs, then let the simulator
	// apply its sampled events (link failures, egress shifts, ...) until
	// some pair changes.
	pairs := p.AnchoringRound(regularProbes(p), p.Anchors(), 0)
	for _, tr := range pairs {
		c.Add(tr)
	}
	changedAS, changedBorder := 0, 0
	for day := 0; day < 30 && changedAS == 0; day++ {
		s.Step(86400)
		for _, tr := range pairs {
			now := p.Sim.Traceroute(tr.ProbeID, tr.Src, tr.Dst, s.Now())
			cls, err := c.Classify(now)
			if err != nil {
				continue
			}
			switch cls {
			case bordermap.ASChange:
				changedAS++
			case bordermap.BorderChange:
				changedBorder++
			}
		}
	}
	if changedAS == 0 {
		t.Fatal("a month of simulated events never produced an AS-level change")
	}
}

func TestCensus(t *testing.T) {
	_, p, c := setup(t)
	for _, tr := range p.AnchoringRound(regularProbes(p), p.Anchors(), 0) {
		c.Add(tr)
	}
	census := c.Census()
	if len(census.ASPairs) == 0 {
		t.Fatal("census found no border IPs")
	}
	multiPath := 0
	for ip, paths := range census.Paths {
		if len(paths) > 1 {
			multiPath++
		}
		if len(census.ASPairs[ip]) == 0 {
			t.Fatal("border IP with no AS pairs")
		}
	}
	if multiPath == 0 {
		t.Fatal("no border IP shared across paths; sharing is the premise of Fig 14/15")
	}
}

// octMapper maps first octet to AS for hand-built census checks.
type octMapper struct{}

func (octMapper) ASOf(ip uint32) (bgp.ASN, bool) {
	if ip>>24 == 0 {
		return 0, false
	}
	return bgp.ASN(ip >> 24), true
}
func (octMapper) IXPOf(uint32) (int, bool) { return 0, false }

func TestCensusHandCheck(t *testing.T) {
	c := New(octMapper{}, nil)
	mk := func(src uint32, hops ...uint32) *traceroute.Traceroute {
		tr := &traceroute.Traceroute{Src: src, Dst: hops[len(hops)-1]}
		for i, h := range hops {
			tr.Hops = append(tr.Hops, traceroute.Hop{TTL: i + 1, IP: h})
		}
		return tr
	}
	sharedBorder := uint32(3<<24 | 1) // AS3 ingress used by both pairs
	// Pair 1: AS1 -> AS3 via shared border.
	if _, err := c.Add(mk(1<<24|1, 1<<24|2, sharedBorder, 3<<24|9)); err != nil {
		t.Fatal(err)
	}
	// Pair 2: AS2 -> AS3 via the same border interface (different AS pair).
	if _, err := c.Add(mk(2<<24|1, 2<<24|2, sharedBorder, 3<<24|8)); err != nil {
		t.Fatal(err)
	}
	// Pair 3: AS1 -> AS4, unrelated border.
	if _, err := c.Add(mk(1<<24|5, 1<<24|6, 4<<24|1, 4<<24|9)); err != nil {
		t.Fatal(err)
	}
	census := c.Census()
	if got := len(census.ASPairs[sharedBorder]); got != 2 {
		t.Fatalf("shared border AS pairs = %d; want 2", got)
	}
	if got := len(census.Paths[sharedBorder]); got != 2 {
		t.Fatalf("shared border paths = %d; want 2", got)
	}
	if got := len(census.ASPairs[4<<24|1]); got != 1 {
		t.Fatalf("unshared border AS pairs = %d; want 1", got)
	}
}
