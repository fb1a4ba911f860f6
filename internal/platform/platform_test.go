package platform

import (
	"testing"

	"rrr/internal/netsim"
)

func newPlat(t *testing.T) *Platform {
	t.Helper()
	s := netsim.New(netsim.TestConfig())
	cfg := DefaultConfig()
	cfg.NumProbes = 30
	cfg.NumAnchors = 10
	return New(s, cfg)
}

// regularProbes returns the non-anchor probes, dead ones included.
func regularProbes(p *Platform) []*Probe {
	var out []*Probe
	for _, pr := range p.Probes {
		if !pr.Anchor {
			out = append(out, pr)
		}
	}
	return out
}

func TestPlacement(t *testing.T) {
	p := newPlat(t)
	if len(p.Probes) != 40 {
		t.Fatalf("placed %d probes; want 40", len(p.Probes))
	}
	if len(p.Anchors()) != 10 || len(regularProbes(p)) != 30 {
		t.Fatalf("anchors=%d regular=%d", len(p.Anchors()), len(regularProbes(p)))
	}
	seen := make(map[int]bool)
	ips := make(map[uint32]bool)
	for _, pr := range p.Probes {
		if seen[pr.ID] {
			t.Fatalf("duplicate probe id %d", pr.ID)
		}
		seen[pr.ID] = true
		if ips[pr.IP] {
			t.Fatalf("duplicate probe IP")
		}
		ips[pr.IP] = true
		if as, ok := p.Sim.T.OriginAS(pr.IP); !ok || as != pr.AS {
			t.Fatalf("probe IP not in its AS block")
		}
	}
}

func TestAnchoringRound(t *testing.T) {
	p := newPlat(t)
	anchors := p.Anchors()
	probes := regularProbes(p)[:5]
	traces := p.AnchoringRound(probes, anchors, 1000)
	if len(traces) != 5*10 {
		t.Fatalf("round produced %d traces; want 50", len(traces))
	}
	for _, tr := range traces {
		if tr.MsmID != 1000 {
			t.Fatalf("msm id = %d", tr.MsmID)
		}
		if tr.Src == tr.Dst {
			t.Fatal("self trace")
		}
	}
	// Mesh excludes self-pairs.
	mesh := p.AnchoringRound(anchors, anchors, 1000)
	if len(mesh) != 10*9 {
		t.Fatalf("mesh produced %d; want 90", len(mesh))
	}
}

func TestProbeChurn(t *testing.T) {
	s := netsim.New(netsim.TestConfig())
	cfg := DefaultConfig()
	cfg.NumProbes = 30
	cfg.NumAnchors = 5
	cfg.ProbeDeathPerDay = 2
	p := New(s, cfg)
	for d := 0; d < 5; d++ {
		p.StepDay()
	}
	dead := 0
	for _, pr := range p.Probes {
		if !pr.Active {
			dead++
			if pr.Anchor {
				t.Fatal("anchors should not die")
			}
		}
	}
	if dead != 10 {
		t.Fatalf("dead = %d; want 10", dead)
	}
	// Inactive probes issue nothing.
	traces := p.AnchoringRound(regularProbes(p), p.Anchors(), 1)
	for _, tr := range traces {
		pr, _ := p.ProbeByID(tr.ProbeID)
		if !pr.Active {
			t.Fatal("inactive probe measured")
		}
	}
}

func TestSplitHalves(t *testing.T) {
	p := newPlat(t)
	pub, corp := p.Split(42)
	if len(pub)+len(corp) != len(p.Probes) {
		t.Fatal("split loses probes")
	}
	if len(pub) != len(p.Probes)/2 {
		t.Fatalf("public half = %d", len(pub))
	}
	seen := make(map[int]bool)
	for _, pr := range pub {
		seen[pr.ID] = true
	}
	for _, pr := range corp {
		if seen[pr.ID] {
			t.Fatal("probe in both halves")
		}
	}
	// Deterministic.
	pub2, _ := p.Split(42)
	for i := range pub {
		if pub[i].ID != pub2[i].ID {
			t.Fatal("split not deterministic")
		}
	}
}

func TestProbeByIDMissing(t *testing.T) {
	p := newPlat(t)
	if _, ok := p.ProbeByID(999999); ok {
		t.Fatal("phantom probe found")
	}
	pr, ok := p.ProbeByID(p.Probes[0].ID)
	if !ok || pr != p.Probes[0] {
		t.Fatal("ProbeByID broken")
	}
}

func TestMeasureProducesTrace(t *testing.T) {
	p := newPlat(t)
	probe := regularProbes(p)[0]
	anchor := p.Anchors()[0]
	tr := p.Measure(probe, anchor.IP, 123)
	if tr.Src != probe.IP || tr.Dst != anchor.IP || tr.Time != 123 {
		t.Fatalf("trace fields: %+v", tr)
	}
	if tr.ProbeID != probe.ID {
		t.Fatal("probe id not carried")
	}
}
