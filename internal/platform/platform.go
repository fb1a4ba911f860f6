// Package platform simulates a RIPE Atlas-like measurement platform on top
// of the netsim data plane: probes and anchors hosted in edge networks,
// periodic anchoring measurement rounds, randomized built-in campaigns like
// measurement #5051, per-user probing budgets/credits, and the
// public/corpus vantage-point split used by the paper's retrospective
// evaluation (§5.1).
package platform

import (
	"math/rand"
	"sort"

	"rrr/internal/bgp"
	"rrr/internal/netsim"
	"rrr/internal/traceroute"
)

// Probe is a measurement vantage point.
type Probe struct {
	ID int
	AS bgp.ASN
	IP uint32
	// Anchor marks well-provisioned devices that are also measurement
	// targets.
	Anchor bool
	// Active probes issue measurements; probes churn over time (the
	// paper's "fresh, dead Probe" category).
	Active bool
}

// Config sizes the platform.
type Config struct {
	Seed int64
	// NumProbes and NumAnchors, placed in stub and small transit ASes.
	NumProbes  int
	NumAnchors int
	// ProbeDeathPerDay is the expected number of probes that disappear
	// per day.
	ProbeDeathPerDay float64
}

// DefaultConfig returns a platform sized for the experiment harness.
func DefaultConfig() Config {
	return Config{Seed: 2, NumProbes: 120, NumAnchors: 40, ProbeDeathPerDay: 0.5}
}

// Platform binds probes to the simulator.
type Platform struct {
	Sim     *netsim.Sim
	Probes  []*Probe
	rng     *rand.Rand
	deaths  float64
	cfgRate float64
}

// New places probes deterministically across stub ASes (several per AS when
// probes outnumber stubs).
func New(s *netsim.Sim, cfg Config) *Platform {
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Platform{Sim: s, rng: rng, cfgRate: cfg.ProbeDeathPerDay}
	stubs := s.StubASes()
	if len(stubs) == 0 {
		return p
	}
	id := 1
	place := func(n int, anchor bool) {
		for i := 0; i < n; i++ {
			as := stubs[rng.Intn(len(stubs))]
			hostIdx := 100 + id // distinct host addresses per probe
			p.Probes = append(p.Probes, &Probe{
				ID: id, AS: as, IP: s.T.HostIP(as, hostIdx), Anchor: anchor, Active: true,
			})
			id++
		}
	}
	place(cfg.NumAnchors, true)
	place(cfg.NumProbes, false)
	return p
}

// Anchors returns the anchor probes.
func (p *Platform) Anchors() []*Probe {
	var out []*Probe
	for _, pr := range p.Probes {
		if pr.Anchor {
			out = append(out, pr)
		}
	}
	return out
}

// ProbeByID returns a probe.
func (p *Platform) ProbeByID(id int) (*Probe, bool) {
	for _, pr := range p.Probes {
		if pr.ID == id {
			return pr, true
		}
	}
	return nil, false
}

// Measure issues one traceroute from a probe.
func (p *Platform) Measure(probe *Probe, dst uint32, when int64) *traceroute.Traceroute {
	tr := p.Sim.Traceroute(probe.ID, probe.IP, dst, when)
	tr.MsmID = 0
	return tr
}

// AnchoringRound issues the anchoring measurements of §5.1.1: each probe in
// `sources` traceroutes every anchor in `targets`. The anchor mesh is the
// special case sources == targets.
func (p *Platform) AnchoringRound(sources, targets []*Probe, when int64) []*traceroute.Traceroute {
	var out []*traceroute.Traceroute
	for _, src := range sources {
		if !src.Active {
			continue
		}
		for _, dst := range targets {
			if src.ID == dst.ID {
				continue
			}
			tr := p.Sim.Traceroute(src.ID, src.IP, dst.IP, when)
			tr.MsmID = 1000 // anchoring measurement id space
			out = append(out, tr)
		}
	}
	return out
}

// StepDay ages the platform by one day: some probes die.
func (p *Platform) StepDay() {
	p.deaths += p.cfgRate
	for p.deaths >= 1 {
		p.deaths--
		alive := p.aliveNonAnchor()
		if len(alive) == 0 {
			return
		}
		alive[p.rng.Intn(len(alive))].Active = false
	}
}

func (p *Platform) aliveNonAnchor() []*Probe {
	var out []*Probe
	for _, pr := range p.Probes {
		if pr.Active && !pr.Anchor {
			out = append(out, pr)
		}
	}
	return out
}

// Split partitions probes into two equal halves P_public and P_corpus
// deterministically (§5.1.1).
func (p *Platform) Split(seed int64) (public, corpus []*Probe) {
	rng := rand.New(rand.NewSource(seed))
	shuffled := make([]*Probe, len(p.Probes))
	copy(shuffled, p.Probes)
	rng.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	half := len(shuffled) / 2
	public = shuffled[:half]
	corpus = shuffled[half:]
	sort.Slice(public, func(i, j int) bool { return public[i].ID < public[j].ID })
	sort.Slice(corpus, func(i, j int) bool { return corpus[i].ID < corpus[j].ID })
	return public, corpus
}
