// Package experiments contains one runner per table and figure of the
// paper's evaluation (§5, §6, appendices), wiring the simulator, platform,
// corpus, and signal engine together and reporting the same quantities the
// paper plots. Absolute numbers differ from the paper (the substrate is a
// simulator); the runners exist to reproduce the qualitative shape of every
// result.
package experiments

import (
	"fmt"
	"math/rand"

	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/core"
	"rrr/internal/corpus"
	"rrr/internal/geo"
	"rrr/internal/netsim"
	"rrr/internal/platform"
	"rrr/internal/traceroute"
)

// Scale selects experiment sizing.
type Scale struct {
	// Days of virtual time for the main runs.
	Days int
	// WindowSec is the signal-generation window.
	WindowSec int64
	// RoundSec is the corpus remeasurement cadence used for ground truth.
	RoundSec int64
	// PublicPerWindow is how many public traceroutes are issued per
	// window.
	PublicPerWindow int
	// SimCfg and PlatCfg size the substrate.
	SimCfg  netsim.Config
	PlatCfg platform.Config
	// Disabled switches off engine techniques (ablation runs).
	Disabled []core.Technique
	// Scenario, when set and enabled, overlays adversarial episodes
	// (hijacks, leaks, blackholes, trace artifacts, diurnal churn) on the
	// daemon feeds, with ground-truth labels exposed via DaemonEnv.Scen.
	Scenario *netsim.ScenarioPack
	// ScenarioSeed seeds the episode schedule independently of the
	// simulator seed; 0 derives a default from SimCfg.Seed.
	ScenarioSeed int64
	// Shards sets engine parallelism. Experiments default to 1 (no
	// goroutines) so published numbers stay deterministic regardless of
	// the host's core count; the engine's signal stream is identical at
	// any shard count either way.
	Shards int
}

// QuickScale is small enough for unit tests and CI.
func QuickScale() Scale {
	sc := netsim.TestConfig()
	pc := platform.DefaultConfig()
	pc.NumProbes = 40
	pc.NumAnchors = 12
	return Scale{
		Days:            6,
		WindowSec:       900,
		RoundSec:        4 * 3600,
		PublicPerWindow: 80,
		SimCfg:          sc,
		PlatCfg:         pc,
	}
}

// PaperScale approximates the paper's proportions at laptop-runnable size.
func PaperScale() Scale {
	sc := netsim.DefaultConfig()
	pc := platform.DefaultConfig()
	return Scale{
		Days:            30,
		WindowSec:       900,
		RoundSec:        6 * 3600,
		PublicPerWindow: 350,
		SimCfg:          sc,
		PlatCfg:         pc,
	}
}

// ScaleByName resolves a command's -scale flag ("quick" or "paper") and
// applies its -days and -seed overrides; zero keeps the scale's default.
func ScaleByName(name string, days int, seed int64) (Scale, error) {
	var sc Scale
	switch name {
	case "quick":
		sc = QuickScale()
	case "paper":
		sc = PaperScale()
	default:
		return Scale{}, fmt.Errorf("unknown scale %q", name)
	}
	if days > 0 {
		sc.Days = days
	}
	if seed != 0 {
		sc.SimCfg.Seed = seed
	}
	return sc, nil
}

// Lab is the assembled experiment environment.
type Lab struct {
	Scale  Scale
	Sim    *netsim.Sim
	Plat   *platform.Platform
	Engine *core.Engine
	Corp   *corpus.Corpus

	Aliases bordermap.AliasOracle
	Geo     *LabGeo
	Rel     LabRel

	// Public and CorpusProbes are the §5.1.1 split.
	Public       []*platform.Probe
	CorpusProbes []*platform.Probe
	Anchors      []*platform.Probe

	// OnPublicTrace, when set, receives each public traceroute instead of
	// the engine. The engine bench uses it to record one window's feed and
	// replay it per shard count, so the timed loop contains engine work
	// only (trace generation is identical across shard counts anyway —
	// same seed — but its cost is not engine cost).
	OnPublicTrace func(tr *traceroute.Traceroute)

	patcher *traceroute.Patcher
	rng     *rand.Rand
}

// LabGeo adapts geo.Locator to core.Geolocator.
type LabGeo struct {
	L *geo.Locator
}

// LocateCity implements core.Geolocator.
func (g *LabGeo) LocateCity(ip uint32, when int64) (int, bool) {
	c, _, ok := g.L.Locate(ip, when)
	return int(c), ok
}

// LabRel adapts the simulator's ground-truth relationships to
// core.RelOracle (standing in for CAIDA's AS relationship database).
type LabRel struct {
	T *netsim.Topology
}

// Rel implements core.RelOracle: a's relationship toward b.
func (r LabRel) Rel(a, b bgp.ASN) core.Rel {
	rel, ok := r.T.RelBetween(a, b)
	if !ok {
		return core.RelNone
	}
	switch rel {
	case netsim.RelCustomer:
		return core.RelCustomerOf
	case netsim.RelProvider:
		return core.RelProviderOf
	default:
		for _, lid := range r.T.LinksBetween(a, b) {
			if r.T.Links[lid].IXP != 0 {
				return core.RelPeerPublic
			}
		}
		return core.RelPeerPrivate
	}
}

// NewLab assembles the full pipeline: simulator, platform, geolocation DB,
// engine primed with an initial table dump, probe split, and the initial
// corpus from an anchoring round.
func NewLab(sc Scale) *Lab {
	sim := netsim.New(sc.SimCfg)
	plat := platform.New(sim, sc.PlatCfg)

	aliases := bordermap.OracleFunc(func(ip uint32) (int, bool) {
		r, ok := sim.T.RouterForIP(ip)
		return int(r), ok
	})

	// IPMap-like DB over all router addresses, with the accuracy profile
	// the paper reports for IPMap (80%+ city-level).
	labGeo := simGeolocator(sim, sc.SimCfg.Seed+100)
	rel := LabRel{T: sim.T}

	cfg := core.DefaultConfig()
	cfg.WindowSec = sc.WindowSec
	cfg.Disabled = sc.Disabled
	cfg.Shards = sc.Shards
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	eng := core.NewEngine(cfg, sim.Mapper(), aliases, labGeo, rel)

	// Prime the RIB with a full dump (the paper starts BGP collection two
	// days before corpus initialization) and stream subsequent updates.
	for _, u := range sim.InitialUpdates(0) {
		eng.ObserveBGP(u)
	}
	sim.OnUpdate(func(u bgp.Update) { eng.ObserveBGP(u) })

	// PeeringDB-style membership snapshot with gaps.
	snap := sim.MembershipSnapshot(0.3)
	members := make(map[int][]bgp.ASN, len(snap))
	for id, list := range snap {
		members[int(id)] = list
	}
	eng.SetInitialIXPMembership(members)

	lab := &Lab{
		Scale:   sc,
		Sim:     sim,
		Plat:    plat,
		Engine:  eng,
		Corp:    corpus.New(sim.Mapper(), aliases),
		Aliases: aliases,
		Geo:     labGeo,
		Rel:     rel,
		patcher: traceroute.NewPatcher(),
		rng:     rand.New(rand.NewSource(sc.SimCfg.Seed + 7)),
	}
	pub, corp := plat.Split(sc.SimCfg.Seed + 13)
	lab.Public, lab.CorpusProbes = pub, corp
	lab.Anchors = plat.Anchors()
	return lab
}

// BuildCorpus measures the initial corpus (corpus probes → anchors) at the
// current virtual time and registers it with the engine. Two measurement
// passes feed the unresponsive-hop patcher before processing (Appendix A).
func (l *Lab) BuildCorpus() int {
	raw := l.Plat.AnchoringRound(l.CorpusProbes, l.Anchors, l.Sim.Now())
	for _, tr := range raw {
		l.patcher.Observe(tr)
	}
	n := 0
	for _, tr := range raw {
		l.patcher.Patch(tr)
		en, err := l.Corp.Add(tr)
		if err != nil {
			continue // AS-loop traces are discarded (Appendix A)
		}
		l.Engine.AddCorpusEntry(en)
		n++
	}
	return n
}

// PublicRound issues n public traceroutes from P_public probes to randomly
// chosen destinations (excluding anchoring targets per §5.1.2 is naturally
// approximated by random host targets) and feeds them to the engine.
func (l *Lab) PublicRound(n int, when int64) {
	if len(l.Public) == 0 {
		return
	}
	asns := l.Sim.StubASes()
	for i := 0; i < n; i++ {
		probe := l.Public[l.rng.Intn(len(l.Public))]
		if !probe.Active {
			continue
		}
		dstAS := asns[l.rng.Intn(len(asns))]
		dst := l.Sim.T.HostIP(dstAS, 1+l.rng.Intn(20))
		tr := l.Sim.Traceroute(probe.ID, probe.IP, dst, when)
		if l.OnPublicTrace != nil {
			l.OnPublicTrace(tr)
		} else {
			l.Engine.ObservePublicTrace(tr)
		}
	}
}

// MeasurePair remeasures one corpus pair against ground truth (used for
// evaluation, not counted against any budget), patching unresponsive hops
// from accumulated evidence.
func (l *Lab) MeasurePair(k traceroute.Key, probeID int, when int64) (*corpus.Entry, error) {
	tr := l.Sim.Traceroute(probeID, k.Src, k.Dst, when)
	l.patcher.Observe(tr)
	l.patcher.Patch(tr)
	return l.Corp.Process(tr)
}

// ChangeClassOf compares a pair's stored entry against a fresh ground-truth
// measurement.
func (l *Lab) ChangeClassOf(k traceroute.Key, when int64) (bordermap.ChangeClass, *corpus.Entry, error) {
	en, ok := l.Corp.Get(k)
	if !ok {
		return bordermap.Unchanged, nil, nil
	}
	fresh, err := l.MeasurePair(k, en.Trace.ProbeID, when)
	if err != nil {
		return bordermap.Unchanged, nil, err
	}
	return corpus.ClassifyEntry(en, fresh), fresh, nil
}
