// Package experiments contains one runner per table and figure of the
// paper's evaluation (§5, §6, appendices), driving an rrr.Monitor over the
// simulated feed rrrd ingests and reporting the same quantities the paper
// plots. Absolute numbers differ from the paper (the substrate is a
// simulator); the runners exist to reproduce the qualitative shape of every
// result.
package experiments

import (
	"fmt"

	"rrr"
	"rrr/internal/bgp"
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

// Lab is the assembled experiment environment: the daemon's simulated
// environment and an rrr.Monitor built from its services, which the Lab
// feeds one window at a time on the caller's goroutine. Every experiment
// reads and refreshes the corpus through the monitor, so the paper's
// numbers come from the program rrrd runs.
type Lab struct {
	*DaemonEnv
	Mon *rrr.Monitor

	// Tap, when set, observes every record the Lab feeds the monitor and
	// every window close, in the order and at the points RunPipeline's Tap
	// does.
	Tap rrr.RecordTap

	// proc processes ground-truth remeasurements with the monitor's
	// services; it never stores an entry.
	proc    *corpus.Corpus
	patcher *traceroute.Patcher
}

// labGeo adapts geo.Locator to core.Geolocator.
type labGeo struct {
	L *geo.Locator
}

// LocateCity implements core.Geolocator.
func (g *labGeo) LocateCity(ip uint32, when int64) (int, bool) {
	c, _, ok := g.L.Locate(ip, when)
	return int(c), ok
}

// labRel adapts the simulator's ground-truth relationships to
// core.RelOracle (standing in for CAIDA's AS relationship database).
type labRel struct {
	T *netsim.Topology
}

// Rel implements core.RelOracle: a's relationship toward b.
func (r labRel) Rel(a, b bgp.ASN) core.Rel {
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

// NewLab builds the daemon environment at scale sc and a monitor over its
// services, primed with the environment's table dump the way daemon.New
// primes rrrd's.
// The monitor tracks nothing yet: BuildCorpus tracks the anchoring-round
// corpus, and experiments with a corpus of their own track it themselves.
func NewLab(sc Scale) *Lab {
	env := NewDaemonEnv(sc, 0)
	cfg := rrr.DefaultConfig()
	cfg.WindowSec = sc.WindowSec
	cfg.Disabled = sc.Disabled
	mon, err := rrr.NewMonitor(rrr.Options{
		Config:     cfg,
		Mapper:     env.Mapper,
		Aliases:    env.Aliases,
		Geo:        env.Geo,
		Rel:        env.Rel,
		IXPMembers: env.IXPMembers,
	})
	if err != nil {
		panic(err) // only a nil Mapper fails, and the environment always has one
	}
	for _, u := range env.Dump {
		mon.ObserveBGP(u)
	}
	return &Lab{
		DaemonEnv: env,
		Mon:       mon,
		proc:      corpus.New(env.Mapper, env.Aliases),
		patcher:   traceroute.NewPatcher(),
	}
}

// BuildCorpus tracks the environment's initial corpus (corpus probes →
// anchors, unresponsive hops patched) as Daemon.Track does and returns how
// many pairs the monitor accepted; AS-loop traces are discarded (Appendix
// A). The traces also seed the patcher remeasurements use.
func (l *Lab) BuildCorpus() int {
	n := 0
	for _, tr := range l.Corpus {
		l.patcher.Observe(tr)
		if l.Mon.Track(tr) == nil {
			n++
		}
	}
	return n
}

// ingest steps the feed one window and feeds its records to Tap and the
// monitor in RunPipeline's order: by timestamp, updates first on ties. It
// returns the window's start, or ok false once the feed has ended.
func (l *Lab) ingest() (ws int64, ok bool) {
	ws, ups, trs, ok := l.nextWindow()
	for len(ups) > 0 || len(trs) > 0 {
		if len(ups) > 0 && (len(trs) == 0 || ups[0].Time <= trs[0].Time) {
			if l.Tap != nil {
				l.Tap.TapUpdate(ups[0])
			}
			l.Mon.ObserveBGP(ups[0])
			ups = ups[1:]
		} else {
			if l.Tap != nil {
				l.Tap.TapTrace(trs[0])
			}
			l.Mon.ObservePublic(trs[0])
			trs = trs[1:]
		}
	}
	return ws, ok
}

// Close closes the window starting at ws and returns its signals; Tap sees
// the close after the monitor has run it.
func (l *Lab) Close(ws int64) []rrr.Signal {
	sigs := l.Mon.CloseWindow(ws)
	if l.Tap != nil {
		l.Tap.TapWindowClose(ws)
	}
	return sigs
}

// Window is Ingest followed by Close.
func (l *Lab) Window() (ws int64, sigs []rrr.Signal, ok bool) {
	if ws, ok = l.ingest(); ok {
		sigs = l.Close(ws)
	}
	return ws, sigs, ok
}

// Refresh remeasures a tracked pair against ground truth and records the
// measurement through Mon.RecordRefresh, §4.3's refresh step, returning the
// change class. The simulator's ground truth charges no budget.
func (l *Lab) Refresh(k rrr.Key, when int64) (rrr.ChangeClass, error) {
	tr, err := l.remeasure(k, when)
	if err != nil {
		return rrr.Unchanged, err
	}
	return l.Mon.RecordRefresh(tr)
}

// MeasurePair remeasures a tracked pair like Refresh but only processes the
// measurement into a corpus entry, for comparisons that must leave the
// monitor untouched.
func (l *Lab) MeasurePair(k rrr.Key, when int64) (*rrr.Entry, error) {
	tr, err := l.remeasure(k, when)
	if err != nil {
		return nil, err
	}
	return l.proc.Process(tr)
}

// remeasure traces a tracked pair again from the probe that measured it,
// patching unresponsive hops from the evidence accumulated so far.
func (l *Lab) remeasure(k rrr.Key, when int64) (*rrr.Traceroute, error) {
	en, ok := l.Mon.Entry(k)
	if !ok {
		return nil, fmt.Errorf("experiments: pair %v is not tracked", k)
	}
	tr := l.Sim.Traceroute(en.Trace.ProbeID, k.Src, k.Dst, when)
	l.patcher.Observe(tr)
	l.patcher.Patch(tr)
	return tr, nil
}
