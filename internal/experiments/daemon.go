package experiments

import (
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/core"
	"rrr/internal/geo"
	"rrr/internal/netsim"
	"rrr/internal/platform"
	"rrr/internal/traceroute"
)

// DaemonEnv bundles everything a serving daemon (cmd/rrrd) needs to run a
// Monitor over live simulated feeds: the mapping services, an initial
// table dump, the initial corpus measurements, and two incremental feed
// sources that generate BGP updates and public traceroutes window by
// window as they are consumed. In a real deployment these would be a RIS /
// RouteViews stream and the RIPE Atlas firehose; the simulator stands in
// with the same interfaces.
type DaemonEnv struct {
	Sim  *netsim.Sim
	Plat *platform.Platform

	// Services for rrr.Options.
	Mapper     traceroute.Mapper
	Aliases    bordermap.AliasOracle
	Geo        core.Geolocator
	Rel        core.RelOracle
	IXPMembers map[int][]bgp.ASN

	// Dump primes the monitor's RIB view before streaming (the paper
	// starts BGP collection before corpus initialization).
	Dump []bgp.Update
	// Corpus holds the initial corpus traceroutes (anchoring round,
	// unresponsive hops patched); feed them to Monitor.Track.
	Corpus []*traceroute.Traceroute

	// Updates and Traces are the live feeds for rrr.RunPipeline.
	Updates *SimUpdateFeed
	Traces  *SimTraceFeed

	// Scen is the adversarial scenario driving the feeds when
	// Scale.Scenario is enabled; nil otherwise. Its Truths() are the
	// ground-truth labels for everything the scenario injected.
	Scen *netsim.Scenario
}

// scenarioProbeBase offsets fabricated artifact-trace probe IDs well past
// any platform probe ID so injected traces never collide with real probes.
const scenarioProbeBase = 1 << 20

// simGeolocator builds the IPMap-like geolocation database over the
// simulator's router addresses (80%+ city-level accuracy profile).
func simGeolocator(sim *netsim.Sim, seed int64) *labGeo {
	var infraIPs []uint32
	for i := 1; i < len(sim.T.Routers); i++ {
		infraIPs = append(infraIPs, sim.T.Routers[i].Loopback)
		infraIPs = append(infraIPs, sim.T.Routers[i].Interfaces...)
	}
	db := geo.BuildDB(sim, infraIPs, geo.DBProfile{
		Name: "ipmap", Coverage: 0.7, ExactFrac: 0.85, NearFrac: 0.1,
	}, seed)
	return &labGeo{L: geo.NewLocator(sim, db)}
}

// NewDaemonEnv assembles a daemon environment at the given scale. The feed
// runs for sc.Days of virtual time and then reports EOF on both sources;
// pace, when positive, is the wall-clock delay per virtual window, turning
// the feed into a real-time-like stream (0 runs as fast as the consumer
// pulls). The same scale and seed always produce the same dump, corpus,
// and feed, so a restarted daemon can resume against identical services.
func NewDaemonEnv(sc Scale, pace time.Duration) *DaemonEnv {
	sim := netsim.New(sc.SimCfg)
	plat := platform.New(sim, sc.PlatCfg)

	svc := &simServices{
		mapper: sim.Mapper(),
		t:      sim.T,
		geo:    simGeolocator(sim, sc.SimCfg.Seed+100),
		rel:    labRel{T: sim.T},
	}
	env := &DaemonEnv{
		Sim:     sim,
		Plat:    plat,
		Mapper:  svc,
		Aliases: svc,
		Geo:     svc,
		Rel:     svc,
	}

	// Table dump first, then hook the live capture: Step-generated
	// updates flow into the feed queue, not the dump.
	env.Dump = sim.InitialUpdates(0)

	// Adversarial overlay: schedule the episode pack and teach the dump
	// any legitimate multi-origin baseline (anycast) before priming.
	var scen *netsim.Scenario
	if sc.Scenario != nil && sc.Scenario.Enabled() {
		seed := sc.ScenarioSeed
		if seed == 0 {
			seed = sc.SimCfg.Seed + 77
		}
		scen = netsim.NewScenario(sim, *sc.Scenario, seed, int64(sc.Days)*86400, sc.WindowSec)
		env.Dump = scen.AugmentDump(env.Dump)
		env.Scen = scen
	}

	// PeeringDB-style membership snapshot with gaps.
	snap := sim.MembershipSnapshot(0.3)
	env.IXPMembers = make(map[int][]bgp.ASN, len(snap))
	for id, list := range snap {
		env.IXPMembers[int(id)] = list
	}

	// Initial corpus: an anchoring round from the corpus probes, with two
	// observation passes feeding the unresponsive-hop patcher (Appendix
	// A). AS-loop traces are left in; Monitor.Track rejects them.
	public, corpusProbes := plat.Split(sc.SimCfg.Seed + 13)
	patcher := traceroute.NewPatcher()
	raw := plat.AnchoringRound(corpusProbes, plat.Anchors(), sim.Now())
	for _, tr := range raw {
		patcher.Observe(tr)
	}
	for _, tr := range raw {
		patcher.Patch(tr)
	}
	env.Corpus = raw

	f := &daemonFeed{
		simMu:           &svc.mu,
		sim:             sim,
		scen:            scen,
		public:          public,
		rng:             rand.New(rand.NewSource(sc.SimCfg.Seed + 21)),
		windowSec:       sc.WindowSec,
		publicPerWindow: sc.PublicPerWindow,
		end:             int64(sc.Days) * 86400,
		pace:            pace,
	}
	sim.OnUpdate(func(u bgp.Update) { f.updates = append(f.updates, u) })
	env.Updates = &SimUpdateFeed{f: f}
	env.Traces = &SimTraceFeed{f: f}
	return env
}

// daemonFeed generates the simulator's feed lazily: whenever either reader
// runs dry it advances the simulation by one window, capturing the BGP
// updates that Step emits and issuing that window's public traceroutes.
// Both sources stay individually time-ordered, as rrr.RunPipeline requires.
type daemonFeed struct {
	mu sync.Mutex
	// simMu is the services' lock, held for writing while a step mutates
	// the simulator (an IXP join writes the topology maps they read).
	simMu           *sync.RWMutex
	sim             *netsim.Sim
	scen            *netsim.Scenario
	public          []*platform.Probe
	rng             *rand.Rand
	windowSec       int64
	publicPerWindow int
	next            int64 // next window start
	end             int64 // feed end (exclusive); <= 0 runs forever
	pace            time.Duration
	done            bool

	updates []bgp.Update
	uHead   int
	traces  []*traceroute.Traceroute
	tHead   int
}

// step advances one window (mu held). The OnUpdate hook registered at
// construction appends Step's updates to f.updates. Stepping the simulator
// holds simMu for writing, so nothing in step may call the environment's
// services, which take it for reading; issuing the window's traceroutes
// only reads the topology and runs outside it.
func (f *daemonFeed) step() {
	if f.end > 0 && f.next >= f.end {
		f.done = true
		return
	}
	if f.pace > 0 {
		time.Sleep(f.pace)
	}
	ws := f.next
	segStart := len(f.updates)
	f.simMu.Lock()
	f.sim.Step(f.windowSec)
	if f.scen != nil {
		// Scenario emissions publish through the same hook but grouped
		// after the step's benign updates; restore time order over the
		// window's combined segment (stable, so equal-time benign updates
		// stay ahead of forged ones — deterministic either way).
		f.scen.Advance(ws, ws+f.windowSec)
		seg := f.updates[segStart:]
		sort.SliceStable(seg, func(i, j int) bool { return seg[i].Time < seg[j].Time })
	}
	f.simMu.Unlock()
	if f.publicPerWindow > 0 && len(f.public) > 0 {
		asns := f.sim.StubASes()
		when := ws + f.windowSec/2
		for i := 0; i < f.publicPerWindow; i++ {
			probe := f.public[f.rng.Intn(len(f.public))]
			if !probe.Active {
				continue
			}
			dstAS := asns[f.rng.Intn(len(asns))]
			dst := f.sim.T.HostIP(dstAS, 1+f.rng.Intn(20))
			f.traces = append(f.traces, f.sim.Traceroute(probe.ID, probe.IP, dst, when))
		}
	}
	if f.scen != nil {
		// Artifact traces land at ws+windowSec/2+i, at or after every
		// benign trace of the window, so appending keeps time order.
		f.traces = append(f.traces, f.scen.WindowTraces(scenarioProbeBase, ws)...)
	}
	f.next = ws + f.windowSec
}

// nextWindow steps the feed one window and hands over what that window
// queued: its start, its BGP updates and its public traceroutes, each in
// time order. ok is false once the feed has ended. It is the
// window-at-a-time way to consume the feed, for a caller that drives a
// Monitor on its own goroutine (Lab) instead of reading Updates and Traces
// through rrr.RunPipeline; one environment serves one of the two.
func (e *DaemonEnv) nextWindow() (ws int64, ups []bgp.Update, trs []*traceroute.Traceroute, ok bool) {
	f := e.Updates.f
	f.mu.Lock()
	defer f.mu.Unlock()
	ws = f.next
	if f.step(); f.done {
		return ws, nil, nil, false
	}
	ups, trs = f.updates[f.uHead:], f.traces[f.tHead:]
	f.updates, f.uHead, f.traces, f.tHead = nil, 0, nil, 0
	return ws, ups, trs, true
}

func (f *daemonFeed) readUpdate() (bgp.Update, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.uHead >= len(f.updates) {
		if f.done {
			return bgp.Update{}, io.EOF
		}
		f.step()
	}
	u := f.updates[f.uHead]
	f.uHead++
	if f.uHead == len(f.updates) {
		f.updates, f.uHead = f.updates[:0], 0
	}
	return u, nil
}

func (f *daemonFeed) readTrace() (*traceroute.Traceroute, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.tHead >= len(f.traces) {
		if f.done {
			return nil, io.EOF
		}
		f.step()
	}
	t := f.traces[f.tHead]
	f.traces[f.tHead] = nil
	f.tHead++
	if f.tHead == len(f.traces) {
		f.traces, f.tHead = f.traces[:0], 0
	}
	return t, nil
}

// simServices serves the monitor's mapper, alias, geolocation and
// relationship oracles from the simulator, each read under mu: the feed's
// readers step the simulator on their own goroutines while the monitor
// queries these services on the pipeline's merge goroutine.
type simServices struct {
	mu     sync.RWMutex
	mapper netsim.SimMapper
	t      *netsim.Topology
	geo    *labGeo
	rel    labRel
}

// ASOf implements traceroute.Mapper.
func (s *simServices) ASOf(ip uint32) (bgp.ASN, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.mapper.ASOf(ip)
}

// IXPOf implements traceroute.Mapper.
func (s *simServices) IXPOf(ip uint32) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.mapper.IXPOf(ip)
}

// IXPMemberOf implements bordermap.IXPMembershipResolver, which border
// mapping type-asserts on the mapper to attribute IXP interfaces.
func (s *simServices) IXPMemberOf(ip uint32) (bgp.ASN, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.mapper.IXPMemberOf(ip)
}

// RouterOf implements bordermap.AliasOracle.
func (s *simServices) RouterOf(ip uint32) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.t.RouterForIP(ip)
	return int(r), ok
}

// LocateCity implements core.Geolocator.
func (s *simServices) LocateCity(ip uint32, when int64) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.geo.LocateCity(ip, when)
}

// Rel implements core.RelOracle.
func (s *simServices) Rel(a, b bgp.ASN) core.Rel {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rel.Rel(a, b)
}

// SimUpdateFeed implements bgp.UpdateSource over the shared window
// generator.
type SimUpdateFeed struct{ f *daemonFeed }

// Read returns the next BGP update, advancing the simulation as needed;
// io.EOF after the configured number of days.
func (s *SimUpdateFeed) Read() (bgp.Update, error) { return s.f.readUpdate() }

// SimTraceFeed implements the Pipeline's TraceSource over the shared
// window generator.
type SimTraceFeed struct{ f *daemonFeed }

// Read returns the next public traceroute, advancing the simulation as
// needed; io.EOF after the configured number of days.
func (s *SimTraceFeed) Read() (*traceroute.Traceroute, error) { return s.f.readTrace() }
