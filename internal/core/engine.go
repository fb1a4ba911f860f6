package core

import (
	"math/rand"
	"time"

	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/corpus"
	"rrr/internal/traceroute"
)

// Engine consumes BGP updates and public traceroutes and emits staleness
// prediction signals for a registered corpus. It owns everything global to
// one feed — the RIB, the hop table (hop IDs, their mapping answers and
// unresponsive-hop patching evidence), the calibrator, and the sharedState
// (window fold, the §4.1 BGP series, extra-AS series, subpath monitors,
// border-router series, IXP membership) — and, in its embedded pairState,
// the state of each corpus pair.
//
// Each update is applied to the RIB and folded into the shared state exactly
// once, and each traceroute is patched, border-mapped, and observed exactly
// once, on the caller's goroutine. CloseWindow runs on the caller's
// goroutine too: the shared phase (every series steps or advances and fans
// its signals out to its subscribers), then the per-pair phase (active
// signals, revocation, one sort into signalLess order), then the window
// reset. The engine owns no goroutines and needs no Close.
//
// Engine is not safe for concurrent use. rrr.Monitor, its one caller outside
// tests, serializes every call behind its own lock: feeds, closes and
// registrations under the write lock, queries under the read lock (they only
// read). Updates and traceroutes must arrive in time order.
type Engine struct {
	cfg    Config
	mapper traceroute.Mapper
	geo    Geolocator
	rel    RelOracle

	rib *bgp.RIB
	// changes is ObserveBGP's scratch: a run's RIB changes, in order.
	changes []bgp.Change
	// hops interns public-trace hops, keeps their unresponsive-hop patching
	// evidence, and resolves them through the mapper and alias oracle once
	// per IP and service generation.
	hops    *hopTable
	scratch traceScratch
	sh      *sharedState

	// Calib is the §4.3 calibrator; exported for refresh planning.
	Calib *Calibrator

	windowsClosed int
	met           engineMetrics
	seriesMet     seriesMetrics

	pairState
}

// pairState holds the per-pair state of the corpus: entries, the pairs'
// monitors (their registrations), and their active signals. Everything else
// is reached through eng.
type pairState struct {
	eng *Engine

	// corp stores each registered pair's entry; AddCorpusEntry and
	// RemovePair are its only writers (see Corpus).
	corp *corpus.Corpus
	// mons holds the monitors of each registered pair that has any.
	mons map[traceroute.Key]*pairMonitors
	// Registration scratch: a pair's watcher links, copied out at their
	// final count.
	subLinkBuf []subpathLink
	brsLinkBuf []borderLink
	pendingIXP []Signal

	// Active signals per corpus pair, for revocation and querying, as
	// records (see active.go); trackBuf is track's scratch.
	active   map[traceroute.Key][]activeSig
	trackBuf []int32
	// changed lists the pairs whose active signals the last close changed
	// (raised or revoked), repeats allowed; closeOwned resets it. See
	// ChangedKeys.
	changed []traceroute.Key
	// restored marks pairs whose active signals came from a snapshot and
	// whose monitors have not raised a signal in this process; revocation
	// skips them (see RestoreActive). Nil in a process that never restores.
	restored map[traceroute.Key]bool

	// retired stashes detector state when a pair is re-registered after a
	// refresh so monitors with unchanged scope keep their warmed-up
	// detector history instead of cold-starting.
	retired map[traceroute.Key]map[string]*retiredState

	signalCount    [NumTechniques]int
	revokedSignals int
	revokedPairs   int
}

// pairMonitors is one registered pair's monitors, each technique's in
// registration order: its subscriptions to the shared §4.1 series (see
// series.go), which point at these monitors, and its watcher links into the
// shared subpath and border-router series. The pair's registrations are
// read off them; a pair keeps no Registration values.
type pairMonitors struct {
	asp   []aspMonitor
	burst []burstMonitor
	comm  commMonitor
	subs  []subpathLink
	brs   []borderLink
}

// subpathLink and borderLink are a pair's watcher links: the shared series
// and the entry border the pair's watcher spans in it.
type subpathLink struct {
	mon    *subpathMonitor
	border int32
}

type borderLink struct {
	rs     *borderRouterSeries
	border int32
}

// potential counts the pair's registrations.
func (pm *pairMonitors) potential() int {
	if pm == nil {
		return 0
	}
	n := len(pm.asp) + len(pm.burst) + len(pm.subs) + len(pm.brs)
	if pm.comm.group != nil {
		n++
	}
	return n
}

// registrations lists the pair's potential signals in registration order:
// AS-path, burst and community monitors, then subpath and border-router
// watchers. Nil for a pair without monitors.
func (pm *pairMonitors) registrations() []Registration {
	n := pm.potential()
	if n == 0 {
		return nil
	}
	out := make([]Registration, 0, n)
	for i := range pm.asp {
		m := &pm.asp[i]
		out = append(out, Registration{MonitorID: m.id, Technique: TechBGPASPath, Borders: m.borders})
	}
	for i := range pm.burst {
		bm := &pm.burst[i]
		out = append(out, Registration{MonitorID: bm.id, Technique: TechBGPBurst, Borders: bm.borders})
	}
	if cm := &pm.comm; cm.group != nil {
		out = append(out, Registration{MonitorID: cm.id, Technique: TechBGPCommunity, Borders: cm.borders()})
	}
	for _, l := range pm.subs {
		out = append(out, Registration{MonitorID: l.mon.id, Technique: TechTraceSubpath, Borders: oneBorder(l.border)})
	}
	for _, l := range pm.brs {
		out = append(out, Registration{MonitorID: l.rs.id, Technique: TechTraceBorder, Borders: oneBorder(l.border)})
	}
	return out
}

// NewEngine builds an engine. The RIB should be primed with an initial
// table dump (via ObserveBGP) before corpus traceroutes are registered, as
// the paper starts BGP collection two days before corpus initialization.
func NewEngine(cfg Config, m traceroute.Mapper, aliases bordermap.AliasOracle, geo Geolocator, rel RelOracle) *Engine {
	cfg = cfg.withDefaults()
	rib := bgp.NewRIB()
	e := &Engine{
		cfg:       cfg,
		mapper:    m,
		geo:       geo,
		rel:       rel,
		rib:       rib,
		hops:      newHopTable(m, aliases),
		sh:        newSharedState(cfg, geo, rib),
		Calib:     newCalibrator(calibrationWindows, cfg.CommunityFPQuota),
		met:       newEngineMetrics(),
		seriesMet: newSeriesMetrics(),
	}
	e.pairState = pairState{
		eng:     e,
		corp:    corpus.New(m, aliases),
		mons:    make(map[traceroute.Key]*pairMonitors),
		active:  make(map[traceroute.Key][]activeSig),
		retired: make(map[traceroute.Key]map[string]*retiredState),
	}
	return e
}

// ObserveBGP ingests a run of BGP updates, all in the open window;
// updates for prefixes longer than /24 are dropped (§4.1.1). Updates must
// be fed in time order; CloseWindow must be called at each window
// boundary, so a run never spans one. The whole run is applied to the RIB
// into the reused change scratch first, and its changes are then folded
// into the shared state in order: the fold reads only the changes, never
// the RIB, so the two tight loops give what one update at a time gives.
func (e *Engine) ObserveBGP(run ...bgp.Update) {
	cs := e.changes[:0]
	for i := range run {
		if !bgp.FilterTooSpecific(run[i].Prefix) {
			cs = append(cs, e.rib.Apply(run[i]))
		}
	}
	j := 0
	for i := range run {
		if !bgp.FilterTooSpecific(run[i].Prefix) {
			e.sh.observeBGPChange(&run[i], &cs[j])
			j++
		}
	}
	e.changes = cs
	e.met.obs.Add(uint64(len(cs)))
}

// ObservePublicTrace ingests one public traceroute, feeding the subpath,
// border, and IXP techniques plus the unresponsive-hop patcher. Only a
// §4.2.3 IXP join touches per-pair state, because turning a join into
// signals scans the corpus; those signals are delivered by the next
// CloseWindow.
func (e *Engine) ObservePublicTrace(t *traceroute.Traceroute) {
	e.sh.observeTrace(e.prepareTrace(t), func(ixp int, member bgp.ASN, when int64) {
		e.pendingIXP = append(e.pendingIXP, e.ixpJoinSignals(ixp, member, when)...)
	})
	e.met.obs.Inc()
}

// CloseWindow finishes the signal-generation window starting at ws: all
// BGP series are evaluated, traceroute series are advanced past the window
// end, revocation runs, and the window's signals are returned in signalLess
// order. Callers must invoke it once per WindowSec with monotonically
// increasing ws.
func (e *Engine) CloseWindow(ws int64) []Signal {
	sigs := e.sh.closeShared(ws, ws+e.cfg.WindowSec, e.Calib)
	start := time.Now()
	sigs = e.closeOwned(sigs)
	e.met.close.Observe(time.Since(start).Seconds())
	e.sh.resetWindow()
	e.windowsClosed++
	return sigs
}

// ChangedKeys returns the pairs whose active signals the last CloseWindow
// changed — a signal raised on the pair, or its signals revoked — in no
// particular order and possibly repeated. No other state a pair's verdict
// reads (entry, registrations) moves in a close. The slice is engine-owned
// scratch, overwritten by the next CloseWindow.
func (e *Engine) ChangedKeys() []traceroute.Key {
	return e.changed
}

// AddCorpusEntry registers a processed corpus traceroute with every
// technique and stores it as the pair's entry. A pair that is already
// registered is replaced: its monitors, active and pending signals go, and
// its entry is swapped in place. The engine's RIB must already be primed.
// The entry must come from corpus.Process, which bounds its border count
// (see borderOf).
func (e *Engine) AddCorpusEntry(en *corpus.Entry) {
	if _, ok := e.corp.Get(en.Key); ok {
		e.unregister(en.Key)
	}
	e.corp.Put(en)
	pm := &pairMonitors{}
	e.registerBGPMonitors(en, pm)
	e.registerSubpathMonitors(en, pm)
	e.registerBorderMonitors(en, pm)
	if pm.potential() > 0 {
		e.mons[en.Key] = pm
	}
	e.setSeriesGauges()
}

// RemovePair unregisters a corpus pair from every technique and drops its
// entry. A §4.1 series leaves with its last subscriber; the other shared
// series persist after their last watcher leaves.
func (e *Engine) RemovePair(k traceroute.Key) {
	e.unregister(k)
	e.corp.Remove(k)
	e.setSeriesGauges()
}

// Corpus returns the store of registered pairs for reading. Only
// AddCorpusEntry and RemovePair write it.
func (e *Engine) Corpus() *corpus.Corpus { return e.corp }

// Registrations returns the potential signals covering a corpus pair, in
// registration order, read off its monitors into a new slice.
func (e *Engine) Registrations(k traceroute.Key) []Registration {
	return e.mons[k].registrations()
}

// Potential counts the potential signals covering a corpus pair:
// len(Registrations(k)) without building them.
func (e *Engine) Potential(k traceroute.Key) int {
	return e.mons[k].potential()
}

// SignalCounts returns per-technique signal totals, indexed by Technique.
func (e *Engine) SignalCounts() [NumTechniques]int {
	return e.signalCount
}

// ActivePairs counts the registered pairs holding at least one active
// signal. A close only raises signals on registered pairs, so an
// unregistered pair can hold signals only from RestoreActive and is still
// marked restored: only restored pairs need the store lookup.
func (e *Engine) ActivePairs() int {
	n := 0
	for k, recs := range e.active {
		if len(recs) == 0 {
			continue
		}
		if e.restored[k] {
			if _, ok := e.corp.Get(k); !ok {
				continue
			}
		}
		n++
	}
	return n
}

// RevocationStats reports how many signals (and distinct pair-events) the
// §4.3.2 revocation machinery has discarded because routes reverted.
func (e *Engine) RevocationStats() (signals, pairEvents int) {
	return e.revokedSignals, e.revokedPairs
}

// WindowsClosed reports how many CloseWindow calls the engine has run.
func (e *Engine) WindowsClosed() int {
	return e.windowsClosed
}

// SetInitialIXPMembership seeds §4.2.3's membership snapshot (PeeringDB
// substitute, possibly incomplete).
func (e *Engine) SetInitialIXPMembership(members map[int][]bgp.ASN) {
	for ixp, list := range members {
		m := make(map[bgp.ASN]bool, len(list))
		for _, as := range list {
			m[as] = true
		}
		e.sh.ixpMembers[ixp] = m
	}
}

// RefreshPlan selects which corpus pairs to refresh given the probing
// budget, implementing the five-step procedure of §4.3.1: pick the VP with
// the highest relative TPR, compute a per-VP refresh probability combining
// the TPR of firing signals and the TNR of silent potential signals, spend
// budget, then fall back to Table 1's bootstrap ordering for uncalibrated
// signals.
func (e *Engine) RefreshPlan(budget int, rng *rand.Rand) []traceroute.Key {
	return planKeys(e.RefreshPlanDetailed(budget, rng))
}

// RefreshPlanDetailed is RefreshPlan returning each selection with the
// attributes it was ranked by, so a cluster router can re-merge
// per-worker plans in global priority order.
func (e *Engine) RefreshPlanDetailed(budget int, rng *rand.Rand) []PlanItem {
	active := make(map[traceroute.Key][]Signal, len(e.active))
	for k := range e.active {
		if sigs := e.Active(k); len(sigs) > 0 {
			active[k] = sigs
		}
	}
	return refreshPlan(active, e.mons, e.Calib, budget, rng)
}
