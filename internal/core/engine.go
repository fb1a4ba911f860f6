package core

import (
	"math/rand"
	"sync"
	"time"

	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/corpus"
	"rrr/internal/traceroute"
)

// Engine consumes BGP updates and public traceroutes and emits staleness
// prediction signals for a registered corpus. It owns everything global to
// one feed — the RIB, the unresponsive-hop patcher, the calibrator, and the
// sharedState (window fold, the §4.1 BGP series, extra-AS series, subpath
// monitors, border-router series, IXP membership) — and, in its embedded
// pairState, the state of each corpus pair.
//
// Each update is applied to the RIB and folded into the shared state exactly
// once, and each traceroute is patched, border-mapped, and observed exactly
// once, on the caller's goroutine. CloseWindow runs on the caller's
// goroutine too: the shared phase (every series steps or advances and fans
// its signals out to its subscribers), then the per-pair phase (active
// signals, revocation, one sort into signalLess order), then the window
// reset. The engine owns no goroutines and needs no Close.
//
// Engine is safe for concurrent use, but updates and traceroutes must still
// arrive in time order, so concurrent feeders must serialize externally (the
// Monitor facade does).
type Engine struct {
	mu      sync.Mutex
	cfg     Config
	mapper  traceroute.Mapper
	aliases bordermap.AliasOracle
	geo     Geolocator
	rel     RelOracle

	rib     *bgp.RIB
	patcher *traceroute.Patcher
	scratch traceScratch
	sh      *sharedState

	// Calib is the §4.3 calibrator; exported for refresh planning.
	Calib *Calibrator

	windowsClosed int
	met           engineMetrics
	seriesMet     seriesMetrics

	pairState
}

// pairState holds the per-pair state of the corpus: entries, registrations,
// the pairs' subscriptions to the shared BGP series, their watcher links
// into the shared subpath and border series, and their active signals.
// Everything else is reached through eng. Its methods run under eng.mu.
type pairState struct {
	eng *Engine

	entries map[traceroute.Key]*corpus.Entry
	regs    map[traceroute.Key][]Registration

	// The pairs' §4.1 monitors, each subscribed to a series in the shared
	// state (see series.go), in registration order per pair.
	aspByKey   map[traceroute.Key][]*aspMonitor
	burstByKey map[traceroute.Key][]*burstMonitor
	comms      map[traceroute.Key]*commMonitor

	subByKey   map[traceroute.Key][]*subpathMonitor
	brsByKey   map[traceroute.Key][]*borderRouterSeries
	pendingIXP []Signal

	// Active signals per corpus pair, for revocation and querying.
	active map[traceroute.Key][]Signal
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

	signalCount    [numTechniques]int
	revokedSignals int
	revokedPairs   int
}

func (s *pairState) addReg(k traceroute.Key, r Registration) {
	s.regs[k] = append(s.regs[k], r)
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
		aliases:   aliases,
		geo:       geo,
		rel:       rel,
		rib:       rib,
		patcher:   traceroute.NewPatcher(),
		sh:        newSharedState(cfg, geo, rib),
		Calib:     newCalibrator(calibrationWindows, cfg.CommunityFPQuota),
		met:       newEngineMetrics(),
		seriesMet: newSeriesMetrics(),
	}
	e.pairState = pairState{
		eng:        e,
		entries:    make(map[traceroute.Key]*corpus.Entry),
		regs:       make(map[traceroute.Key][]Registration),
		aspByKey:   make(map[traceroute.Key][]*aspMonitor),
		burstByKey: make(map[traceroute.Key][]*burstMonitor),
		comms:      make(map[traceroute.Key]*commMonitor),
		subByKey:   make(map[traceroute.Key][]*subpathMonitor),
		brsByKey:   make(map[traceroute.Key][]*borderRouterSeries),
		active:     make(map[traceroute.Key][]Signal),
		retired:    make(map[traceroute.Key]map[string]*retiredState),
	}
	return e
}

// ObserveBGP ingests one BGP update. Updates must be fed in time order;
// CloseWindow must be called at each window boundary.
func (e *Engine) ObserveBGP(u bgp.Update) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if bgp.FilterTooSpecific(u.Prefix) {
		return
	}
	e.sh.observeBGPChange(u, e.rib.Apply(u))
	e.met.obs.Inc()
}

// ObservePublicTrace ingests one public traceroute, feeding the subpath,
// border, and IXP techniques plus the unresponsive-hop patcher. Only a
// §4.2.3 IXP join touches per-pair state, because turning a join into
// signals scans the corpus; those signals are delivered by the next
// CloseWindow.
func (e *Engine) ObservePublicTrace(t *traceroute.Traceroute) {
	e.mu.Lock()
	defer e.mu.Unlock()
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
	e.mu.Lock()
	defer e.mu.Unlock()
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
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.changed
}

// AddCorpusEntry registers a processed corpus traceroute with every
// technique. The engine's RIB must already be primed.
func (e *Engine) AddCorpusEntry(en *corpus.Entry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.addCorpusEntry(en)
	e.setSeriesGauges()
}

// Reregister replaces the pair's entry and monitors with a fresh
// measurement, clearing its active signals.
func (e *Engine) Reregister(en *corpus.Entry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.removePair(en.Key)
	e.addCorpusEntry(en)
	e.setSeriesGauges()
}

// RemovePair unregisters a corpus pair from every technique. A §4.1 series
// leaves with its last subscriber; the other shared series persist after
// their last watcher leaves.
func (e *Engine) RemovePair(k traceroute.Key) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.removePair(k)
	e.setSeriesGauges()
}

// EvaluateRefresh scores every potential signal of the pair against a new
// measurement, updating the calibrator (including community reputations),
// and returns the change classification. It does not modify registrations;
// call Reregister afterwards to swap in the new measurement.
func (e *Engine) EvaluateRefresh(en *corpus.Entry) (bordermap.ChangeClass, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.evaluateRefresh(en)
}

// Entry returns the registered corpus entry for a pair.
func (e *Engine) Entry(k traceroute.Key) (*corpus.Entry, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	en, ok := e.entries[k]
	return en, ok
}

// Registrations returns the potential signals covering a corpus pair.
func (e *Engine) Registrations(k traceroute.Key) []Registration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.regs[k]
}

// Active returns the currently-active (unrevoked) signals for a pair.
func (e *Engine) Active(k traceroute.Key) []Signal {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.active[k]
}

// clearActive resets a pair's signal state (after a refresh re-registers
// it).
func (e *Engine) clearActive(k traceroute.Key) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.active, k)
	delete(e.restored, k)
}

// RestoreActive re-injects previously-generated signals into the active
// set, used when a Monitor is rebuilt from a snapshot: the signals keep
// flagging their pairs as stale across a restart without replaying the
// feed history that produced them. Restored signals carry MonitorIDs from
// the previous process generation, which is fine for staleness queries and
// refresh planning. §4.3.2 revocation is suspended for a restored pair: its
// monitors were registered by this process against whatever routes the
// restart found, so "back at baseline" is trivially true. The pair rejoins
// revocation once it raises a signal here (its monitors then hold an
// observed baseline); re-registration, removal and clearActive drop the mark.
func (e *Engine) RestoreActive(sigs []Signal) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, sig := range sigs {
		e.active[sig.Key] = append(e.active[sig.Key], sig)
		if e.restored == nil {
			e.restored = make(map[traceroute.Key]bool)
		}
		e.restored[sig.Key] = true
	}
}

// SignalCounts returns per-technique signal totals.
func (e *Engine) SignalCounts() map[Technique]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[Technique]int, int(numTechniques))
	for t := Technique(0); t < numTechniques; t++ {
		out[t] = e.signalCount[t]
	}
	return out
}

// ActivePairs counts pairs with at least one active signal.
func (e *Engine) ActivePairs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, sigs := range e.active {
		if len(sigs) > 0 {
			n++
		}
	}
	return n
}

// RevocationStats reports how many signals (and distinct pair-events) the
// §4.3.2 revocation machinery has discarded because routes reverted.
func (e *Engine) RevocationStats() (signals, pairEvents int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.revokedSignals, e.revokedPairs
}

// WindowsClosed reports how many CloseWindow calls the engine has run.
func (e *Engine) WindowsClosed() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.windowsClosed
}

// SetInitialIXPMembership seeds §4.2.3's membership snapshot (PeeringDB
// substitute, possibly incomplete).
func (e *Engine) SetInitialIXPMembership(members map[int][]bgp.ASN) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for ixp, list := range members {
		m := make(map[bgp.ASN]bool, len(list))
		for _, as := range list {
			m[as] = true
		}
		e.sh.ixpMembers[ixp] = m
	}
}

// allowPrivatePeerSignals marks an AS as giving public and private peers
// equal local preference, enabling IXP signals through private peers
// (§4.2.3's learned exception).
func (e *Engine) allowPrivatePeerSignals(as bgp.ASN) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sh.allowPriv[as] = true
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
	e.mu.Lock()
	defer e.mu.Unlock()
	return refreshPlan(e.active, e.regs, e.Calib, budget, rng)
}
