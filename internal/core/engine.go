package core

import (
	"math/rand"
	"runtime"
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
// sharedState (window fold, extra-AS series, subpath monitors, border-router
// series, IXP membership) — and partitions the per-pair monitors across
// Config.Shards shards keyed by corpus pair.
//
// Each update is applied to the RIB and folded into the shared state exactly
// once, and each traceroute is patched, border-mapped, and observed exactly
// once, on the caller's goroutine; no per-shard work happens until
// CloseWindow. CloseWindow runs the shared phase once (extra-AS detectors,
// subpath and border series advances), routes the resulting signals to the
// shards owning their pairs, runs the per-pair phase on every shard — shard 0
// on the caller's goroutine, one goroutine per further shard, alive only
// while the close runs, so the engine owns no long-lived goroutines and needs
// no Close — and k-way-merges the per-shard sorted streams. The per-pair
// phase only reads shared state, so the signal stream is byte-identical for
// any shard count; Shards: 1 is the same code with no goroutine and an
// identity merge, and is the serial reference the differentials compare
// against.
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
	shards  []*shard
	// changed is the last close's merged per-shard changed lists; see
	// ChangedKeys.
	changed []traceroute.Key

	// Calib is the §4.3 calibrator; exported for refresh planning.
	Calib *Calibrator

	windowsClosed int
	met           shardMetrics
}

// shard holds the per-pair state of the corpus pairs it owns: their entries,
// registrations, per-pair BGP monitors, their watcher links into the shared
// subpath and border series, and their active signals. Everything else is
// reached through eng. A shard has no lock of its own: its methods run under
// eng.mu, and during the parallel phase of CloseWindow each shard is touched
// by exactly one goroutine.
type shard struct {
	eng *Engine

	entries map[traceroute.Key]*corpus.Entry
	regs    map[traceroute.Key][]Registration

	asp      []*aspMonitor
	aspByKey map[traceroute.Key][]*aspMonitor
	bursts   []*burstMonitor
	comms    map[traceroute.Key]*commMonitor
	commByVP map[vpPrefix][]*commMonitor

	subByKey   map[traceroute.Key][]*subpathMonitor
	brsByKey   map[traceroute.Key][]*borderRouterSeries
	pendingIXP []Signal

	// winDirty is set when the open window first touches a fold cell one of
	// this shard's monitors watches, and cleared by the shard's close.
	winDirty bool

	// Active signals per corpus pair, for revocation and querying.
	active map[traceroute.Key][]Signal
	// changed lists the pairs whose active signals this shard's last close
	// changed (raised or revoked), repeats allowed; closeOwned resets it.
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
	deadASP        int
	revokedSignals int
	revokedPairs   int
}

func (s *shard) addReg(k traceroute.Key, r Registration) {
	s.regs[k] = append(s.regs[k], r)
}

// NewEngine builds an engine. The RIB should be primed with an initial
// table dump (via ObserveBGP) before corpus traceroutes are registered, as
// the paper starts BGP collection two days before corpus initialization.
func NewEngine(cfg Config, m traceroute.Mapper, aliases bordermap.AliasOracle, geo Geolocator, rel RelOracle) *Engine {
	cfg = cfg.withDefaults()
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		cfg:     cfg,
		mapper:  m,
		aliases: aliases,
		geo:     geo,
		rel:     rel,
		rib:     bgp.NewRIB(),
		patcher: traceroute.NewPatcher(),
		sh:      newSharedState(cfg, geo),
		Calib:   newCalibrator(cfg.CalibrationWindows, cfg.CommunityFPQuota),
		met:     newShardMetrics(n),
	}
	for i := 0; i < n; i++ {
		e.shards = append(e.shards, &shard{
			eng:      e,
			entries:  make(map[traceroute.Key]*corpus.Entry),
			regs:     make(map[traceroute.Key][]Registration),
			aspByKey: make(map[traceroute.Key][]*aspMonitor),
			comms:    make(map[traceroute.Key]*commMonitor),
			commByVP: make(map[vpPrefix][]*commMonitor),
			subByKey: make(map[traceroute.Key][]*subpathMonitor),
			brsByKey: make(map[traceroute.Key][]*borderRouterSeries),
			active:   make(map[traceroute.Key][]Signal),
			retired:  make(map[traceroute.Key]map[string]*retiredState),
		})
	}
	return e
}

// shardIdxOf maps a corpus pair to its owning shard index.
func (e *Engine) shardIdxOf(k traceroute.Key) int {
	h := uint64(k.Src)*0x9e3779b185ebca87 + uint64(k.Dst)*0xc2b2ae3d27d4eb4f
	h ^= h >> 33
	return int(h % uint64(len(e.shards)))
}

// shardOf maps a corpus pair to its owning shard.
func (e *Engine) shardOf(k traceroute.Key) *shard {
	return e.shards[e.shardIdxOf(k)]
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
// §4.2.3 IXP join touches the shards, because turning a join into signals
// scans each shard's own corpus slice; those signals are delivered by the
// next CloseWindow.
func (e *Engine) ObservePublicTrace(t *traceroute.Traceroute) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sh.observeTrace(e.prepareTrace(t), func(ixp int, member bgp.ASN, when int64) {
		for _, s := range e.shards {
			s.pendingIXP = append(s.pendingIXP, s.ixpJoinSignals(ixp, member, when)...)
		}
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
	sc := e.sh.closeShared(ws, ws+e.cfg.WindowSec)

	// Route the shared-series signals to the shards owning their pairs;
	// each bucket preserves the shared phase's emission order for its keys.
	buckets := make([][]Signal, len(e.shards))
	for _, sig := range sc.traceSigs {
		i := e.shardIdxOf(sig.Key)
		buckets[i] = append(buckets[i], sig)
	}

	results := make([][]Signal, len(e.shards))
	closeShard := func(i int) {
		start := time.Now()
		results[i] = e.shards[i].closeOwned(ws, sc, buckets[i])
		e.met.close[i].Observe(time.Since(start).Seconds())
	}
	var wg sync.WaitGroup
	for i := 1; i < len(e.shards); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			closeShard(i)
		}(i)
	}
	closeShard(0)
	wg.Wait()

	e.changed = e.changed[:0]
	for _, s := range e.shards {
		e.changed = append(e.changed, s.changed...)
	}
	e.sh.resetWindow()
	e.windowsClosed++
	return mergeSortedSignals(results)
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
// technique, on the shard owning its pair. The engine's RIB must already be
// primed.
func (e *Engine) AddCorpusEntry(en *corpus.Entry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	i := e.shardIdxOf(en.Key)
	e.shards[i].addCorpusEntry(en)
	e.met.pairs[i].Set(int64(len(e.shards[i].entries)))
}

// Reregister replaces the pair's entry and monitors with a fresh
// measurement, clearing its active signals.
func (e *Engine) Reregister(en *corpus.Entry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.shardOf(en.Key)
	s.removePair(en.Key)
	s.addCorpusEntry(en)
}

// RemovePair unregisters a corpus pair from every technique. Shared series
// persist after their last watcher leaves.
func (e *Engine) RemovePair(k traceroute.Key) {
	e.mu.Lock()
	defer e.mu.Unlock()
	i := e.shardIdxOf(k)
	e.shards[i].removePair(k)
	e.met.pairs[i].Set(int64(len(e.shards[i].entries)))
}

// EvaluateRefresh scores every potential signal of the pair against a new
// measurement, updating the calibrator (including community reputations),
// and returns the change classification. It does not modify registrations;
// call Reregister afterwards to swap in the new measurement.
func (e *Engine) EvaluateRefresh(en *corpus.Entry) (bordermap.ChangeClass, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.shardOf(en.Key).evaluateRefresh(en)
}

// Entry returns the registered corpus entry for a pair.
func (e *Engine) Entry(k traceroute.Key) (*corpus.Entry, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	en, ok := e.shardOf(k).entries[k]
	return en, ok
}

// Registrations returns the potential signals covering a corpus pair.
func (e *Engine) Registrations(k traceroute.Key) []Registration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.shardOf(k).regs[k]
}

// Active returns the currently-active (unrevoked) signals for a pair.
func (e *Engine) Active(k traceroute.Key) []Signal {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.shardOf(k).active[k]
}

// clearActive resets a pair's signal state (after a refresh re-registers
// it).
func (e *Engine) clearActive(k traceroute.Key) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.shardOf(k)
	delete(s.active, k)
	delete(s.restored, k)
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
		s := e.shardOf(sig.Key)
		s.active[sig.Key] = append(s.active[sig.Key], sig)
		if s.restored == nil {
			s.restored = make(map[traceroute.Key]bool)
		}
		s.restored[sig.Key] = true
	}
}

// SignalCounts returns per-technique signal totals.
func (e *Engine) SignalCounts() map[Technique]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[Technique]int, int(numTechniques))
	for t := Technique(0); t < numTechniques; t++ {
		for _, s := range e.shards {
			out[t] += s.signalCount[t]
		}
	}
	return out
}

// ActivePairs counts pairs with at least one active signal.
func (e *Engine) ActivePairs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, s := range e.shards {
		for _, sigs := range s.active {
			if len(sigs) > 0 {
				n++
			}
		}
	}
	return n
}

// RevocationStats reports how many signals (and distinct pair-events) the
// §4.3.2 revocation machinery has discarded because routes reverted.
func (e *Engine) RevocationStats() (signals, pairEvents int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range e.shards {
		signals += s.revokedSignals
		pairEvents += s.revokedPairs
	}
	return signals, pairEvents
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
// per-worker plans in global priority order. It plans over the union of
// every shard's flagged pairs.
func (e *Engine) RefreshPlanDetailed(budget int, rng *rand.Rand) []PlanItem {
	e.mu.Lock()
	defer e.mu.Unlock()
	active := make(map[traceroute.Key][]Signal)
	regs := make(map[traceroute.Key][]Registration)
	for _, s := range e.shards {
		for k, sigs := range s.active {
			if len(sigs) > 0 {
				active[k] = sigs
				regs[k] = s.regs[k]
			}
		}
	}
	return refreshPlan(active, regs, e.Calib, budget, rng)
}
