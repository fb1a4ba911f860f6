package rrr

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"rrr/internal/bgp"
	"rrr/internal/core"
	"rrr/internal/corpus"
	"rrr/internal/traceroute"
)

// Options configures a Monitor. Mapper is required; the remaining services
// are optional and disable the techniques that need them when absent
// (border-router signals need Geo, IXP signals need Rel).
type Options struct {
	// Config tunes windows and calibration; DefaultConfig() if zero.
	// Config.Shards sets engine parallelism (0 means GOMAXPROCS, 1 closes
	// every window on the caller's goroutine) and is honored even when the
	// rest of the config is zero.
	Config Config
	// Mapper resolves hop addresses to origin ASes and IXP LANs
	// (longest-prefix matching over collector RIBs plus IXP prefix lists;
	// Appendix A).
	Mapper Mapper
	// Aliases resolves interface addresses to routers (MIDAR-style).
	Aliases AliasOracle
	// Geo resolves addresses to cities for §4.2.2's inter-city border
	// monitoring.
	Geo Geolocator
	// Rel answers AS relationship queries for §4.2.3's IXP inference.
	Rel RelOracle
	// IXPMembers seeds the IXP membership snapshot (PeeringDB-style),
	// keyed by the Mapper's IXP identifiers.
	IXPMembers map[int][]ASN
}

// Monitor maintains a corpus of traceroutes and flags stale entries from
// passive feeds. It is safe for concurrent use: writes (feed ingestion,
// window closes, tracking changes) serialize behind a mutex while
// read-only queries share a read lock. The feeds themselves must still
// arrive in time order, so interleaving multiple feed-writing goroutines
// only makes sense if their items are externally time-merged (as Pipeline
// does).
type Monitor struct {
	mu       sync.RWMutex
	engine   *core.Engine
	corp     *corpus.Corpus
	window   int64
	cur      int64
	opened   bool
	firstObs int64
	haveObs  bool

	// version counts verdict-affecting state transitions: window closes,
	// tracking changes, refreshes, and restores. Feed ingestion does NOT
	// bump it — observations only influence verdicts once a window closes
	// — so between closes every pair's verdict is immutable and callers
	// (internal/server's verdict cache) may reuse answers stamped with the
	// current version. Bumped only by bump, under the write lock; read via
	// StateVersion or the version returned by PairStates.
	version atomic.Uint64
	// changes[v%changeLogLen] holds the pairs version v changed, for
	// ChangedSince; written by bump.
	changes [changeLogLen]changeRec

	// Baselines carried over from a restored snapshot, so cumulative
	// counters (signal totals, closed windows, revocations, pruned
	// communities) survive process restarts.
	baseCounts   map[Technique]int
	baseWindows  int
	baseRevSigs  int
	baseRevPairs int
	basePruned   int
}

// changeLogLen is how many state versions ChangedSince looks back over. A
// reader further behind than that gets "all"; one that reads after every
// close is at most a few versions behind.
const changeLogLen = 64

// maxLoggedKeys caps the pairs one version logs; a transition that changes
// more (a catch-up Advance over many windows, say) is logged as changing
// all of them, which also bounds the memory the log's reused slots keep.
const maxLoggedKeys = 4096

// changeRec is one version's entry in the change log: the pairs whose
// verdict inputs the transition changed, or all of them.
type changeRec struct {
	all  bool
	keys []Key
}

// NewMonitor builds a Monitor.
func NewMonitor(opts Options) (*Monitor, error) {
	if opts.Mapper == nil {
		return nil, fmt.Errorf("rrr: Options.Mapper is required")
	}
	cfg := opts.Config
	if cfg.WindowSec == 0 {
		shards := cfg.Shards
		cfg = DefaultConfig()
		cfg.Shards = shards
	}
	eng := core.NewEngine(cfg, opts.Mapper, opts.Aliases, opts.Geo, opts.Rel)
	if opts.IXPMembers != nil {
		eng.SetInitialIXPMembership(opts.IXPMembers)
	}
	return &Monitor{
		engine: eng,
		corp:   corpus.New(opts.Mapper, opts.Aliases),
		window: cfg.WindowSec,
	}, nil
}

// WindowSec returns the signal-generation window duration.
func (m *Monitor) WindowSec() int64 { return m.window }

// WindowClock returns the currently open window's start time and whether
// the clock is running at all (a window has been opened by CloseWindow,
// Advance, or a restored snapshot). Recovery reads it as the snapshot
// watermark: every record before openStart is already rolled up in the
// restored counters and must not be replayed.
func (m *Monitor) WindowClock() (openStart int64, opened bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.cur, m.opened
}

// noteObs tracks the earliest observation time so Advance can snap its
// first window to the start of the feed instead of iterating from 0.
func (m *Monitor) noteObs(t int64) {
	if !m.haveObs || t < m.firstObs {
		m.firstObs, m.haveObs = t, true
	}
}

// ObserveBGP ingests one BGP update. Feed a full table dump first to prime
// the monitor's RIB view, then stream updates in time order.
func (m *Monitor) ObserveBGP(u Update) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.noteObs(u.Time)
	m.engine.ObserveBGP(u)
}

// ObservePublic ingests one public traceroute.
func (m *Monitor) ObservePublic(t *Traceroute) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.noteObs(t.Time)
	m.engine.ObservePublicTrace(t)
}

// Track adds a traceroute to the monitored corpus, replacing any previous
// entry for its (src, dst) pair. Traceroutes whose AS mapping contains a
// loop are rejected (Appendix A).
func (m *Monitor) Track(t *Traceroute) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.trackLocked(t)
}

func (m *Monitor) trackLocked(t *Traceroute) error {
	en, err := m.corp.Add(t)
	if err != nil {
		return err
	}
	if _, tracked := m.engine.Entry(en.Key); tracked {
		m.engine.Reregister(en)
	} else {
		m.engine.AddCorpusEntry(en)
	}
	metMonTracked.Set(int64(m.corp.Len()))
	m.bump(false, []Key{en.Key})
	return nil
}

// Untrack removes a pair from the corpus.
func (m *Monitor) Untrack(k Key) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.corp.Remove(k)
	m.engine.RemovePair(k)
	metMonTracked.Set(int64(m.corp.Len()))
	m.bump(false, []Key{k})
}

// bump is the one place the state version moves. It logs the pairs the
// transition changed (every pair when all is set or the list is longer
// than maxLoggedKeys) under the new version, reusing the slot's storage.
// Callers hold the write lock.
func (m *Monitor) bump(all bool, keys []Key) {
	r := &m.changes[m.version.Add(1)%changeLogLen]
	r.all = all || len(keys) > maxLoggedKeys
	r.keys = r.keys[:0]
	if !r.all {
		r.keys = append(r.keys, keys...)
	}
}

// ChangedSince reports which pairs' verdict inputs (tracking, measurement
// time, potential monitors, active signals) may differ from what they were
// at state version v, and now, the version the answer runs up to: the
// pairs every transition after v logged, or all when one of them changed
// every pair (Restore) or v is further back than the log reaches. An answer
// a caller computed at v for a pair outside keys is still the answer at now.
func (m *Monitor) ChangedSince(v uint64) (keys []Key, all bool, now uint64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	now = m.version.Load()
	if v > now || now-v > changeLogLen {
		return nil, true, now
	}
	for u := v + 1; u <= now; u++ {
		r := &m.changes[u%changeLogLen]
		if r.all {
			return nil, true, now
		}
		keys = append(keys, r.keys...)
	}
	return keys, false, now
}

// Tracked returns the monitored pairs in sorted (Src, Dst) order, so API
// responses and tests are deterministic across runs.
func (m *Monitor) Tracked() []Key {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.corp.Keys()
}

// Entry returns the stored corpus entry for a pair.
func (m *Monitor) Entry(k Key) (*Entry, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.corp.Get(k)
}

// CloseWindow finishes the signal-generation window beginning at ws
// (seconds), returning the window's staleness prediction signals. Call once
// per WindowSec with monotonically increasing ws, after feeding that
// window's updates and traceroutes.
func (m *Monitor) CloseWindow(ws int64) []Signal {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cur, m.opened = ws+m.window, true
	sigs := m.engine.CloseWindow(ws)
	m.noteWindowMetrics(sigs, 1)
	m.bump(false, m.engine.ChangedKeys())
	return sigs
}

// noteWindowMetrics records one or more window closes: per-technique
// signal counters, the windows-closed counter, and the stale-pairs gauge
// (active pairs live only on their owning shard, so the engine count is
// exact). Derived detector state (series baselines, calibration
// internals) is deliberately not exported as metrics — it rebuilds from
// feeds and would pin the exposition to engine internals.
func (m *Monitor) noteWindowMetrics(sigs []Signal, windows int) {
	if windows <= 0 {
		return
	}
	metMonWindows.Add(uint64(windows))
	recordSignalMetrics(sigs)
	metMonStale.Set(int64(m.engine.ActivePairs()))
}

// Advance runs CloseWindow for every window up to (excluding) t, returning
// all signals produced. Convenient when feeds arrive in batches. The first
// call aligns the first window to the floor of the earliest observed (or
// advanced-to) time, so realistic epoch timestamps don't iterate empty
// windows from 0.
func (m *Monitor) Advance(t int64) []Signal {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.opened {
		start := t
		if m.haveObs && m.firstObs < start {
			start = m.firstObs
		}
		// Floor division: a pre-epoch start must snap to the window
		// containing it, not the one truncation rounds toward zero.
		m.cur, m.opened = floorDiv(start, m.window)*m.window, true
	}
	var out []Signal
	var changed []Key
	windows := 0
	for ws := m.cur; ws+m.window <= t; ws += m.window {
		out = append(out, m.engine.CloseWindow(ws)...)
		if len(changed) <= maxLoggedKeys { // past it, bump logs all anyway
			changed = append(changed, m.engine.ChangedKeys()...)
		}
		m.cur = ws + m.window
		windows++
	}
	m.noteWindowMetrics(out, windows)
	if windows > 0 {
		m.bump(false, changed)
	}
	return out
}

// Stale reports whether the pair currently has active (unrevoked)
// staleness prediction signals.
func (m *Monitor) Stale(k Key) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.engine.Active(k)) > 0
}

// ActiveSignals returns the pair's active signals.
func (m *Monitor) ActiveSignals(k Key) []Signal {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.engine.Active(k)
}

// StaleKeys returns all currently-flagged pairs in sorted (Src, Dst)
// order (the iteration follows the corpus's sorted key list).
func (m *Monitor) StaleKeys() []Key {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Key
	for _, k := range m.corp.Keys() {
		if len(m.engine.Active(k)) > 0 {
			out = append(out, k)
		}
	}
	return out
}

// StateVersion returns the monitor's verdict-state version. It moves on
// every transition that may change some pair's staleness answer — window
// closes, tracking changes, refreshes, and restores — and never on raw feed
// ingestion. A caller that cached answers stamped with version v may keep
// serving them while StateVersion still returns v; once it moves,
// ChangedSince(v) names the pairs whose answers to drop, so the rest carry
// over to the new version.
func (m *Monitor) StateVersion() uint64 { return m.version.Load() }

// PairState is one pair's verdict inputs, read consistently under a single
// lock acquisition by PairStates. Signals aliases engine-internal storage:
// treat it as read-only, and copy it to keep it past the next transition
// that ChangedSince reports for the pair.
type PairState struct {
	Key        Key
	Tracked    bool
	MeasuredAt int64
	// Potential counts the monitors covering the pair (§6.2's
	// known/unknown visibility split: tracked with zero potential means
	// the monitor has no vantage over the pair).
	Potential int
	Signals   []Signal
}

// PairStates reads the verdict inputs for every key under one read lock
// and returns them together with the state version they reflect. This is
// the batch query path: one lock acquisition for N keys instead of the
// three per key that Entry + Potential + ActiveSignals would cost.
func (m *Monitor) PairStates(keys []Key) ([]PairState, uint64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]PairState, len(keys))
	for i, k := range keys {
		out[i] = PairState{Key: k}
		en, ok := m.corp.Get(k)
		if !ok {
			continue
		}
		out[i].Tracked = true
		out[i].MeasuredAt = en.MeasuredAt
		out[i].Potential = len(m.engine.Registrations(k))
		out[i].Signals = m.engine.Active(k)
	}
	return out, m.version.Load()
}

// Potential returns the potential signals (monitors) covering a pair; an
// empty result means the monitor lacks visibility into that pair ("unknown"
// in §6.2's classification).
func (m *Monitor) Potential(k Key) []Registration {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.engine.Registrations(k)
}

// planRefreshFallbackSeed seeds the deterministic source PlanRefresh uses
// when the caller passes a nil rng.
const planRefreshFallbackSeed = 1

// PlanRefresh selects up to budget flagged pairs to remeasure, using
// §4.3.1's calibrated prioritization with Table 1 bootstrap ordering. A
// nil rng falls back to a deterministic seeded source (a fresh one per
// call, so concurrent callers never share unsynchronized rand state).
func (m *Monitor) PlanRefresh(budget int, rng *rand.Rand) []Key {
	if rng == nil {
		rng = rand.New(rand.NewSource(planRefreshFallbackSeed))
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.engine.RefreshPlan(budget, rng)
}

// PlanRefreshDetailed is PlanRefresh returning each selection with the
// attributes it was ranked by, so a cluster router can re-merge worker
// plans in global priority order. Same nil-rng fallback as PlanRefresh:
// the two are call-for-call deterministic twins.
func (m *Monitor) PlanRefreshDetailed(budget int, rng *rand.Rand) []PlanItem {
	if rng == nil {
		rng = rand.New(rand.NewSource(planRefreshFallbackSeed))
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.engine.RefreshPlanDetailed(budget, rng)
}

// RecordRefresh ingests a fresh measurement of a tracked pair: it scores
// every potential signal for calibration, replaces the corpus entry, and
// re-registers monitors. It returns the change classification relative to
// the previous entry.
func (m *Monitor) RecordRefresh(t *Traceroute) (ChangeClass, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	en, err := m.corp.Process(t)
	if err != nil {
		return Unchanged, err
	}
	cls, _ := m.engine.EvaluateRefresh(en)
	m.corp.Put(en)
	m.engine.Reregister(en)
	metMonRefreshes.Inc()
	metMonStale.Set(int64(m.engine.ActivePairs()))
	m.bump(false, []Key{en.Key})
	return cls, nil
}

// SignalCounts returns cumulative per-technique signal totals, including
// any baseline restored from a snapshot.
func (m *Monitor) SignalCounts() map[Technique]int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.signalCountsLocked()
}

func (m *Monitor) signalCountsLocked() map[Technique]int {
	out := m.engine.SignalCounts()
	for t, n := range m.baseCounts {
		out[t] += n
	}
	return out
}

// WindowsClosed reports how many signal-generation windows the monitor has
// finished, including windows counted in a restored snapshot.
func (m *Monitor) WindowsClosed() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.baseWindows + m.engine.WindowsClosed()
}

// PrunedCommunities reports how many communities calibration has learned
// to ignore (Appendix B).
func (m *Monitor) PrunedCommunities() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.basePruned + m.engine.Calib.PrunedCommunityCount()
}

// PrunedCommunityIDs lists the pruned communities' values in ascending
// order (only communities pruned by this process — a snapshot baseline
// contributes to PrunedCommunities' count but carries no IDs). A cluster
// merge de-duplicates on these: every worker sees the full feed, so
// independent workers reach the same prune decision about the same
// community.
func (m *Monitor) PrunedCommunityIDs() []uint32 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	comms := m.engine.Calib.PrunedCommunities()
	out := make([]uint32, len(comms))
	for i, c := range comms {
		out[i] = uint32(c)
	}
	return out
}

// RevocationStats reports how many signals §4.3.2 revocation discarded
// because all monitored quantities reverted to their baselines (the
// traceroutes became fresh again without remeasurement).
func (m *Monitor) RevocationStats() (signals, pairEvents int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	signals, pairEvents = m.engine.RevocationStats()
	return m.baseRevSigs + signals, m.baseRevPairs + pairEvents
}

// NewRIBFromUpdates is a convenience that builds a primed RIB-backed
// monitor feed from a table dump; exported for tooling.
func NewRIBFromUpdates(updates []Update) *bgp.RIB {
	r := bgp.NewRIB()
	for _, u := range updates {
		r.Apply(u)
	}
	return r
}

// Classify compares a fresh measurement against the stored entry without
// refreshing (read-only check).
func (m *Monitor) Classify(t *Traceroute) (ChangeClass, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.corp.Classify(t)
}

// MonitorSnapshot captures the state a Monitor needs to resume serving
// staleness queries after a restart without replaying feed history: the
// corpus measurements, the active (unrevoked) signals, the window clock,
// and the cumulative counters. It deliberately excludes derived detector
// state (RIB view, series baselines, calibration): those rebuild from the
// live feeds, while the snapshot keeps queries answerable in the meantime.
// All fields are exported and JSON/gob-serializable; versioning of the
// on-disk envelope is the caller's concern (see internal/server).
type MonitorSnapshot struct {
	// WindowSec is the signal-generation window of the snapshotting
	// monitor; Restore refuses a snapshot taken on a different grid.
	WindowSec int64
	// Cur/Opened/FirstObs/HaveObs restore the Advance clock.
	Cur      int64
	Opened   bool
	FirstObs int64
	HaveObs  bool
	// Traces are the corpus entries' raw traceroutes in sorted key order;
	// Restore re-processes them through the monitor's own services.
	Traces []*Traceroute
	// Active are the active signals across all pairs, in sorted key order.
	Active []Signal
	// Cumulative counters (baselines included, so snapshots chain across
	// restarts).
	SignalCounts      map[Technique]int
	WindowsClosed     int
	RevokedSignals    int
	RevokedPairEvents int
	PrunedCommunities int
}

// Snapshot captures the monitor's restartable state. It takes the write
// lock (the corpus key index sorts lazily) but does not disturb feed or
// window state; it can run while a Pipeline is ingesting.
func (m *Monitor) Snapshot() *MonitorSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &MonitorSnapshot{
		WindowSec:     m.window,
		Cur:           m.cur,
		Opened:        m.opened,
		FirstObs:      m.firstObs,
		HaveObs:       m.haveObs,
		SignalCounts:  m.signalCountsLocked(),
		WindowsClosed: m.baseWindows + m.engine.WindowsClosed(),
	}
	for _, k := range m.corp.Keys() {
		en, ok := m.corp.Get(k)
		if !ok {
			continue
		}
		s.Traces = append(s.Traces, en.Trace)
		s.Active = append(s.Active, m.engine.Active(k)...)
	}
	revSigs, revPairs := m.engine.RevocationStats()
	s.RevokedSignals = m.baseRevSigs + revSigs
	s.RevokedPairEvents = m.baseRevPairs + revPairs
	s.PrunedCommunities = m.basePruned + m.engine.Calib.PrunedCommunityCount()
	return s
}

// Restore rebuilds a freshly-constructed Monitor from a snapshot: every
// corpus traceroute is re-tracked (re-registering potential signals),
// active signals are re-injected so staleness verdicts survive the
// restart, the window clock resumes, and cumulative counters continue from
// their snapshot values. The monitor must use the same services and
// WindowSec as the one that snapshotted; restore onto a monitor that has
// already tracked pairs or counted signals is not supported.
//
// Restore is all-or-nothing: every trace is validated and processed into
// a scratch entry before any of them is committed, so a snapshot with one
// bad trace (an AS-loop the snapshotting monitor's mapper did not see,
// say) leaves the monitor exactly as it was rather than half-restored.
func (m *Monitor) Restore(s *MonitorSnapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.WindowSec != m.window {
		return fmt.Errorf("rrr: snapshot window %ds does not match monitor window %ds", s.WindowSec, m.window)
	}
	entries := make([]*Entry, 0, len(s.Traces))
	for _, tr := range s.Traces {
		en, err := m.corp.Process(tr)
		if err != nil {
			return fmt.Errorf("rrr: restore %s: %w", tr.Key(), err)
		}
		entries = append(entries, en)
	}
	for _, en := range entries {
		m.corp.Put(en)
		if _, tracked := m.engine.Entry(en.Key); tracked {
			m.engine.Reregister(en)
		} else {
			m.engine.AddCorpusEntry(en)
		}
	}
	metMonTracked.Set(int64(m.corp.Len()))
	m.engine.RestoreActive(s.Active)
	m.cur, m.opened = s.Cur, s.Opened
	m.firstObs, m.haveObs = s.FirstObs, s.HaveObs
	m.baseCounts = make(map[Technique]int, len(s.SignalCounts))
	for t, n := range s.SignalCounts {
		m.baseCounts[t] = n
	}
	m.baseWindows = s.WindowsClosed
	m.baseRevSigs, m.baseRevPairs = s.RevokedSignals, s.RevokedPairEvents
	m.basePruned = s.PrunedCommunities
	m.bump(true, nil)
	return nil
}

// Compile-time checks that facade aliases stay wired.
var _ = func() bool {
	var _ traceroute.Key = Key{}
	var _ bgp.Update = Update{}
	return true
}()
