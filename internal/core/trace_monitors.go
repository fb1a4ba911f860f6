package core

import (
	"fmt"
	"sort"
	"strings"

	"rrr/internal/anomaly"
	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/corpus"
	"rrr/internal/traceroute"
)

// subpathMonitor implements §4.2.1 for one monitored IP-level subpath.
// Monitors are shared across corpus traceroutes that traverse the same
// subpath (the sharing that Appendix C's Fig 14 quantifies).
type subpathMonitor struct {
	id   int
	ips  []uint32 // the anchor sequence ι_m..ι_n (hole-free, deduped)
	last uint32   // ips[len-1], the ι_n endpoint

	// watchers are the corpus pairs covering this subpath and the border
	// indices the subpath spans in each.
	watchers []subpathWatcher

	ratioSeries
}

// ratioSeries is the match-ratio series of a traceroute-derived monitor
// (§4.2.1 subpaths, §4.2.2 border routers): observations buffer until
// enough data exists to pick a window size from the ladder; then a modified
// z-score series activates and the buffer is replayed into it.
type ratioSeries struct {
	buf    []subObs
	series *anomaly.WindowedSeries
}

type subpathWatcher struct {
	key     traceroute.Key
	borders []int
}

type subObs struct {
	t     int64
	match bool
}

// borderGroupKey identifies an inter-city AS adjacency ⟨AS_m, c_m⟩→⟨AS_n,
// c_n⟩ (§4.2.2).
type borderGroupKey struct {
	FromAS bgp.ASN
	FromC  int
	ToAS   bgp.ASN
	ToC    int
}

// borderGroup tracks which border routers carry traffic between two
// ⟨AS, city⟩ points, with one ratio series per registered router.
type borderGroup struct {
	key     borderGroupKey
	routers map[int]*borderRouterSeries
}

type borderRouterSeries struct {
	id       int
	gk       borderGroupKey
	router   int
	watchers []subpathWatcher

	ratioSeries
}

// addCorpusEntry registers a processed corpus traceroute with every
// technique. Shared series (extra-AS, subpath, border-router) are created in
// or joined from the engine's shared state.
func (s *shard) addCorpusEntry(en *corpus.Entry) {
	s.entries[en.Key] = en

	s.registerBGPMonitors(en)
	s.registerSubpathMonitors(en)
	s.registerBorderMonitors(en)
}

// registerSubpathMonitors creates (or joins) §4.2.1 monitors for each
// border-crossing subpath of the entry. Monitored subpaths are anchored at
// AS boundaries: interdomain segments give the reliable signals, while
// intradomain segments churn with traffic engineering (§4.2's first
// accuracy rule).
func (s *shard) registerSubpathMonitors(en *corpus.Entry) {
	if s.eng.cfg.disabled(TechTraceSubpath) {
		return
	}
	path := en.Trace.IPPath()
	register := func(raw []uint32, bi int) {
		// Dedupe consecutive identical anchors (the far hop of one
		// crossing is often the near hop of the next).
		ips := raw[:0:0]
		for i, ip := range raw {
			if i == 0 || ip != raw[i-1] {
				ips = append(ips, ip)
			}
		}
		if len(ips) < 2 {
			return
		}
		key := subpathKeyOf(ips)
		mon, ok := s.eng.sh.subpaths[key]
		if !ok {
			// Monitors shared across entries are content-named like
			// everything else.
			mon = &subpathMonitor{id: hashID("sub:" + key), ips: ips, last: ips[len(ips)-1]}
			s.eng.sh.subpaths[key] = mon
			s.eng.sh.subByStart[ips[0]] = append(s.eng.sh.subByStart[ips[0]], mon)
			s.eng.sh.subSorted = nil
		}
		mon.watchers = append(mon.watchers, subpathWatcher{key: en.Key, borders: []int{bi}})
		s.subByKey[en.Key] = append(s.subByKey[en.Key], mon)
		s.addReg(en.Key, Registration{MonitorID: mon.id, Technique: TechTraceSubpath, Borders: []int{bi}})
	}
	for bi, b := range en.Borders {
		// Short monitor: near hop, far hop, and one hop of context. It
		// catches far-side changes while the near anchor persists.
		ips := []uint32{path[b.NearIdx], path[b.FarIdx]}
		for k := b.FarIdx + 1; k < len(path); k++ {
			if path[k] != 0 {
				ips = append(ips, path[k])
				break
			}
		}
		register(ips, bi)

		// Sparse bracket monitor: anchored at the previous crossing's far
		// hop and the next crossing's near hop, where paths reconverge
		// after a border change inside the bracket. The anchors are border
		// interfaces only, so intra-domain churn between them is invisible.
		// This is the workhorse for egress shifts, which move both
		// interfaces of a crossing.
		var bracket []uint32
		if bi > 0 {
			bracket = append(bracket, path[en.Borders[bi-1].FarIdx])
		}
		bracket = append(bracket, path[b.NearIdx], path[b.FarIdx])
		if bi+1 < len(en.Borders) {
			bracket = append(bracket, path[en.Borders[bi+1].NearIdx])
		}
		if len(bracket) < 3 || hasZero(bracket) {
			continue
		}
		register(bracket, bi)
	}
}

func hasZero(xs []uint32) bool {
	for _, x := range xs {
		if x == 0 {
			return true
		}
	}
	return false
}

func subpathKeyOf(ips []uint32) string {
	var b strings.Builder
	for i, ip := range ips {
		if i > 0 {
			b.WriteByte('-')
		}
		fmt.Fprintf(&b, "%08x", ip)
	}
	return b.String()
}

// registerBorderMonitors creates (or joins) §4.2.2 monitors: one ratio
// series per (inter-city AS adjacency, border router) the entry uses.
// Crossings whose endpoints cannot be geolocated are skipped (Appendix A).
func (s *shard) registerBorderMonitors(en *corpus.Entry) {
	if s.eng.geo == nil || s.eng.cfg.disabled(TechTraceBorder) {
		return
	}
	for bi, b := range en.Borders {
		gk, router, ok := s.eng.sh.borderGroupOf(b, en.MeasuredAt)
		if !ok {
			continue
		}
		grp := s.eng.sh.borders[gk]
		if grp == nil {
			grp = &borderGroup{key: gk, routers: make(map[int]*borderRouterSeries)}
			s.eng.sh.borders[gk] = grp
		}
		rs := grp.routers[router]
		if rs == nil {
			name := fmt.Sprintf("brs:%d/%d-%d/%d@%d", gk.FromAS, gk.FromC, gk.ToAS, gk.ToC, router)
			rs = &borderRouterSeries{id: hashID(name), gk: gk, router: router}
			grp.routers[router] = rs
			s.eng.sh.borderSorted = nil
		}
		rs.watchers = append(rs.watchers, subpathWatcher{key: en.Key, borders: []int{bi}})
		s.brsByKey[en.Key] = append(s.brsByKey[en.Key], rs)
		s.addReg(en.Key, Registration{MonitorID: rs.id, Technique: TechTraceBorder, Borders: []int{bi}})
	}
}

// preparedTrace is a public traceroute after patching and border mapping:
// everything the shared-series observation step needs. Its slices are the
// engine's per-trace scratch, valid until the next prepareTrace; nothing
// downstream retains them.
type preparedTrace struct {
	time    int64
	path    []uint32
	borders []bordermap.BorderHop
}

// traceScratch is the engine-owned working memory of one public
// traceroute, reused for the next: the caller's hops are patched in a copy
// (the traceroute itself is the feed's), and the IP and border paths are
// appended into buffers that stop growing at the longest trace seen.
type traceScratch struct {
	hops    []traceroute.Hop
	path    []uint32
	borders []bordermap.BorderHop
}

// prepareTrace feeds the unresponsive-hop patcher and resolves the
// patched IP path and border path.
func (e *Engine) prepareTrace(t *traceroute.Traceroute) preparedTrace {
	e.patcher.Observe(t)
	sc := &e.scratch
	sc.hops = append(sc.hops[:0], t.Hops...)
	patched := *t
	patched.Hops = sc.hops
	e.patcher.Patch(&patched)
	sc.path = patched.AppendIPPath(sc.path[:0])
	sc.borders = bordermap.AppendBorderPath(sc.borders[:0], &patched, e.mapper, e.aliases)
	return preparedTrace{time: t.Time, path: sc.path, borders: sc.borders}
}

// matchesSparse reports whether the anchors appear in order within path,
// starting at path[0] == anchors[0].
func matchesSparse(path []uint32, anchors []uint32) bool {
	if len(path) == 0 || len(anchors) == 0 || path[0] != anchors[0] {
		return false
	}
	ai := 1
	for _, ip := range path[1:] {
		if ai == len(anchors) {
			break
		}
		if ip == anchors[ai] {
			ai++
		}
	}
	return ai == len(anchors)
}

// spanHasHole reports whether any hop in path[0..end] is unresponsive.
func spanHasHole(path []uint32, end int) bool {
	if end >= len(path) {
		end = len(path) - 1
	}
	for k := 0; k <= end; k++ {
		if path[k] == 0 {
			return true
		}
	}
	return false
}

// observe records one match/mismatch observation at time t: into the
// series once it is active, into the buffer until then.
func (r *ratioSeries) observe(sh *sharedState, t int64, match bool) {
	if r.series != nil {
		r.series.Observe(t, boolVal(match))
		return
	}
	r.buf = append(r.buf, subObs{t: t, match: match})
	r.activate(sh, t)
}

// activate instantiates the windowed series once enough observations exist
// to choose a window size per §4.2.1's ladder rule, then replays the
// buffer. The buffered times reach ChooseWindowMin through the engine's
// scratch: a monitor can sit between 2*MinObservations and activation for
// thousands of observations.
func (r *ratioSeries) activate(sh *sharedState, now int64) {
	if len(r.buf) < 2*anomaly.MinObservations {
		return
	}
	times := sh.times[:0]
	for _, o := range r.buf {
		times = append(times, o.t)
	}
	sh.times = times
	w, ok := anomaly.ChooseWindowMin(times, now, sh.cfg.PublicLadder, 2)
	if !ok {
		if len(r.buf) > 4096 {
			r.buf = r.buf[len(r.buf)-2048:]
		}
		return
	}
	r.series = &anomaly.WindowedSeries{WindowSec: w, Det: anomaly.NewZScore()}
	for _, o := range r.buf {
		r.series.Observe(o.t, boolVal(o.match))
	}
	r.buf = nil
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ixpJoinSignals scans the corpus for traceroutes that include the new
// member AS_i and, later, another member AS_j, and generates signals
// according to the relationship between AS_i and its current next hop
// (§4.2.3's provider / public-peer / private-peer rules).
func (s *shard) ixpJoinSignals(ixp int, asI bgp.ASN, when int64) []Signal {
	if s.eng.rel == nil {
		return nil
	}
	members := s.eng.sh.ixpMembers[ixp]
	var sigs []Signal
	keys := make([]traceroute.Key, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Src != keys[j].Src {
			return keys[i].Src < keys[j].Src
		}
		return keys[i].Dst < keys[j].Dst
	})
	for _, k := range keys {
		en := s.entries[k]
		idxI := en.ASPath.Index(asI)
		if idxI < 0 || idxI+1 >= len(en.ASPath) {
			continue
		}
		// A later hop that is already a member of the exchange.
		foundJ := -1
		for j := idxI + 1; j < len(en.ASPath); j++ {
			if members[en.ASPath[j]] || s.eng.sh.ixpObserved[ixp][en.ASPath[j]] {
				foundJ = j
				break
			}
		}
		if foundJ < 0 || foundJ == idxI+1 {
			// Already adjacent (possibly already via this IXP): the new
			// membership cannot shorten the path.
			continue
		}
		asK := en.ASPath[idxI+1]
		emit := false
		switch s.eng.rel.Rel(asI, asK) {
		case RelCustomerOf:
			// AS_k is a provider of AS_i: the new IXP peering is cheaper.
			emit = true
		case RelPeerPublic:
			// Equal relationship class: shortest AS path wins.
			emit = true
		case RelPeerPrivate:
			emit = s.eng.sh.allowPriv[asI]
		}
		if !emit {
			continue
		}
		// The signal covers the border leaving AS_i.
		var bs []int
		for bi, b := range en.Borders {
			if b.FromAS == asI {
				bs = append(bs, bi)
			}
		}
		cm := ixpMonitorID(ixp, asI)
		sigs = append(sigs, Signal{
			Technique:   TechIXPMembership,
			Key:         k,
			MonitorID:   cm,
			WindowStart: (when / s.eng.cfg.WindowSec) * s.eng.cfg.WindowSec,
			Borders:     bs,
			Detail:      fmt.Sprintf("%s joined IXP %d", asI, ixp),
			VPCount:     1,
		})
	}
	return sigs
}

// ixpMonitorID derives a stable monitor identity per (IXP, member).
// Negative values keep the space disjoint from hashID's.
func ixpMonitorID(ixp int, as bgp.ASN) int {
	return -(ixp<<32 | int(uint32(as)))
}

// Stats summarizes monitor state for diagnostics and ablation reporting.
type Stats struct {
	SubpathMonitors  int
	SubpathActive    int
	SubpathBuffered  int
	BorderGroups     int
	BorderSeries     int
	BorderActive     int
	IXPObservedASes  int
	ASPathMonitors   int
	BurstMonitors    int
	ExtraSeries      int
	CommunityTargets int
}

// monitorStats reports how many monitors exist and how many traceroute
// series have accumulated enough data to activate. Shared series are counted
// once from the shared state; per-pair monitors are summed over the shards.
func (e *Engine) monitorStats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{
		SubpathMonitors: len(e.sh.subpaths),
		BorderGroups:    len(e.sh.borders),
		ExtraSeries:     len(e.sh.extras),
	}
	for _, s := range e.shards {
		st.ASPathMonitors += len(s.asp) - s.deadASP
		st.BurstMonitors += len(s.bursts)
		st.CommunityTargets += len(s.comms)
	}
	for _, m := range e.sh.subpaths {
		if m.series != nil {
			st.SubpathActive++
		}
		st.SubpathBuffered += len(m.buf)
	}
	for _, grp := range e.sh.borders {
		st.BorderSeries += len(grp.routers)
		for _, rs := range grp.routers {
			if rs.series != nil {
				st.BorderActive++
			}
		}
	}
	for _, m := range e.sh.ixpObserved {
		st.IXPObservedASes += len(m)
	}
	return st
}

// closeOwned finishes the window for the monitors this shard owns:
// per-pair BGP series, the routed share of the window's subpath/border
// signals (traceSigs), pending IXP signals, active-signal tracking, and
// revocation. It only reads shared state; all shared mutation happened in
// closeShared, so shards can run closeOwned concurrently.
func (s *shard) closeOwned(ws int64, sc *sharedClose, traceSigs []Signal) []Signal {
	s.changed = s.changed[:0]
	sigs := s.closeBGPWindow(ws, sc)
	sigs = append(sigs, traceSigs...)

	// Drain pending IXP signals produced during the window.
	sigs = append(sigs, s.pendingIXP...)
	s.pendingIXP = nil

	// Track active signals and revoke reverted ones (§4.3.2).
	for i := range sigs {
		s.signalCount[sigs[i].Technique]++
		s.active[sigs[i].Key] = append(s.active[sigs[i].Key], sigs[i])
		s.changed = append(s.changed, sigs[i].Key)
		delete(s.restored, sigs[i].Key)
	}
	if s.eng.cfg.RevokeSignals {
		s.revokeReverted()
	}

	sortSignals(sigs)
	return sigs
}

func sortedSubpathKeys(m map[string]*subpathMonitor) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedGroupKeys(m map[borderGroupKey]*borderGroup) []borderGroupKey {
	keys := make([]borderGroupKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.FromAS != b.FromAS {
			return a.FromAS < b.FromAS
		}
		if a.ToAS != b.ToAS {
			return a.ToAS < b.ToAS
		}
		if a.FromC != b.FromC {
			return a.FromC < b.FromC
		}
		return a.ToC < b.ToC
	})
	return keys
}

func sortedRouterIDs(m map[int]*borderRouterSeries) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// revokeReverted drops all active signals of a corpus pair when every
// monitored series associated with it has returned to its baseline value
// (§4.3.2): the route reverted, so the traceroute is fresh again. Pairs
// still marked restored are skipped (see RestoreActive).
func (s *shard) revokeReverted() {
	for k, sigs := range s.active {
		if len(sigs) == 0 || s.restored[k] {
			continue
		}
		if s.pairReverted(k) {
			s.revokedSignals += len(sigs)
			s.revokedPairs++
			delete(s.active, k)
			s.changed = append(s.changed, k)
		}
	}
}

// pairReverted reports whether every monitored quantity of the pair is
// back at the value it had when the corpus traceroute was issued: AS-path
// ratios, community sets, and subpath/border-router ratios (§4.3.2).
func (s *shard) pairReverted(k traceroute.Key) bool {
	any := false
	for _, m := range s.aspByKey[k] {
		any = true
		if !m.hasBase || !m.hasLast || m.lastRatio != m.baseline {
			return false
		}
	}
	if cm := s.comms[k]; cm != nil {
		any = true
		for _, st := range cm.overlap {
			rt, ok := st.cell.route(s.eng.rib)
			if !ok {
				return false
			}
			if !rt.Communities.Equal(st.baseline) {
				return false
			}
		}
	}
	for _, mon := range s.subByKey[k] {
		if mon.series == nil {
			continue
		}
		any = true
		first, ok1 := mon.series.First()
		last, ok2 := mon.series.Last()
		if ok1 && ok2 && first != last {
			return false
		}
	}
	for _, rs := range s.brsByKey[k] {
		if rs.series == nil {
			continue
		}
		any = true
		first, ok1 := rs.series.First()
		last, ok2 := rs.series.Last()
		if ok1 && ok2 && first != last {
			return false
		}
	}
	return any
}
