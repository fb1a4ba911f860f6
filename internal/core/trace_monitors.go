package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

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
	id  int
	ips []uint32 // the anchor sequence ι_m..ι_n (hole-free, deduped)

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
	// buf holds the buffered observations packed one to a word (see
	// packObs); wide holds them instead, for good, from the first
	// observation whose time does not pack.
	buf    []int64
	wide   []subObs
	series *anomaly.WindowedSeries
	// noBucket is the ladder bucket (time / sharedState.ladderStep) of the
	// last observation for which the buffer could not choose a window,
	// valid while hasNo.
	noBucket int64
	hasNo    bool
	// unsorted is set once an observation arrives older than the one
	// before it; activate then sorts the times it hands ChooseWindowMin.
	unsorted bool
}

// subpathWatcher is one corpus pair watching a subpath or border-router
// series, and the index of the entry border the series spans.
type subpathWatcher struct {
	key    traceroute.Key
	border int32
}

type subObs struct {
	t     int64
	match bool
}

// The times a packed observation holds: the int64s whose shift left by one
// loses nothing.
const (
	minPackedTime = math.MinInt64 >> 1
	maxPackedTime = math.MaxInt64 >> 1
)

// packObs packs an observation into one word, the time shifted left by one
// and the match bit below it; ok is false when the time is out of range.
func packObs(t int64, match bool) (w int64, ok bool) {
	if t < minPackedTime || t > maxPackedTime {
		return 0, false
	}
	w = t << 1
	if match {
		w |= 1
	}
	return w, true
}

func unpackObs(w int64) subObs { return subObs{t: w >> 1, match: w&1 == 1} }

// buffered counts the buffered observations.
func (r *ratioSeries) buffered() int {
	if r.wide != nil {
		return len(r.wide)
	}
	return len(r.buf)
}

// bufferedAt returns the i'th buffered observation.
func (r *ratioSeries) bufferedAt(i int) subObs {
	if r.wide != nil {
		return r.wide[i]
	}
	return unpackObs(r.buf[i])
}

// push buffers one observation, switching the buffer to the wide form at
// the first time that does not pack.
func (r *ratioSeries) push(o subObs) {
	if r.wide == nil {
		if w, ok := packObs(o.t, o.match); ok {
			r.buf = append(r.buf, w)
			return
		}
		r.wide = make([]subObs, len(r.buf), len(r.buf)+1)
		for i, w := range r.buf {
			r.wide[i] = unpackObs(w)
		}
		r.buf = nil
	}
	r.wide = append(r.wide, o)
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
// ⟨AS, city⟩ points, with one ratio series per registered router: routers
// finds a router's series, series holds them in registration order for
// the per-trace loop.
type borderGroup struct {
	key     borderGroupKey
	routers map[int]*borderRouterSeries
	series  []*borderRouterSeries
	// detail is its routers' signal detail, formatted when one first
	// fires (see shiftDetail).
	detail string
}

// shiftDetail is the Detail of a router shift signal in the group.
func (g *borderGroup) shiftDetail() string {
	if g.detail == "" {
		g.detail = fmt.Sprintf("border %s->%s router shift", g.key.FromAS, g.key.ToAS)
	}
	return g.detail
}

type borderRouterSeries struct {
	id       int
	grp      *borderGroup
	router   int
	watchers []subpathWatcher

	ratioSeries
}

// registerSubpathMonitors creates (or joins) §4.2.1 monitors for each
// border-crossing subpath of the entry. Monitored subpaths are anchored at
// AS boundaries: interdomain segments give the reliable signals, while
// intradomain segments churn with traffic engineering (§4.2's first
// accuracy rule).
func (s *pairState) registerSubpathMonitors(en *corpus.Entry, pm *pairMonitors) {
	if s.eng.cfg.disabled(TechTraceSubpath) {
		return
	}
	path := en.Trace.IPPath()
	links := s.subLinkBuf[:0]
	register := func(raw []uint32, bi int) {
		// Dedupe consecutive identical anchors (the far hop of one
		// crossing is often the near hop of the next).
		var buf [maxSubpathAnchors]uint32
		ips := buf[:0]
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
			mon = s.eng.sh.addSubpath(key, slices.Clone(ips), s.eng.hops.intern(ips[0]))
		}
		border := borderOf(bi)
		mon.watchers = append(mon.watchers, subpathWatcher{key: en.Key, border: border})
		links = append(links, subpathLink{mon: mon, border: border})
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
	s.subLinkBuf = links
	if len(links) > 0 {
		pm.subs = slices.Clone(links)
	}
}

// borderOf narrows an entry's border index for a watcher. corpus.Process
// rejects an entry with more than corpus.MaxBorders crossings, so every
// index of a registered entry fits; one that does not is a caller's bug,
// and borderOf panics rather than wrap it.
func borderOf(bi int) int32 {
	if bi < 0 || bi >= corpus.MaxBorders {
		panic(fmt.Sprintf("core: border index %d of an entry corpus.Process did not bound", bi))
	}
	return int32(bi)
}

// oneBorder is a signal's or registration's Borders for one border index.
func oneBorder(b int32) []int { return borderRun(int(b), int(b)+1) }

func hasZero(xs []uint32) bool {
	for _, x := range xs {
		if x == 0 {
			return true
		}
	}
	return false
}

// subpathKeyOf names a subpath by its anchors as zero-padded lowercase
// hex joined by '-'. The key is part of the monitor's content name
// (hashID("sub:"+key)), so its bytes must never change.
func subpathKeyOf(ips []uint32) string {
	const digits = "0123456789abcdef"
	b := make([]byte, 0, 9*len(ips))
	for i, ip := range ips {
		if i > 0 {
			b = append(b, '-')
		}
		for shift := 28; shift >= 0; shift -= 4 {
			b = append(b, digits[ip>>shift&0xf])
		}
	}
	return string(b)
}

// registerBorderMonitors creates (or joins) §4.2.2 monitors: one ratio
// series per (inter-city AS adjacency, border router) the entry uses.
// Crossings whose endpoints cannot be geolocated are skipped (Appendix A).
func (s *pairState) registerBorderMonitors(en *corpus.Entry, pm *pairMonitors) {
	if s.eng.geo == nil || s.eng.cfg.disabled(TechTraceBorder) {
		return
	}
	links := s.brsLinkBuf[:0]
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
			rs = &borderRouterSeries{id: hashID(name), grp: grp, router: router}
			grp.routers[router] = rs
			grp.series = append(grp.series, rs)
			s.eng.sh.borderSorted = nil
		}
		border := borderOf(bi)
		rs.watchers = append(rs.watchers, subpathWatcher{key: en.Key, border: border})
		links = append(links, borderLink{rs: rs, border: border})
	}
	s.brsLinkBuf = links
	if len(links) > 0 {
		pm.brs = slices.Clone(links)
	}
}

// preparedTrace is a public traceroute after patching and border mapping:
// everything the shared-series observation step needs. Its slices are the
// engine's per-trace scratch, valid until the next prepareTrace; nothing
// downstream retains them.
type preparedTrace struct {
	time int64
	// path is the patched IP path and ids its hop IDs, hop for hop.
	path    []uint32
	ids     []uint32
	borders []bordermap.BorderHop
}

// traceScratch is the engine-owned working memory of one public
// traceroute, reused for the next: the hop IDs (patched in place; the
// traceroute itself is the feed's), the IP path, the mapped hops and the
// border path are appended into buffers that stop growing at the longest
// trace seen.
type traceScratch struct {
	ids     []uint32
	path    []uint32
	mapped  []bordermap.MappedHop
	borders []bordermap.BorderHop
}

// prepareTrace interns the hops, feeds and applies the unresponsive-hop
// patching evidence, and resolves the patched path's hops through the hop
// table into the IP path and the border path.
func (e *Engine) prepareTrace(t *traceroute.Traceroute) preparedTrace {
	ht, sc := e.hops, &e.scratch
	ht.sync()
	sc.ids = sc.ids[:0]
	for _, h := range t.Hops {
		sc.ids = append(sc.ids, ht.intern(h.IP))
	}
	ht.observeGaps(sc.ids)
	ht.patchGaps(sc.ids)
	sc.path, sc.mapped = sc.path[:0], sc.mapped[:0]
	for i, id := range sc.ids {
		h := ht.resolve(id)
		sc.path = append(sc.path, h.hop.IP)
		if h.mapped {
			mh := h.hop
			mh.Idx = i
			sc.mapped = append(sc.mapped, mh)
		}
	}
	sc.borders = bordermap.AppendBorders(sc.borders[:0], sc.mapped)
	return preparedTrace{time: t.Time, path: sc.path, ids: sc.ids, borders: sc.borders}
}

// inOrder reports whether the anchors appear in order within path, not
// necessarily adjacent.
func inOrder(path []uint32, anchors []uint32) bool {
	ai := 0
	for _, ip := range path {
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
	if n := r.buffered(); n > 0 && t < r.bufferedAt(n-1).t {
		r.unsorted = true
	}
	r.push(subObs{t: t, match: match})
	r.activate(sh, t)
}

// activate instantiates the windowed series once enough observations exist
// to choose a window size per §4.2.1's ladder rule, then replays the
// buffer. The buffered times reach ChooseWindowMin through the engine's
// scratch: a monitor can sit between 2*MinObservations and activation for
// thousands of observations. ChooseWindowMin wants them ascending, so the
// scratch copy is sorted when the feed delivered them out of order; the
// buffer, and its replay into the series, stay in arrival order.
//
// A "no" is decided once per ladder bucket. Every rung w is a multiple of
// ladderStep, so each rung's last window index, now/w, is a function of
// the bucket now/ladderStep; an observation appended in the same bucket
// falls in that last window, which is never counted, and trimming the
// buffer only removes times. So the answer stays "no" until the bucket
// moves.
func (r *ratioSeries) activate(sh *sharedState, now int64) {
	n := r.buffered()
	if n < 2*anomaly.MinObservations {
		return
	}
	bucket := now / sh.ladderStep
	if r.hasNo && bucket == r.noBucket {
		r.trimBuffer()
		return
	}
	times := sh.times[:0]
	for i := 0; i < n; i++ {
		times = append(times, r.bufferedAt(i).t)
	}
	if r.unsorted {
		slices.Sort(times)
	}
	sh.times = times
	w, ok := anomaly.ChooseWindowMin(times, now, sh.cfg.PublicLadder, 2)
	if !ok {
		r.noBucket, r.hasNo = bucket, true
		r.trimBuffer()
		return
	}
	r.series = &anomaly.WindowedSeries{WindowSec: w, Det: anomaly.NewZScore()}
	for i := 0; i < n; i++ {
		o := r.bufferedAt(i)
		r.series.Observe(o.t, boolVal(o.match))
	}
	r.buf, r.wide = nil, nil
}

// trimBuffer bounds the buffer of a series that could not activate.
func (r *ratioSeries) trimBuffer() {
	if len(r.buf) > 4096 {
		r.buf = r.buf[len(r.buf)-2048:]
	}
	if len(r.wide) > 4096 {
		r.wide = r.wide[len(r.wide)-2048:]
	}
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
func (s *pairState) ixpJoinSignals(ixp int, asI bgp.ASN, when int64) []Signal {
	if s.eng.rel == nil {
		return nil
	}
	members := s.eng.sh.ixpMembers[ixp]
	var sigs []Signal
	s.corp.Each(func(en *corpus.Entry) {
		idxI := en.ASPath.Index(asI)
		if idxI < 0 || idxI+1 >= len(en.ASPath) {
			return
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
			return
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
			return
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
			Key:         en.Key,
			MonitorID:   cm,
			WindowStart: (when / s.eng.cfg.WindowSec) * s.eng.cfg.WindowSec,
			Borders:     bs,
			Detail:      fmt.Sprintf("%s joined IXP %d", asI, ixp),
			VPCount:     1,
		})
	})
	return sigs
}

// ixpMonitorID derives a stable monitor identity per (IXP, member).
// Negative values keep the space disjoint from hashID's.
func ixpMonitorID(ixp int, as bgp.ASN) int {
	return -(ixp<<32 | int(uint32(as)))
}

// stats counts the engine's series and the pair monitors subscribed to
// them, for diagnostics and the rrr_series gauges.
type stats struct {
	// The §4.1 BGP series (community: overlap groups) and their
	// subscribers.
	BurstSeries, ASPathSeries, CommunityGroups      int
	BurstMonitors, ASPathMonitors, CommunityTargets int
	SubpathMonitors                                 int
}

// monitorStats reports the engine's series counts. Every count is
// kept as series come and go, so this is cheap enough to run on every
// registration.
func (e *Engine) monitorStats() stats {
	sh := e.sh
	return stats{
		BurstSeries:      len(sh.bursts) - sh.deadBursts,
		ASPathSeries:     len(sh.asps) - sh.deadASP,
		CommunityGroups:  sh.commGroups,
		BurstMonitors:    sh.subscribers[TechBGPBurst],
		ASPathMonitors:   sh.subscribers[TechBGPASPath],
		CommunityTargets: sh.subscribers[TechBGPCommunity],
		SubpathMonitors:  len(sh.subpaths),
	}
}

// setSeriesGauges publishes monitorStats' §4.1 counts.
func (e *Engine) setSeriesGauges() {
	st := e.monitorStats()
	m := &e.seriesMet
	m.series[TechBGPBurst].Set(int64(st.BurstSeries))
	m.series[TechBGPASPath].Set(int64(st.ASPathSeries))
	m.series[TechBGPCommunity].Set(int64(st.CommunityGroups))
	m.subscribers[TechBGPBurst].Set(int64(st.BurstMonitors))
	m.subscribers[TechBGPASPath].Set(int64(st.ASPathMonitors))
	m.subscribers[TechBGPCommunity].Set(int64(st.CommunityTargets))
}

// closeOwned finishes the window for the corpus pairs: the window's series
// signals (sigs, in the shared phase's emission order) and pending IXP
// signals are tracked as active, reverted pairs are revoked (§4.3.2), and
// the signals are sorted into signalLess order. It only reads shared state;
// all shared mutation happened in closeShared.
func (s *pairState) closeOwned(sigs []Signal) []Signal {
	s.changed = s.changed[:0]

	// Drain pending IXP signals produced during the window.
	sigs = append(sigs, s.pendingIXP...)
	s.pendingIXP = nil

	// Track active signals and revoke reverted ones (§4.3.2).
	for i := range sigs {
		s.signalCount[sigs[i].Technique]++
		s.changed = append(s.changed, sigs[i].Key)
		delete(s.restored, sigs[i].Key)
	}
	s.track(sigs)
	s.revokeReverted()

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
func (s *pairState) revokeReverted() {
	for k, recs := range s.active {
		if len(recs) == 0 || s.restored[k] {
			continue
		}
		if s.pairReverted(k) {
			s.revokedSignals += len(recs)
			s.revokedPairs++
			delete(s.active, k)
			s.changed = append(s.changed, k)
		}
	}
}

// pairReverted reports whether every monitored quantity of the pair is
// back at the value it had when the corpus traceroute was issued: AS-path
// ratios, community sets, and subpath/border-router ratios (§4.3.2).
func (s *pairState) pairReverted(k traceroute.Key) bool {
	pm := s.mons[k]
	if pm == nil {
		return false
	}
	any := false
	for i := range pm.asp {
		any = true
		if as := pm.asp[i].series; !as.hasBase || !as.hasLast || as.lastRatio != as.baseline {
			return false
		}
	}
	if g := pm.comm.group; g != nil {
		any = true
		if g.offBase > 0 {
			return false
		}
	}
	for _, l := range pm.subs {
		if l.mon.series == nil {
			continue
		}
		any = true
		if !l.mon.atBaseline() {
			return false
		}
	}
	for _, l := range pm.brs {
		if l.rs.series == nil {
			continue
		}
		any = true
		if !l.rs.atBaseline() {
			return false
		}
	}
	return any
}

// atBaseline reports whether an active series' last window value equals
// its first (§4.3.2), or it has no such pair of values yet.
func (r *ratioSeries) atBaseline() bool {
	first, ok1 := r.series.First()
	last, ok2 := r.series.Last()
	return !ok1 || !ok2 || first == last
}
