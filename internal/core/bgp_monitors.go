package core

import (
	"fmt"
	"sort"

	"rrr/internal/anomaly"
	"rrr/internal/bgp"
	"rrr/internal/corpus"
	"rrr/internal/traceroute"
)

// vpSlot is one vantage point inside a monitor's fixed VP set: the fold
// cell of its (VP, prefix), and the cached (intersect, match) contribution
// of its current table route so quiet windows need no RIB walk.
type vpSlot struct {
	cell   *vpCell
	ci, cm int
}

// dupCount counts the slots whose VP emitted a duplicate update in the open
// window (§4.1.4's U_i).
func dupCount(slots []vpSlot) int {
	n := 0
	for i := range slots {
		if slots[i].cell.dup() {
			n++
		}
	}
	return n
}

// aspMonitor implements §4.1.2 for one corpus traceroute and one AS hop
// a_j: the ratio of overlapping BGP path updates whose suffix from a_j
// matches the traceroute's AS suffix.
type aspMonitor struct {
	id      int
	key     traceroute.Key
	aj      bgp.ASN
	suffix  bgp.Path
	before  map[bgp.ASN]bool
	slots   []vpSlot
	det     *anomaly.BitmapDetector
	borders []int
	// sameAS / sameCity record whether any monitored VP is co-located
	// with the traceroute's source (Table 1 attributes 3-5).
	sameAS, sameCity bool

	// baseline/last ratios for revocation (§4.3.2).
	baseline  float64
	hasBase   bool
	lastRatio float64
	hasLast   bool

	// quietI/quietM aggregate the cached slot contributions (the window
	// value when no monitored VP saw updates).
	quietI, quietM int

	dead bool
}

// burstMonitor implements §4.1.4 for one corpus traceroute and one
// AS-suffix: the number of VPs sharing the suffix that emit duplicate
// updates per window, cross-checked against "extra AS" series.
type burstMonitor struct {
	id      int
	key     traceroute.Key
	suffix  bgp.Path
	slots   []vpSlot
	det     *anomaly.BitmapDetector
	extras  []*extraSeries
	borders []int

	sameAS, sameCity bool
}

type extraKey struct {
	ak    bgp.ASN
	dstIP uint32
	j     int
}

// extraSeries counts duplicate updates among VPs that traverse a_k toward
// the destination but do not share the monitored subpath; contemporaneous
// outliers exculpate the monitored border (§4.1.4, Fig 4).
type extraSeries struct {
	ak         bgp.ASN
	slots      []vpSlot
	det        *anomaly.BitmapDetector
	outlierWin int64
}

// commMonitor implements §4.1.3 for one corpus traceroute: tracks relevant
// communities on overlapping VP routes.
type commMonitor struct {
	id  int
	key traceroute.Key
	// relevant maps τ ASes to the border indices adjacent to them.
	relevant map[bgp.ASN][]int
	// overlap[vp] is the VP's overlap state, fixed at registration.
	overlap map[bgp.VPKey]*vpCommState
}

type vpCommState struct {
	cell     *vpCell
	baseline bgp.Communities // relevant-AS communities at t0
	current  bgp.Communities
}

// vpColocation reports whether a VP shares the traceroute source's AS or
// city (Table 1 attributes 3-5).
func (s *shard) vpColocation(vp bgp.VPKey, en *corpus.Entry) (sameAS, sameCity bool) {
	if srcAS, ok := s.eng.mapper.ASOf(en.Key.Src); ok && srcAS == vp.PeerAS {
		sameAS = true
	}
	if s.eng.geo != nil {
		srcCity, ok1 := s.eng.geo.LocateCity(en.Key.Src, en.MeasuredAt)
		vpCity, ok2 := s.eng.geo.LocateCity(vp.PeerIP, en.MeasuredAt)
		if ok1 && ok2 && srcCity == vpCity {
			sameCity = true
		}
	}
	return sameAS, sameCity
}

// registerBGPMonitors wires a corpus entry into the three BGP techniques.
// Per-pair monitors are indexed on the owning shard; the extra-AS series
// (§4.1.4's exculpation set) are created in (or joined from) the engine's
// shared state.
func (s *shard) registerBGPMonitors(en *corpus.Entry) {
	vps := s.eng.rib.VPs()
	tauASes := make(map[bgp.ASN]int, len(en.ASPath)) // AS → hop index
	for i, as := range en.ASPath {
		tauASes[as] = i
	}

	// Resolve each VP's route, prefix, and first intersection with τ.
	type vpInfo struct {
		vp    bgp.VPKey
		pf    vpPrefix
		path  bgp.Path
		first int // τ hop index of first intersection, -1 if none
	}
	var infos []vpInfo
	for _, vp := range vps {
		rt, ok := s.eng.rib.Lookup(vp, en.Key.Dst)
		if !ok {
			continue
		}
		path := rt.ASPath
		first := -1
		for idx, as := range en.ASPath {
			if path.Contains(as) {
				first = idx
				break
			}
		}
		infos = append(infos, vpInfo{
			vp: vp, pf: vpPrefix{vp: vp, pf: rt.Prefix}, path: path, first: first,
		})
	}

	// §4.1.2: one monitor per (τ, a_j) with a non-empty fixed VP set of
	// VPs that first intersect τ at a_j.
	byFirst := make(map[int][]vpInfo)
	for _, in := range infos {
		if in.first >= 0 {
			byFirst[in.first] = append(byFirst[in.first], in)
		}
	}
	var firstIdxs []int
	for j := range byFirst {
		firstIdxs = append(firstIdxs, j)
	}
	sort.Ints(firstIdxs)
	if s.eng.cfg.disabled(TechBGPASPath) {
		firstIdxs = nil
	}
	for _, j := range firstIdxs {
		group := byFirst[j]
		m := &aspMonitor{
			id:     monitorID("asp", en.Key, en.ASPath[j:].String()),
			key:    en.Key,
			aj:     en.ASPath[j],
			suffix: en.ASPath[j:].Clone(),
			before: make(map[bgp.ASN]bool, j),
			det:    anomaly.NewBitmap(),
		}
		// A refresh that kept this portion of the path re-registers an
		// identical monitor: keep the warmed-up detector instead of
		// cold-starting (a cold detector is blind for ~MinObservations
		// windows after every refresh).
		if st := s.retired[en.Key]["asp:"+m.suffix.String()]; st != nil {
			if det, ok := st.det.(*anomaly.BitmapDetector); ok {
				m.det = det
				m.baseline, m.hasBase = st.baseline, st.hasBase
			}
		}
		for _, as := range en.ASPath[:j] {
			m.before[as] = true
		}
		for _, in := range group {
			slot := vpSlot{cell: s.eng.sh.cellFor(in.pf, s)}
			slot.ci, slot.cm = m.contribution(in.path)
			m.quietI += slot.ci
			m.quietM += slot.cm
			m.slots = append(m.slots, slot)
			sa, sc := s.vpColocation(in.vp, en)
			m.sameAS = m.sameAS || sa
			m.sameCity = m.sameCity || sc
		}
		m.borders = bordersForSuffix(en, m.suffix)
		s.asp = append(s.asp, m)
		s.aspByKey[en.Key] = append(s.aspByKey[en.Key], m)
		s.addReg(en.Key, Registration{MonitorID: m.id, Technique: TechBGPASPath, Borders: m.borders})
	}

	// §4.1.4: one monitor per AS-suffix with enough VPs sharing it.
	for j := 0; !s.eng.cfg.disabled(TechBGPBurst) && j+2 <= len(en.ASPath); j++ {
		suffix := en.ASPath[j:]
		var shared []vpInfo
		for _, in := range infos {
			if pathEndsWith(in.path, suffix) {
				shared = append(shared, in)
			}
		}
		if len(shared) < s.eng.cfg.MinSuffixVPs {
			continue
		}
		bm := &burstMonitor{
			id:     monitorID("burst", en.Key, suffix.String()),
			key:    en.Key,
			suffix: suffix.Clone(),
			det:    anomaly.NewBitmap(),
		}
		if st := s.retired[en.Key]["burst:"+bm.suffix.String()]; st != nil {
			if det, ok := st.det.(*anomaly.BitmapDetector); ok {
				bm.det = det
			}
		}
		for _, in := range shared {
			bm.slots = append(bm.slots, vpSlot{cell: s.eng.sh.cellFor(in.pf, s)})
			sa, sc := s.vpColocation(in.vp, en)
			bm.sameAS = bm.sameAS || sa
			bm.sameCity = bm.sameCity || sc
		}
		bm.borders = bordersForSuffix(en, suffix)
		// Extra ASes: on ≥2 shared VPs' paths but not on τ.
		counts := make(map[bgp.ASN]int)
		for _, in := range shared {
			for _, as := range in.path {
				if _, onTau := tauASes[as]; !onTau {
					counts[as]++
				}
			}
		}
		var aks []bgp.ASN
		for ak, n := range counts {
			if n >= 2 {
				aks = append(aks, ak)
			}
		}
		sort.Slice(aks, func(x, y int) bool { return aks[x] < aks[y] })
		for _, ak := range aks {
			ek := extraKey{ak: ak, dstIP: en.Key.Dst, j: j}
			es, ok := s.eng.sh.extras[ek]
			if !ok {
				es = &extraSeries{ak: ak, det: anomaly.NewBitmap()}
				// W set: VPs traversing a_k toward d but not sharing the
				// whole suffix.
				for _, in := range infos {
					if in.path.Contains(ak) && !pathEndsWith(in.path, suffix) {
						// Shared series: closeShared reads these slots, no shard does.
						es.slots = append(es.slots, vpSlot{cell: s.eng.sh.cellFor(in.pf, nil)})
					}
				}
				s.eng.sh.extras[ek] = es
				s.eng.sh.extrasSorted = nil
			}
			bm.extras = append(bm.extras, es)
		}
		s.bursts = append(s.bursts, bm)
		s.addReg(en.Key, Registration{MonitorID: bm.id, Technique: TechBGPBurst, Borders: bm.borders})
	}

	// §4.1.3: one community monitor per τ over VPs overlapping an
	// AS-suffix of τ.
	cm := &commMonitor{
		id:       monitorID("comm", en.Key, ""),
		key:      en.Key,
		relevant: make(map[bgp.ASN][]int),
		overlap:  make(map[bgp.VPKey]*vpCommState),
	}
	anyOverlap := false
	var allBorders []int
	if s.eng.cfg.disabled(TechBGPCommunity) {
		infos = nil // do not register or index community monitors
	}
	for _, in := range infos {
		// Longest AS-suffix of τ shared with the VP path's tail.
		j := longestSharedSuffix(in.path, en.ASPath)
		if j < 0 {
			continue
		}
		anyOverlap = true
		rt, _ := s.eng.rib.Lookup(in.vp, en.Key.Dst)
		st := &vpCommState{cell: s.eng.sh.cellFor(in.pf, s)}
		if rt != nil {
			st.current = rt.Communities.Clone()
			st.baseline = st.current
		}
		cm.overlap[in.vp] = st
		for _, as := range en.ASPath[j:] {
			if _, ok := cm.relevant[as]; !ok {
				cm.relevant[as] = bordersForAS(en, as)
			}
		}
		s.commByVP[in.pf] = append(s.commByVP[in.pf], cm)
	}
	if anyOverlap {
		seen := make(map[int]bool)
		for _, bs := range cm.relevant {
			for _, b := range bs {
				if !seen[b] {
					seen[b] = true
					allBorders = append(allBorders, b)
				}
			}
		}
		sort.Ints(allBorders)
		s.comms[en.Key] = cm
		s.addReg(en.Key, Registration{MonitorID: cm.id, Technique: TechBGPCommunity, Borders: allBorders})
	}
	delete(s.retired, en.Key)
}

// pathEndsWith reports whether path's tail equals suffix.
func pathEndsWith(path, suffix bgp.Path) bool {
	if len(suffix) > len(path) {
		return false
	}
	return path[len(path)-len(suffix):].Equal(suffix)
}

// longestSharedSuffix returns the smallest j such that path ends with
// tau[j:], or -1 when not even the origin is shared.
func longestSharedSuffix(path, tau bgp.Path) int {
	for j := 0; j < len(tau); j++ {
		if pathEndsWith(path, tau[j:]) {
			return j
		}
	}
	return -1
}

// bordersForSuffix returns the border indices of an entry that fall within
// the AS suffix: crossings out of suffix ASes plus the crossing entering
// the suffix head.
func bordersForSuffix(en *corpus.Entry, suffix bgp.Path) []int {
	in := make(map[bgp.ASN]bool, len(suffix))
	for _, as := range suffix {
		in[as] = true
	}
	var out []int
	head := suffix[0]
	for k, b := range en.Borders {
		if in[b.FromAS] || b.ToAS == head {
			out = append(out, k)
		}
	}
	return out
}

// bordersForAS returns the border indices adjacent to an AS.
func bordersForAS(en *corpus.Entry, as bgp.ASN) []int {
	var out []int
	for k, b := range en.Borders {
		if b.FromAS == as || b.ToAS == as {
			out = append(out, k)
		}
	}
	return out
}

// closeBGPWindow evaluates the shard's per-pair BGP series for the window
// starting at ws and returns signals. The shared extra-AS series (burst
// exculpation) and the commChanged set were already evaluated once for the
// window by sharedState.closeShared; this function only reads them.
func (s *shard) closeBGPWindow(ws int64, sc *sharedClose) []Signal {
	var sigs []Signal
	commChanged := sc.commChanged
	// A window that touched none of this shard's cells leaves every slot
	// loop below with nothing to find: each series takes its cached quiet
	// value straight to the detector.
	dirty := s.winDirty
	s.winDirty = false

	// §4.1.4 burst monitors.
	for _, bm := range s.bursts {
		dups := 0
		if dirty {
			dups = dupCount(bm.slots)
		}
		outlier := bm.det.Add(float64(dups))
		// The technique's premise is *contemporaneous* duplicates from
		// multiple peers sharing the subpath (§4.1.4): a genuine border
		// change re-announces from every peer routing across it, so a
		// burst must involve a meaningful share of the suffix's VPs, not
		// a coincidence of unrelated IGP noise.
		quorum := 2
		if q := (len(bm.slots) + 2) / 3; q > quorum {
			quorum = q
		}
		if !outlier || dups < quorum {
			continue
		}
		dupSlots := dupSlots(bm.slots)
		allEchoes := true
		for _, slot := range dupSlots {
			if !commChanged[slot.cell.pf.pf] {
				allEchoes = false
				break
			}
		}
		if allEchoes {
			continue
		}
		// Outlier: is there a VP whose duplicate cannot be explained by a
		// contemporaneous burst on an extra AS it traverses?
		unexplained := len(bm.extras) == 0
		for _, slot := range dupSlots {
			explained := false
			for _, es := range bm.extras {
				if es.outlierWin != ws {
					continue
				}
				if vpTraverses(s.eng.rib, slot, es.ak) {
					explained = true
					break
				}
			}
			if !explained {
				unexplained = true
				break
			}
		}
		if !unexplained {
			continue
		}
		sigs = append(sigs, Signal{
			Technique:   TechBGPBurst,
			Key:         bm.key,
			MonitorID:   bm.id,
			WindowStart: ws,
			Borders:     bm.borders,
			Detail:      fmt.Sprintf("dup burst on suffix %v", bm.suffix),
			Score:       bm.det.Score(),
			VPCount:     dups,
			ASOverlap:   len(bm.suffix),
			SameASVP:    bm.sameAS,
			SameCityVP:  bm.sameCity,
		})
	}

	// §4.1.2 AS-path monitors. The window value combines the cached
	// contributions of quiet VPs with the update paths of VPs that saw
	// changes this window; caches refresh to the post-window table route.
	for _, m := range s.asp {
		if m.dead {
			continue
		}
		intersect, match := m.quietI, m.quietM
		for i := 0; dirty && i < len(m.slots); i++ {
			slot := &m.slots[i]
			st := slot.cell.win
			if st == nil {
				continue
			}
			// The cached value covers the window-start route; add the
			// update paths on top (each counts as one observed path,
			// §4.1.2 counts path updates).
			for _, p := range st.paths {
				ci, cm := m.contribution(p)
				intersect += ci
				match += cm
			}
			// Refresh the cache to the current table route for the
			// following windows.
			var ni, nm int
			if rt, ok := slot.cell.route(s.eng.rib); ok {
				ni, nm = m.contribution(rt.ASPath)
			}
			m.quietI += ni - slot.ci
			m.quietM += nm - slot.cm
			slot.ci, slot.cm = ni, nm
		}
		if intersect == 0 {
			m.hasLast = false
			continue // missing value, not an outlier (§4.1.2)
		}
		ratio := float64(match) / float64(intersect)
		if !m.hasBase {
			m.baseline, m.hasBase = ratio, true
		}
		m.lastRatio, m.hasLast = ratio, true
		if m.det.Add(ratio) {
			sigs = append(sigs, Signal{
				Technique:   TechBGPASPath,
				Key:         m.key,
				MonitorID:   m.id,
				WindowStart: ws,
				Borders:     m.borders,
				Detail:      fmt.Sprintf("P_ratio outlier at %s", m.aj),
				Score:       m.det.Score(),
				VPCount:     len(m.slots),
				ASOverlap:   len(m.suffix),
				SameASVP:    m.sameAS,
				SameCityVP:  m.sameCity,
			})
		}
	}

	// §4.1.3 community events.
	sigs = append(sigs, s.processCommEvents(ws)...)
	return sigs
}

func dupSlots(slots []vpSlot) []*vpSlot {
	var out []*vpSlot
	for i := range slots {
		if slots[i].cell.dup() {
			out = append(out, &slots[i])
		}
	}
	return out
}

// vpTraverses reports whether the VP's current route crosses as.
func vpTraverses(rib *bgp.RIB, slot *vpSlot, as bgp.ASN) bool {
	rt, ok := slot.cell.route(rib)
	if !ok {
		return false
	}
	return rt.ASPath.Contains(as)
}

// contribution scores one AS path against the monitor: (1,1) when it first
// intersects τ at a_j and matches the suffix, (1,0) intersect-only, (0,0)
// otherwise.
func (m *aspMonitor) contribution(p bgp.Path) (int, int) {
	if p == nil || !m.firstIntersects(p) {
		return 0, 0
	}
	if p.Suffix(m.aj).Equal(m.suffix) {
		return 1, 1
	}
	return 1, 0
}

func (m *aspMonitor) firstIntersects(p bgp.Path) bool {
	if !p.Contains(m.aj) {
		return false
	}
	for _, as := range p {
		if m.before[as] {
			return false
		}
	}
	return true
}

// processCommEvents turns the window's community change records into
// §4.1.3 signals, applying the paper's two caveats and the calibration
// filter.
func (s *shard) processCommEvents(ws int64) []Signal {
	var sigs []Signal
	// One signal per (monitor, community) per window: several VPs
	// reporting the same community change describe one network event.
	emitted := make(map[[2]uint64]bool)
	for _, ev := range s.eng.sh.winComms {
		pf := vpPrefix{vp: ev.vp, pf: ev.prefix}
		monitors := s.commByVP[pf]
		if len(monitors) == 0 {
			continue
		}
		added := ev.cur.Diff(ev.prev)
		removed := ev.prev.Diff(ev.cur)
		for _, cm := range monitors {
			st := cm.overlap[ev.vp]
			if st == nil {
				continue
			}
			var borders []int
			var detail bgp.Community
			consider := func(c bgp.Community, isAdd bool) {
				bs, relevant := cm.relevant[c.AS()]
				if !relevant {
					return
				}
				// Calibration filter (Appendix B): skip pruned communities.
				if s.eng.Calib.communityPruned(c) {
					return
				}
				// Caveat 2: an added community already on an overlapping
				// path from another VP is not a new change signal.
				if isAdd && s.communityOnOtherVP(cm, ev.vp, c) {
					return
				}
				borders = append(borders, bs...)
				if detail == 0 {
					detail = c
				}
			}
			for _, c := range added {
				consider(c, true)
			}
			for _, c := range removed {
				consider(c, false)
			}
			st.current = ev.cur.Clone()
			if len(borders) == 0 {
				continue
			}
			dk := [2]uint64{uint64(cm.id), uint64(detail)}
			if emitted[dk] {
				continue
			}
			emitted[dk] = true
			borders = dedupInts(borders)
			sigs = append(sigs, Signal{
				Technique:   TechBGPCommunity,
				Key:         cm.key,
				MonitorID:   cm.id,
				WindowStart: ws,
				Borders:     borders,
				Detail:      detail.String(),
				Comm:        detail,
				VPCount:     1,
			})
		}
	}
	return sigs
}

// communityOnOtherVP checks whether the community was already present on
// another overlapping VP's route *before* this window's changes; VPs whose
// routes changed in the same window are compared at their window-start
// state, so a simultaneous multi-VP community change is not self-masking.
func (s *shard) communityOnOtherVP(cm *commMonitor, except bgp.VPKey, c bgp.Community) bool {
	for vp, st := range cm.overlap {
		if vp == except {
			continue
		}
		var comms bgp.Communities
		if ws := st.cell.win; ws != nil && ws.startOK {
			comms = ws.startComms
		} else if rt, ok := st.cell.route(s.eng.rib); ok {
			comms = rt.Communities
		}
		for _, have := range comms {
			if have == c {
				return true
			}
		}
	}
	return false
}

func dedupInts(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
