package core

import (
	"slices"
	"sort"

	"rrr/internal/anomaly"
	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/corpus"
	"rrr/internal/traceroute"
)

// dupCount counts the cells whose VP emitted a duplicate update in the
// open window (§4.1.4's U_i).
func dupCount(cells []*vpCell) int {
	n := 0
	for _, c := range cells {
		if c.dup() {
			n++
		}
	}
	return n
}

// replay steps a sleeping detector through the windows after close
// *asleep up to and including close through, each at its quiet value v,
// and marks it awake. A series sleeps only while det.Settled(v) holds, and
// each of these steps leaves it holding, so the replay flags nothing and
// ends in the state the skipped steps would have left.
func replay(det *anomaly.BitmapDetector, asleep *int32, through int32, v float64) {
	if *asleep == 0 {
		return
	}
	for i := *asleep; i < through; i++ {
		det.Add(v)
	}
	*asleep = 0
}

// aspMonitor is one corpus traceroute's §4.1.2 monitor for one AS hop a_j:
// a subscription to the AS-path series over the VPs that first intersect τ
// at a_j (see series.go).
type aspMonitor struct {
	id      int
	key     traceroute.Key
	series  *aspSeries
	borders []int
	// sameAS / sameCity record whether any monitored VP is co-located
	// with the traceroute's source (Table 1 attributes 3-5).
	sameAS, sameCity bool
	seq              int
}

// burstMonitor is one corpus traceroute's §4.1.4 monitor for one
// AS-suffix: a subscription to the duplicate-count series over the VPs
// sharing the suffix, cross-checked against the pair's "extra AS" series.
type burstMonitor struct {
	id      int
	key     traceroute.Key
	suffix  bgp.Path
	series  *burstSeries
	extras  []*extraSeries
	borders []int

	sameAS, sameCity bool
	seq              int
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
	cells      []*vpCell
	det        anomaly.BitmapDetector
	outlierWin int64
	ak         bgp.ASN
	// asleep is the shared close that last stepped the series while it
	// sleeps, 0 while it is awake (see closeShared).
	asleep int32
}

// commMonitor is one corpus traceroute's §4.1.3 monitor: the τ ASes whose
// communities matter to it, over the community group of its overlapping
// VPs. A pair without one holds a zero commMonitor (nil group).
type commMonitor struct {
	id int
	en *corpus.Entry
	// from starts the relevant τ ASes: en.ASPath[from:], the longest
	// suffix of τ an overlapping VP's path shares.
	from  int
	group *commGroup
}

// relevant reports whether as is one of the τ ASes whose communities
// matter to the monitor.
func (cm *commMonitor) relevant(as bgp.ASN) bool {
	return cm.en.ASPath[cm.from:].Contains(as)
}

// borders returns the entry's border indices adjacent to any relevant AS,
// ascending: the monitor's registration.
func (cm *commMonitor) borders() []int {
	var out []int
	for k, b := range cm.en.Borders {
		if cm.relevant(b.FromAS) || cm.relevant(b.ToAS) {
			out = append(out, k)
		}
	}
	return out
}

// vpCommState is one overlapping VP of a community group. baseline is its
// route's community set at registration (aliased: routes are immutable);
// atBase is whether its current route carries exactly that set, kept by
// the shared close for the cells a window touched.
type vpCommState struct {
	cell     *vpCell
	baseline bgp.Communities
	atBase   bool
}

// vpLess orders VPs the way RIB.VPs sorts them.
func vpLess(a, b bgp.VPKey) bool {
	if a.PeerIP != b.PeerIP {
		return a.PeerIP < b.PeerIP
	}
	return a.PeerAS < b.PeerAS
}

// vpColocation reports whether a VP shares the traceroute source's AS or
// city (Table 1 attributes 3-5).
func (s *pairState) vpColocation(vp bgp.VPKey, en *corpus.Entry) (sameAS, sameCity bool) {
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

// registerBGPMonitors wires a corpus entry into the three BGP techniques:
// each of the pair's monitors is stored in pm and subscribes to its series
// in the engine's shared state (see series.go), as the extra-AS series
// (§4.1.4's exculpation set) are created in or joined from it. The series
// point at the monitors, so each technique's monitors are allocated once,
// at their final count.
func (s *pairState) registerBGPMonitors(en *corpus.Entry, pm *pairMonitors) {
	sh := s.eng.sh
	vps := s.eng.rib.VPs()
	tauASes := make(map[bgp.ASN]int, len(en.ASPath)) // AS → hop index
	for i, as := range en.ASPath {
		tauASes[as] = i
	}
	retired := s.retired[en.Key]

	// Resolve each VP's route, prefix, and first intersection with τ.
	type vpInfo struct {
		vp    bgp.VPKey
		pf    vpPrefix
		path  bgp.Path
		comms bgp.Communities
		first int // τ hop index of first intersection, -1 if none
	}
	var infos []vpInfo
	for _, vp := range vps {
		pf, rt, ok := s.eng.rib.Lookup(vp, en.Key.Dst)
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
			vp: vp, pf: vpPrefix{vp: vp, pf: pf}, path: path, comms: rt.Communities, first: first,
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
	pm.asp = make([]aspMonitor, len(firstIdxs))
	for i, j := range firstIdxs {
		suffix := en.ASPath[j:]
		m := &pm.asp[i]
		m.id = monitorID("asp", en.Key, suffix.String())
		m.key = en.Key
		m.borders = bordersForSuffix(en, suffix)
		// The series scores paths against τ's ASes before a_j as a set.
		before := append(sh.pathBuf[:0], en.ASPath[:j]...)
		slices.Sort(before)
		sh.pathBuf = before
		scope := aspScope{aj: en.ASPath[j], before: before, suffix: suffix}
		cells, contrib := sh.cellBuf[:0], sh.contribBuf[:0]
		for _, in := range byFirst[j] {
			cells = append(cells, sh.cellFor(in.pf))
			contrib = append(contrib, packContrib(scope.contribution(in.path)))
			sa, sc := s.vpColocation(in.vp, en)
			m.sameAS = m.sameAS || sa
			m.sameCity = m.sameCity || sc
		}
		sh.cellBuf, sh.contribBuf = cells, contrib
		// A refresh that kept this portion of the path re-registers an
		// identical monitor: keep the warmed-up detector instead of
		// cold-starting (a cold detector is blind for ~MinObservations
		// windows after every refresh).
		sh.joinASP(m, scope, cells, contrib, retired["asp:"+suffix.String()])
	}

	// §4.1.4: one monitor per AS-suffix with enough VPs sharing it.
	var suffixes []int // the j of each monitored suffix
	for j := 0; !s.eng.cfg.disabled(TechBGPBurst) && j+2 <= len(en.ASPath); j++ {
		n := 0
		for _, in := range infos {
			if pathEndsWith(in.path, en.ASPath[j:]) {
				n++
			}
		}
		if n >= minSuffixVPs {
			suffixes = append(suffixes, j)
		}
	}
	pm.burst = make([]burstMonitor, len(suffixes))
	for i, j := range suffixes {
		suffix := en.ASPath[j:]
		var shared []vpInfo
		for _, in := range infos {
			if pathEndsWith(in.path, suffix) {
				shared = append(shared, in)
			}
		}
		bm := &pm.burst[i]
		bm.id = monitorID("burst", en.Key, suffix.String())
		bm.key = en.Key
		bm.suffix = suffix
		bm.borders = bordersForSuffix(en, suffix)
		cells := sh.cellBuf[:0]
		for _, in := range shared {
			cells = append(cells, sh.cellFor(in.pf))
			sa, sc := s.vpColocation(in.vp, en)
			bm.sameAS = bm.sameAS || sa
			bm.sameCity = bm.sameCity || sc
		}
		sh.cellBuf = cells
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
		if len(aks) > 0 {
			bm.extras = make([]*extraSeries, 0, len(aks))
		}
		for _, ak := range aks {
			ek := extraKey{ak: ak, dstIP: en.Key.Dst, j: j}
			es, ok := sh.extras[ek]
			if !ok {
				es = &extraSeries{ak: ak}
				// W set: VPs traversing a_k toward d but not sharing the
				// whole suffix.
				inW := func(in vpInfo) bool { return in.path.Contains(ak) && !pathEndsWith(in.path, suffix) }
				n := 0
				for _, in := range infos {
					if inW(in) {
						n++
					}
				}
				es.cells = make([]*vpCell, 0, n)
				for _, in := range infos {
					if inW(in) {
						es.cells = append(es.cells, sh.cellFor(in.pf))
					}
				}
				sh.extras[ek] = es
				sh.extrasSorted = nil
				sh.awakeExtras = append(sh.awakeExtras, es)
			}
			bm.extras = append(bm.extras, es)
		}
		sh.joinBurst(bm, cells, retired["burst:"+suffix.String()])
	}

	// §4.1.3: one community monitor per τ over VPs overlapping an
	// AS-suffix of τ. infos are in RIB.VPs order, so the states come out
	// sorted.
	if s.eng.cfg.disabled(TechBGPCommunity) {
		infos = nil // do not register or index community monitors
	}
	from := len(en.ASPath)
	states := sh.commBuf[:0]
	for _, in := range infos {
		// Longest AS-suffix of τ shared with the VP path's tail.
		j := longestSharedSuffix(in.path, en.ASPath)
		if j < 0 {
			continue
		}
		states = append(states, vpCommState{
			cell: sh.cellFor(in.pf), baseline: in.comms, atBase: true,
		})
		from = min(from, j)
	}
	sh.commBuf = states
	if len(states) > 0 {
		pm.comm = commMonitor{id: monitorID("comm", en.Key, ""), en: en, from: from}
		sh.joinComm(&pm.comm, states)
		clear(states) // the scratch must not keep old routes' community sets alive
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
// the suffix head. They are usually a run of consecutive indices, which
// borderRun shares instead of allocating.
func bordersForSuffix(en *corpus.Entry, suffix bgp.Path) []int {
	head := suffix[0]
	within := func(b bordermap.BorderHop) bool { return suffix.Contains(b.FromAS) || b.ToAS == head }
	first, n, run := 0, 0, true
	for k, b := range en.Borders {
		if within(b) {
			if n == 0 {
				first = k
			}
			run = run && k == first+n
			n++
		}
	}
	if run {
		return borderRun(first, first+n)
	}
	out := make([]int, 0, n)
	for k, b := range en.Borders {
		if within(b) {
			out = append(out, k)
		}
	}
	return out
}

// appendBordersForAS appends the entry's border indices adjacent to an AS.
func appendBordersForAS(dst []int, en *corpus.Entry, as bgp.ASN) []int {
	for k, b := range en.Borders {
		if b.FromAS == as || b.ToAS == as {
			dst = append(dst, k)
		}
	}
	return dst
}

// borderIndex holds 0, 1, 2, …: a run of consecutive border indices below
// its length is a cap-limited subslice of it rather than a slice of its
// own. Signal and Registration border slices are read-only everywhere, so
// they may share it.
var borderIndex = func() (t [256]int) {
	for i := range t {
		t[i] = i
	}
	return t
}()

// borderRun returns the border indices from..to-1, nil when the run is
// empty.
func borderRun(from, to int) []int {
	switch {
	case from >= to:
		return nil
	case to <= len(borderIndex):
		return borderIndex[from:to:to]
	}
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
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
