package core

import (
	"fmt"
	"slices"
	"sort"

	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/traceroute"
	"rrr/internal/trie"
)

// sharedState is the engine state that is logically global to one feed:
// the per-window BGP observation fold and every monitor series shared
// across corpus pairs (extra-AS series, subpath monitors, border-router
// series, IXP membership). The Engine owns one instance, and its pair state
// reaches it through the engine, so each update and traceroute is folded in
// exactly once.
//
// The engine's caller serializes all access (see Engine). CloseWindow's
// per-pair phase only reads this state (the §4.1 series' revocation inputs,
// the trace series' First/Last), after the shared close phase has finished
// mutating it.
type sharedState struct {
	cfg Config
	geo Geolocator
	// rib is the engine's RIB; the shared state only reads it, to point
	// fold cells at their routes.
	rib *bgp.RIB

	// Per-window BGP state, folded once per classified RIB change. A
	// change to a watched (VP, prefix) folds into its cell's
	// vpWindowState; a change to any other pair is one winLog record, which
	// cellFor replays if a monitor starts watching the pair mid-window.
	// winComms holds every VP's community changes (fanBurst reads any VP's
	// on a burst cell's prefix).
	winComms []commEvent
	winLog   []foldRecord
	// logHead indexes winLog[:logIndexed] by pair: the pair's newest
	// record, whose prev chains back. cellFor builds it on first need;
	// resetWindow drops it.
	logHead    map[vpPrefix]int32
	logIndexed int
	// freeStates recycles vpWindowState objects across windows so the
	// steady-state fold allocates nothing.
	freeStates []*vpWindowState
	// cells are the fold cells of the watched (VP, prefix) pairs; touched
	// lists the ones linked to this window's state, for resetWindow.
	cells   map[vpPrefix]*vpCell
	touched []*vpCell

	// §4.1 series shared by the pairs that watch the same inputs (see
	// series.go).
	seriesTables

	// §4.1.4 extra-AS exculpation series. awakeExtras are the ones not
	// asleep (see closeShared); closes counts closeShared calls (an int32,
	// as the series' lineages and sleep marks that copy it are: 2³¹
	// windows is 61 000 years of 900 s windows).
	extras       map[extraKey]*extraSeries
	extrasSorted []*extraSeries // cache of deterministic order; nil = dirty
	awakeExtras  []*extraSeries
	closes       int32

	// §4.2.1 subpath monitors, indexed by their start anchor's hop ID
	// (see matchSubpaths).
	subpaths   map[string]*subpathMonitor
	subByStart [][]subStart
	subSorted  []*subpathMonitor // cache of key-sorted order; nil = dirty

	// §4.2.2 border-router series.
	borders      map[borderGroupKey]*borderGroup
	borderSorted []*borderRouterSeries // cache of (group, router) order; nil = dirty

	// §4.2.3 IXP membership state.
	ixpMembers  map[int]map[bgp.ASN]bool
	ixpObserved map[int]map[bgp.ASN]bool
	allowPriv   map[bgp.ASN]bool

	// times is ratioSeries.activate's scratch, and ladderStep divides every
	// rung of the public ladder.
	times      []int64
	ladderStep int64
}

// defaultLadderStep divides every rung of anomaly's default window ladder
// (ChooseWindowMin with a nil ladder).
const defaultLadderStep = 900

func newSharedState(cfg Config, geo Geolocator, rib *bgp.RIB) *sharedState {
	step := int64(defaultLadderStep)
	if len(cfg.PublicLadder) > 0 {
		step = 0
		for _, w := range cfg.PublicLadder {
			for w != 0 {
				step, w = w, step%w
			}
		}
	}
	return &sharedState{
		cfg:          cfg,
		geo:          geo,
		rib:          rib,
		ladderStep:   step,
		cells:        make(map[vpPrefix]*vpCell),
		seriesTables: newSeriesTables(),
		extras:       make(map[extraKey]*extraSeries),
		subpaths:     make(map[string]*subpathMonitor),
		borders:      make(map[borderGroupKey]*borderGroup),
		ixpMembers:   make(map[int]map[bgp.ASN]bool),
		ixpObserved:  make(map[int]map[bgp.ASN]bool),
		allowPriv:    make(map[bgp.ASN]bool),
	}
}

// foldRecord is one logged change to a pair no monitor watches: what
// replaying it into a vpWindowState needs, and no more.
type foldRecord struct {
	key vpPrefix
	// prev is the index of the pair's previous record in the log, -1 for
	// none; set when the record is indexed (see catchUp).
	prev      int32
	kind      bgp.ChangeKind
	hasPrev   bool
	prevComms bgp.Communities
	cur       bgp.Path
}

// Pool and log sizes below which resetWindow never trims (see trimFold).
const (
	minFoldStates = 64
	minFoldLog    = 1024
)

// observeBGPChange folds one already-applied RIB change into the window
// state. It never touches the RIB, so the dispatcher applies each update
// once and folds it once.
func (sh *sharedState) observeBGPChange(u *bgp.Update, c *bgp.Change) {
	if c.Kind == bgp.ChangeCommunities {
		sh.winComms = append(sh.winComms, commEvent{
			vp: c.VP, prefix: u.Prefix, prev: c.Prev.Communities,
			cur: c.Cur.Communities, time: u.Time,
		})
	}
	key := vpPrefix{vp: c.VP, pf: u.Prefix}
	cell := sh.cells[key]
	if cell == nil {
		sh.winLog = append(sh.winLog, foldRecord{
			key: key, kind: c.Kind, hasPrev: c.HasPrev,
			prevComms: c.Prev.Communities, cur: c.Cur.ASPath,
		})
		return
	}
	if cell.win == nil {
		sh.link(cell, sh.takeState(c.HasPrev, c.Prev.Communities))
	}
	cell.win.fold(c.Kind, c.Cur.ASPath)
}

// fold adds one change to the pair's window state: every change but a
// withdrawal contributes its path.
func (st *vpWindowState) fold(kind bgp.ChangeKind, cur bgp.Path) {
	if kind == bgp.ChangeWithdrawn {
		return
	}
	st.dup = st.dup || kind == bgp.ChangeDuplicate
	st.paths = append(st.paths, cur)
}

// takeState returns an empty window state from the pool, started at the
// window-start route of the pair's first change.
func (sh *sharedState) takeState(startOK bool, startComms bgp.Communities) *vpWindowState {
	var st *vpWindowState
	if n := len(sh.freeStates); n > 0 {
		st = sh.freeStates[n-1]
		sh.freeStates[n-1] = nil
		sh.freeStates = sh.freeStates[:n-1]
	} else {
		st = &vpWindowState{}
	}
	st.startOK, st.startComms = startOK, startComms
	return st
}

// cellFor returns the fold cell of a (VP, prefix) a series is about to
// watch, creating it on first use. A pair first watched mid-window must
// still see that window's earlier updates, so a new cell replays the
// pair's logged changes once here; from then on observeBGPChange folds
// them into it directly.
func (sh *sharedState) cellFor(pf vpPrefix) *vpCell {
	c := sh.cells[pf]
	if c == nil {
		c = &vpCell{pf: pf}
		c.readRoute(sh.rib)
		sh.cells[pf] = c
		sh.catchUp(c)
	}
	return c
}

// catchUp folds a new cell's logged changes, in log order, into a window
// state linked to it. It first indexes the records logged since the last
// catch-up: the window's log is indexed once, however many cells it
// creates.
func (sh *sharedState) catchUp(c *vpCell) {
	if len(sh.winLog) == 0 {
		return
	}
	if sh.logHead == nil {
		sh.logHead = make(map[vpPrefix]int32)
	}
	for i := sh.logIndexed; i < len(sh.winLog); i++ {
		r := &sh.winLog[i]
		r.prev = -1
		if j, ok := sh.logHead[r.key]; ok {
			r.prev = j
		}
		sh.logHead[r.key] = int32(i)
	}
	sh.logIndexed = len(sh.winLog)
	i, ok := sh.logHead[c.pf]
	if !ok {
		return
	}
	// Walk the chain newest first, then put the paths in log order; the
	// oldest record holds the window-start route.
	st := sh.takeState(false, nil)
	var first *foldRecord
	for ; i >= 0; i = sh.winLog[i].prev {
		first = &sh.winLog[i]
		st.fold(first.kind, first.cur)
	}
	slices.Reverse(st.paths)
	st.startOK, st.startComms = first.hasPrev, first.prevComms
	sh.link(c, st)
}

// link points a cell at the open window's state for its pair, which makes
// the window a dirty one (see closeSeries).
func (sh *sharedState) link(c *vpCell, st *vpWindowState) {
	c.win = st
	sh.touched = append(sh.touched, c)
}

// resetWindow clears the per-window fold: the touched cells' states go back
// to the pool (with their path slices), and the log and its index are
// emptied.
func (sh *sharedState) resetWindow() {
	for _, c := range sh.touched {
		st := c.win
		c.win = nil
		st.startComms, st.startOK, st.dup = nil, false, false
		clear(st.paths)
		st.paths = st.paths[:0]
		sh.freeStates = append(sh.freeStates, st)
	}
	used := len(sh.touched)
	sh.touched = sh.touched[:0]
	logged := len(sh.winLog)
	clear(sh.winLog)
	sh.winLog = sh.winLog[:0]
	sh.logHead, sh.logIndexed = nil, 0
	sh.trimFold(used, logged)
	for i := range sh.winComms {
		sh.winComms[i] = commEvent{}
	}
	sh.winComms = sh.winComms[:0]
}

// trimFold releases the part of the state pool and of the log's storage
// that the window just closed left unused: when a window used under a
// quarter of either, it keeps twice what it used (and at least
// minFoldStates states and minFoldLog records of room). One burst window,
// such as a table dump, so does not pin its peak, while a steady storm
// keeps both and allocates nothing.
func (sh *sharedState) trimFold(used, logged int) {
	if n := len(sh.freeStates); n > minFoldStates && 4*used < n {
		keep := max(2*used, minFoldStates)
		sh.freeStates = append([]*vpWindowState(nil), sh.freeStates[n-keep:]...)
	}
	if n := cap(sh.winLog); n > minFoldLog && 4*logged < n {
		sh.winLog = make([]foldRecord, 0, max(2*logged, minFoldLog))
	}
}

// sortedExtras returns the extra-AS series in deterministic order. The
// order only changes at registration time, so it is cached instead of
// being rebuilt (keys collected, sorted, mapped) every window.
func (sh *sharedState) sortedExtras() []*extraSeries {
	if sh.extrasSorted == nil && len(sh.extras) > 0 {
		keys := make([]extraKey, 0, len(sh.extras))
		for k := range sh.extras {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].dstIP != keys[j].dstIP {
				return keys[i].dstIP < keys[j].dstIP
			}
			if keys[i].ak != keys[j].ak {
				return keys[i].ak < keys[j].ak
			}
			return keys[i].j < keys[j].j
		})
		out := make([]*extraSeries, len(keys))
		for i, k := range keys {
			out[i] = sh.extras[k]
		}
		sh.extrasSorted = out
	}
	return sh.extrasSorted
}

// sortedSubpaths returns the subpath monitors in key order, cached across
// windows like sortedExtras.
func (sh *sharedState) sortedSubpaths() []*subpathMonitor {
	if sh.subSorted == nil && len(sh.subpaths) > 0 {
		keys := sortedSubpathKeys(sh.subpaths)
		out := make([]*subpathMonitor, len(keys))
		for i, k := range keys {
			out[i] = sh.subpaths[k]
		}
		sh.subSorted = out
	}
	return sh.subSorted
}

// sortedBorderSeries returns every border-router series in (group key,
// router id) order, cached across windows.
func (sh *sharedState) sortedBorderSeries() []*borderRouterSeries {
	if sh.borderSorted == nil && len(sh.borders) > 0 {
		var out []*borderRouterSeries
		for _, gk := range sortedGroupKeys(sh.borders) {
			grp := sh.borders[gk]
			for _, rid := range sortedRouterIDs(grp.routers) {
				out = append(out, grp.routers[rid])
			}
		}
		sh.borderSorted = out
	}
	return sh.borderSorted
}

// closeShared runs the once-per-window evaluation of all shared series:
// the routes of the cells the window touched, the extra-AS detectors, the
// §4.1 BGP series (closeSeries; bursts consult the extra-AS outcome) and
// the subpath and border-router series advances. It returns every series
// signal of the window in emission order, BGP before traceroute, for
// CloseWindow's per-pair phase. It mutates shared state exactly once per
// window and must complete before the per-pair phase starts.
//
// An extra-AS series whose detector is settled at zero duplicates sleeps
// through windows that touched no cell at all, as the §4.1 series do (see
// closeSeries): such a window visits only awakeExtras, and the next window
// that touches a cell replays what each sleeper missed.
func (sh *sharedState) closeShared(ws, end int64, calib *Calibrator) []Signal {
	var commChanged map[trie.Prefix]bool
	if len(sh.winComms) > 0 {
		commChanged = make(map[trie.Prefix]bool, len(sh.winComms))
		for _, ev := range sh.winComms {
			commChanged[ev.prefix] = true
		}
	}
	for _, c := range sh.touched {
		c.readRoute(sh.rib)
	}

	// Extra series first: burst correlation consults their outcome.
	sh.closes++
	quiet := len(sh.touched) == 0
	extras := sh.awakeExtras
	if !quiet {
		extras = sh.sortedExtras()
	}
	awake := sh.awakeExtras[:0]
	for _, es := range extras {
		replay(&es.det, &es.asleep, sh.closes-1, 0)
		dups := 0
		if !quiet {
			dups = dupCount(es.cells)
		}
		if es.det.Add(float64(dups)) {
			es.outlierWin = ws
		}
		if es.det.Settled(0) {
			es.asleep = sh.closes
		} else {
			awake = append(awake, es)
		}
	}
	sh.awakeExtras = awake

	sigs := sh.closeSeries(ws, quiet, commChanged, calib)

	// §4.2.1 subpath series.
	for _, mon := range sh.sortedSubpaths() {
		if mon.series == nil {
			continue
		}
		for _, o := range mon.series.AdvanceTo(end) {
			for _, w := range mon.watchers {
				sigs = append(sigs, Signal{
					Technique:   TechTraceSubpath,
					Key:         w.key,
					MonitorID:   mon.id,
					WindowStart: o.WindowStart,
					Borders:     oneBorder(w.border),
					Detail:      fmt.Sprintf("subpath %s ratio %.2f", trie.FormatIP(mon.ips[0]), o.Value),
					Score:       o.Score,
					IPOverlap:   len(mon.ips),
				})
			}
		}
	}

	// §4.2.2 border-router series.
	for _, rs := range sh.sortedBorderSeries() {
		if rs.series == nil {
			continue
		}
		for _, o := range rs.series.AdvanceTo(end) {
			detail := rs.grp.shiftDetail()
			for _, w := range rs.watchers {
				sigs = append(sigs, Signal{
					Technique:   TechTraceBorder,
					Key:         w.key,
					MonitorID:   rs.id,
					WindowStart: o.WindowStart,
					Borders:     oneBorder(w.border),
					Detail:      detail,
					Score:       o.Score,
				})
			}
		}
	}
	return sigs
}

// borderGroupOf geolocates a crossing's endpoints into the group key and
// resolves the border router identity. Same-city crossings are excluded
// (§4.2.2 requires c_m ≠ c_n).
func (sh *sharedState) borderGroupOf(b bordermap.BorderHop, when int64) (borderGroupKey, int, bool) {
	cm, ok := sh.geo.LocateCity(b.NearIP, when)
	if !ok {
		return borderGroupKey{}, 0, false
	}
	cn, ok := sh.geo.LocateCity(b.FarIP, when)
	if !ok || cm == cn {
		return borderGroupKey{}, 0, false
	}
	router := b.Router
	if router == 0 {
		router = -int(b.FarIP)
	}
	return borderGroupKey{FromAS: b.FromAS, FromC: cm, ToAS: b.ToAS, ToC: cn}, router, true
}

// observeTrace folds one prepared public traceroute into the shared
// series: subpath observations, border-router observations, and §4.2.3
// new-IXP-member detection. Detected joins are reported through onJoin
// one at a time, interleaved with the membership mutation (a second join on
// the same traceroute must see the first one already recorded). The caller
// turns each join into per-pair signals by scanning the corpus.
func (sh *sharedState) observeTrace(pt preparedTrace, onJoin func(ixp int, member bgp.ASN, when int64)) {
	sh.matchSubpaths(pt.path, pt.ids, func(mon *subpathMonitor, match bool) {
		mon.observe(sh, pt.time, match)
	})

	// §4.2.2 consumes the border path.
	if sh.geo != nil {
		for _, b := range pt.borders {
			// An unresponsive hop between near and far may hide the true
			// ingress router: the crossing is a wildcard, not evidence.
			if b.FarIdx != b.NearIdx+1 {
				continue
			}
			gk, router, ok := sh.borderGroupOf(b, pt.time)
			if !ok {
				continue
			}
			grp := sh.borders[gk]
			if grp == nil {
				continue
			}
			for _, rs := range grp.series {
				rs.observe(sh, pt.time, rs.router == router)
			}
		}
	}

	// §4.2.3: watch for ASes newly appearing as near-end neighbors of IXP
	// interfaces.
	if sh.cfg.disabled(TechIXPMembership) {
		return
	}
	for _, b := range pt.borders {
		if b.IXP == 0 {
			continue
		}
		// Near-end (left-adjacent) neighbor of the IXP interface.
		member := b.FromAS
		known := sh.ixpMembers[b.IXP]
		if known == nil {
			known = make(map[bgp.ASN]bool)
			sh.ixpMembers[b.IXP] = known
		}
		obs := sh.ixpObserved[b.IXP]
		if obs == nil {
			obs = make(map[bgp.ASN]bool)
			sh.ixpObserved[b.IXP] = obs
		}
		if known[member] || obs[member] {
			continue
		}
		obs[member] = true
		// During bootstrap, observed members augment the snapshot without
		// signaling (the paper builds its initial membership from
		// PeeringDB plus traceroute-observed adjacencies).
		if pt.time < sh.cfg.IXPBootstrapSec {
			continue
		}
		onJoin(b.IXP, member, pt.time)
	}
}

// subStart is one subpath monitor in its start anchor's subByStart slot,
// with the anchors after the start inline, so matchSubpaths decides a
// match without following mon.
type subStart struct {
	mon  *subpathMonitor
	rest [maxSubpathAnchors - 1]uint32 // ι_{m+1}..ι_n
	n    uint8                         // anchors used in rest
}

// maxSubpathAnchors bounds a subpath monitor's anchors: the short monitor
// of registerSubpathMonitors has three, its bracket monitor four.
const maxSubpathAnchors = 4

// ipBit maps an IP to one bit of a 64-bit word: the top 6 bits of a
// multiplicative hash.
func ipBit(ip uint32) uint64 {
	return 1 << ((ip * 0x9e3779b1) >> 26)
}

// addSubpath creates the monitor of a new subpath key and indexes it under
// its start anchor's hop ID, start, after the monitors already registered
// there.
func (sh *sharedState) addSubpath(key string, ips []uint32, start uint32) *subpathMonitor {
	if len(ips) > maxSubpathAnchors {
		panic("core: subpath with more than maxSubpathAnchors anchors")
	}
	mon := &subpathMonitor{id: hashID("sub:" + key), ips: ips}
	sh.subpaths[key] = mon
	if n := int(start) + 1; n > len(sh.subByStart) {
		sh.subByStart = append(sh.subByStart, make([][]subStart, n-len(sh.subByStart))...)
	}
	st := subStart{mon: mon}
	st.n = uint8(copy(st.rest[:], ips[1:]))
	sh.subByStart[start] = append(sh.subByStart[start], st)
	sh.subSorted = nil
	return mon
}

// matchSubpaths runs §4.2.1's intersect and match steps for one path,
// given with its hop IDs, calling observe for each subpath monitor it
// yields an observation for, in path order and then registration order. A
// monitor whose last anchor's bit is clear in the path's word cannot be in
// T^intersect (its last anchor is not on the path), so it is skipped
// before TraversesVia.
func (sh *sharedState) matchSubpaths(path, ids []uint32, observe func(mon *subpathMonitor, match bool)) {
	var word uint64
	for _, ip := range path {
		word |= ipBit(ip)
	}
	for i, id := range ids {
		if int(id) >= len(sh.subByStart) {
			continue
		}
		ip, starts := path[i], sh.subByStart[id]
		for k := range starts {
			st := &starts[k]
			rest := st.rest[:st.n]
			last := rest[len(rest)-1]
			if word&ipBit(last) == 0 {
				continue
			}
			// Intersect: the trace passes ι_m then later ι_n.
			_, endIdx, via := traceroute.TraversesVia(path[i:], ip, last)
			if !via {
				continue
			}
			// Match: the anchors appear in order. Anchors are border
			// interfaces; intra-domain hops between them may differ
			// across flows and over time without indicating a border
			// change (§4.2's interdomain-only rule). A failed match that
			// could be explained by an unresponsive hop in the span is
			// unknown — wildcards cannot indicate a change (Appendix A) —
			// and is dropped.
			match := inOrder(path[i+1:], rest)
			if !match && spanHasHole(path[i:], endIdx) {
				continue
			}
			observe(st.mon, match)
		}
	}
}
