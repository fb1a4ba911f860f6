package core

import (
	"fmt"
	"sort"

	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/traceroute"
	"rrr/internal/trie"
)

// sharedState is the engine state that is logically global to one feed:
// the per-window BGP observation fold and every monitor series shared
// across corpus pairs (extra-AS series, subpath monitors, border-router
// series, IXP membership). The Engine owns one instance and its shards reach
// it through their back-pointer, so each update and traceroute is folded in
// exactly once whatever the shard count.
//
// Concurrency contract: all writes happen on the caller's goroutine under
// Engine.mu. During the parallel phase of CloseWindow the shards only read
// this state (winUpdates lookups, extra-series outlierWin, series
// First/Last), which is safe because the shared close phase finishes before
// the per-shard phase starts.
type sharedState struct {
	cfg Config
	geo Geolocator

	// Per-window BGP state, folded once per classified RIB change.
	winUpdates map[vpPrefix]*vpWindowState
	winComms   []commEvent
	// freeStates recycles vpWindowState objects across windows so the
	// steady-state fold allocates nothing.
	freeStates []*vpWindowState
	// cells are the fold cells of the watched (VP, prefix) pairs; touched
	// lists the ones linked to this window's state, for resetWindow.
	cells   map[vpPrefix]*vpCell
	touched []*vpCell

	// §4.1.4 extra-AS exculpation series.
	extras       map[extraKey]*extraSeries
	extrasSorted []*extraSeries // cache of deterministic order; nil = dirty

	// §4.2.1 subpath monitors.
	subpaths   map[string]*subpathMonitor
	subByStart map[uint32][]*subpathMonitor
	subSorted  []*subpathMonitor // cache of key-sorted order; nil = dirty

	// §4.2.2 border-router series.
	borders      map[borderGroupKey]*borderGroup
	borderSorted []*borderRouterSeries // cache of (group, router) order; nil = dirty

	// §4.2.3 IXP membership state.
	ixpMembers  map[int]map[bgp.ASN]bool
	ixpObserved map[int]map[bgp.ASN]bool
	allowPriv   map[bgp.ASN]bool

	// times is ratioSeries.activate's scratch.
	times []int64
}

func newSharedState(cfg Config, geo Geolocator) *sharedState {
	return &sharedState{
		cfg:         cfg,
		geo:         geo,
		winUpdates:  make(map[vpPrefix]*vpWindowState),
		cells:       make(map[vpPrefix]*vpCell),
		extras:      make(map[extraKey]*extraSeries),
		subpaths:    make(map[string]*subpathMonitor),
		subByStart:  make(map[uint32][]*subpathMonitor),
		borders:     make(map[borderGroupKey]*borderGroup),
		ixpMembers:  make(map[int]map[bgp.ASN]bool),
		ixpObserved: make(map[int]map[bgp.ASN]bool),
		allowPriv:   make(map[bgp.ASN]bool),
	}
}

// observeBGPChange folds one already-applied RIB change into the window
// state. It never touches the RIB, so the dispatcher applies each update
// once and folds it once, regardless of shard count.
func (sh *sharedState) observeBGPChange(u bgp.Update, c bgp.Change) {
	key := vpPrefix{vp: c.VP, pf: u.Prefix}
	st := sh.winUpdates[key]
	if st == nil {
		if n := len(sh.freeStates); n > 0 {
			st = sh.freeStates[n-1]
			sh.freeStates[n-1] = nil
			sh.freeStates = sh.freeStates[:n-1]
		} else {
			st = &vpWindowState{}
		}
		if c.Prev != nil {
			st.startPath = c.Prev.ASPath
			st.startComms = c.Prev.Communities
			st.startOK = true
		}
		sh.winUpdates[key] = st
		if cell := sh.cells[key]; cell != nil {
			sh.link(cell, st)
		}
	}
	switch c.Kind {
	case bgp.ChangeWithdrawn:
		// A withdrawal removes the path; contributes no path update.
	case bgp.ChangeDuplicate:
		st.dup = true
		st.paths = append(st.paths, c.Cur.ASPath)
	case bgp.ChangeCommunities:
		st.paths = append(st.paths, c.Cur.ASPath)
		prev := bgp.Communities(nil)
		if c.Prev != nil {
			prev = c.Prev.Communities
		}
		sh.winComms = append(sh.winComms, commEvent{
			vp: c.VP, prefix: u.Prefix, prev: prev,
			cur: c.Cur.Communities, time: u.Time,
		})
	case bgp.ChangeASPath, bgp.ChangeNew:
		st.paths = append(st.paths, c.Cur.ASPath)
	}
}

// cellFor returns the fold cell of a (VP, prefix) a monitor on shard s is
// about to watch, creating it on first use. A pair first watched mid-window
// must still see that window's earlier updates, so a new cell looks its
// state up once here; from then on observeBGPChange keeps it linked.
func (sh *sharedState) cellFor(pf vpPrefix, s *shard) *vpCell {
	c := sh.cells[pf]
	if c == nil {
		c = &vpCell{pf: pf}
		sh.cells[pf] = c
		if st := sh.winUpdates[pf]; st != nil {
			sh.link(c, st)
		}
	}
	if s != nil && !c.watchedBy(s) {
		c.shards = append(c.shards, s)
		if c.win != nil {
			s.winDirty = true
		}
	}
	return c
}

func (c *vpCell) watchedBy(s *shard) bool {
	for _, have := range c.shards {
		if have == s {
			return true
		}
	}
	return false
}

// link points a cell at the open window's state for its pair and marks the
// window dirty for every shard watching it.
func (sh *sharedState) link(c *vpCell, st *vpWindowState) {
	c.win = st
	sh.touched = append(sh.touched, c)
	for _, s := range c.shards {
		s.winDirty = true
	}
}

// resetWindow clears the per-window fold, recycling the state objects (and
// their path slices) for the next window.
func (sh *sharedState) resetWindow() {
	for _, c := range sh.touched {
		c.win = nil
	}
	sh.touched = sh.touched[:0]
	for _, st := range sh.winUpdates {
		st.startPath, st.startComms = nil, nil
		st.startOK, st.dup = false, false
		for i := range st.paths {
			st.paths[i] = nil
		}
		st.paths = st.paths[:0]
		sh.freeStates = append(sh.freeStates, st)
	}
	clear(sh.winUpdates)
	for i := range sh.winComms {
		sh.winComms[i] = commEvent{}
	}
	sh.winComms = sh.winComms[:0]
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

// sharedClose carries the results of the once-per-window shared close
// phase into the per-shard close phase.
type sharedClose struct {
	// commChanged marks prefixes with community changes this window (used
	// by burst echo suppression).
	commChanged map[trie.Prefix]bool
	// traceSigs are the window's subpath and border signals in emission
	// order; CloseWindow routes each to the shard owning its pair before the
	// per-shard phase.
	traceSigs []Signal
}

// closeShared runs the once-per-window evaluation of all shared series:
// extra-AS detectors (consulted read-only by burst monitors afterwards)
// and the subpath and border-router series advances. It mutates shared
// detector state exactly once per window and must complete before any
// per-shard close work starts.
func (sh *sharedState) closeShared(ws, end int64) *sharedClose {
	sc := &sharedClose{commChanged: make(map[trie.Prefix]bool, len(sh.winComms))}
	for _, ev := range sh.winComms {
		sc.commChanged[ev.prefix] = true
	}

	// Extra series first: burst correlation consults their outcome.
	for _, es := range sh.sortedExtras() {
		dups := 0
		if len(sh.touched) > 0 {
			dups = dupCount(es.slots)
		}
		if es.det.Add(float64(dups)) {
			es.outlierWin = ws
		}
	}

	// §4.2.1 subpath series.
	for _, mon := range sh.sortedSubpaths() {
		if mon.series == nil {
			continue
		}
		for _, o := range mon.series.AdvanceTo(end) {
			for _, w := range mon.watchers {
				sc.traceSigs = append(sc.traceSigs, Signal{
					Technique:   TechTraceSubpath,
					Key:         w.key,
					MonitorID:   mon.id,
					WindowStart: o.WindowStart,
					Borders:     w.borders,
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
			for _, w := range rs.watchers {
				sc.traceSigs = append(sc.traceSigs, Signal{
					Technique:   TechTraceBorder,
					Key:         w.key,
					MonitorID:   rs.id,
					WindowStart: o.WindowStart,
					Borders:     w.borders,
					Detail:      fmt.Sprintf("border %s->%s router shift", rs.gk.FromAS, rs.gk.ToAS),
					Score:       o.Score,
				})
			}
		}
	}
	return sc
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
// turns each join into per-pair signals by scanning its shards' corpus
// slices.
func (sh *sharedState) observeTrace(pt preparedTrace, onJoin func(ixp int, member bgp.ASN, when int64)) {
	path := pt.path

	// §4.2.1: subpath observations.
	for i, ip := range path {
		if ip == 0 {
			continue
		}
		for _, mon := range sh.subByStart[ip] {
			// Intersect: the trace passes ι_m then later ι_n.
			_, endIdx, via := traceroute.TraversesVia(path[i:], ip, mon.last)
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
			match := matchesSparse(path[i:], mon.ips)
			if !match && spanHasHole(path[i:], endIdx) {
				continue
			}
			mon.observe(sh, pt.time, match)
		}
	}

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
			for _, rs := range grp.routers {
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

// mergeSortedSignals merges per-shard signal slices, each already in
// signalLess order, into one totally-ordered stream. Replaces the old
// concatenate-and-resort, which redid O(n log n) comparison work the
// shards had already paid for.
func mergeSortedSignals(parts [][]Signal) []Signal {
	total, nonEmpty, last := 0, 0, 0
	for i := range parts {
		if len(parts[i]) > 0 {
			total += len(parts[i])
			nonEmpty++
			last = i
		}
	}
	if total == 0 {
		return nil
	}
	if nonEmpty == 1 {
		return parts[last]
	}
	out := make([]Signal, 0, total)
	idx := make([]int, len(parts))
	for len(out) < total {
		best := -1
		for i := range parts {
			if idx[i] >= len(parts[i]) {
				continue
			}
			if best < 0 || signalLess(parts[i][idx[i]], parts[best][idx[best]]) {
				best = i
			}
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
	}
	return out
}
