package core

import (
	"fmt"
	"slices"

	"rrr/internal/anomaly"
	"rrr/internal/bgp"
	"rrr/internal/obs"
	"rrr/internal/trie"
)

// The §4.1 BGP techniques define a series by what it reads, not by the
// corpus pair that asked for it: a burst series by its VPs' fold cells, an
// AS-path series by its cells, a_j, the AS suffix and the τ ASes before
// a_j, a community group by its VPs' cells and baseline community sets.
// Pairs that watch the same inputs subscribe to one series, which the
// shared close steps once per window; a pair's monitor keeps only what is
// its own (key, monitor ID, borders, extra-AS series, VP colocation, the
// relevant τ ASes) and reads the series' outcome.
//
// Sharing must not change what any pair sees, so two monitors share a
// series only when their detectors would hold the same state: the same
// inputs and the same lineage. A fresh series' lineage is its birth, the
// number of closes before it was created; the table of fresh series is
// keyed by inputs and birth. A monitor re-registered over a retired
// detector (see removePair) rejoins the series it left if nothing has been
// closed since and its inputs are unchanged, since that series still holds
// the retired state; otherwise its detector becomes a private series that
// is in no table, so nothing else joins it.

// seriesTable indexes series by the hash of their key; a lookup compares
// the candidates under one hash field by field. A hash names one series
// but for a collision, so the first series under a hash sits in first and
// only the others in a list of their own.
type seriesTable[S comparable] struct {
	first map[uint64]S
	more  map[uint64][]S
}

func newSeriesTable[S comparable]() seriesTable[S] {
	return seriesTable[S]{first: make(map[uint64]S)}
}

func (t *seriesTable[S]) add(h uint64, s S) {
	if _, ok := t.first[h]; !ok {
		t.first[h] = s
		return
	}
	if t.more == nil {
		t.more = make(map[uint64][]S)
	}
	t.more[h] = append(t.more[h], s)
}

func (t *seriesTable[S]) remove(h uint64, s S) {
	list := t.more[h]
	if first, ok := t.first[h]; ok && first == s {
		if len(list) == 0 {
			delete(t.first, h)
			return
		}
		t.first[h], list = list[0], list[1:]
	} else if i := slices.Index(list, s); i >= 0 {
		list = slices.Delete(list, i, i+1)
	}
	if len(list) == 0 {
		delete(t.more, h)
	} else {
		t.more[h] = list
	}
}

// find returns the first series under h that match accepts.
func (t *seriesTable[S]) find(h uint64, match func(S) bool) (S, bool) {
	if first, ok := t.first[h]; ok {
		if match(first) {
			return first, true
		}
		for _, s := range t.more[h] {
			if match(s) {
				return s, true
			}
		}
	}
	var zero S
	return zero, false
}

// len counts the series in the table.
func (t *seriesTable[S]) len() int {
	n := len(t.first)
	for _, list := range t.more {
		n += len(list)
	}
	return n
}

// keyHash folds series-key words into a table hash.
type keyHash uint64

func newKeyHash() keyHash { return 14695981039346656037 }

func (h keyHash) add(v uint64) keyHash {
	h ^= keyHash(v)
	h *= 1099511628211
	return h ^ h>>29
}

func (h keyHash) cell(c *vpCell) keyHash {
	return h.add(uint64(c.pf.vp.PeerIP)<<32 | uint64(c.pf.vp.PeerAS)).add(uint64(c.pf.pf.Addr)<<8 | uint64(c.pf.pf.Len))
}

func (h keyHash) path(p bgp.Path) keyHash {
	h = h.add(uint64(len(p)))
	for _, as := range p {
		h = h.add(uint64(as))
	}
	return h
}

// burstSeries is §4.1.4's duplicate count over one VP cell set.
type burstSeries struct {
	cells []*vpCell
	// subs are the subscribed monitors in registration order.
	subs []*burstMonitor
	hash uint64
	det  anomaly.BitmapDetector
	// birth is the series' lineage (see above), -1 for a private series.
	birth int32
	// asleep is the shared close that last stepped the series while it
	// sleeps, 0 while it is awake (see closeShared); dead marks a reclaimed
	// series until the list holding it is compacted.
	asleep int32
	dead   bool
}

// aspScope is what an AS-path series scores a path against: a_j, the τ
// ASes before it (sorted), and τ's suffix from a_j.
type aspScope struct {
	aj     bgp.ASN
	before bgp.Path
	suffix bgp.Path
}

func (sc *aspScope) equal(o *aspScope) bool {
	return sc.aj == o.aj && sc.before.Equal(o.before) && sc.suffix.Equal(o.suffix)
}

// contribution scores one AS path: (1,1) when it first intersects τ at a_j
// and matches the suffix, (1,0) intersect-only, (0,0) otherwise.
func (sc *aspScope) contribution(p bgp.Path) (int, int) {
	if p == nil || !sc.firstIntersects(p) {
		return 0, 0
	}
	if p.Suffix(sc.aj).Equal(sc.suffix) {
		return 1, 1
	}
	return 1, 0
}

// packContrib stores a contribution in one byte: intersect in bit 0,
// match in bit 1. Both are 0 or 1, so nothing is lost.
func packContrib(ci, cm int) uint8 { return uint8(ci | cm<<1) }

func unpackContrib(b uint8) (ci, cm int) { return int(b & 1), int(b >> 1) }

func (sc *aspScope) firstIntersects(p bgp.Path) bool {
	if !p.Contains(sc.aj) {
		return false
	}
	for _, as := range p {
		if sc.before.Contains(as) {
			return false
		}
	}
	return true
}

// cellSet is an interned list of fold cells. The AS-path series over the
// same VPs' cells share one, whatever their scopes: the series of pairs
// towards one destination block mostly differ only in the τ ASes before
// a_j.
type cellSet struct {
	cells []*vpCell
	hash  uint64
	// refs counts the live series holding the set.
	refs int
}

// aspSeries is §4.1.2's overlap ratio over one VP set and scope. Its
// fields are ordered to pack it, detector included, into the 208-byte
// size class.
type aspSeries struct {
	aspScope
	// cells are the VPs' fold cells; contrib caches, per cell, the
	// (intersect, match) contribution of its current table route (see
	// packContrib), so quiet windows need no RIB walk.
	cells   *cellSet
	contrib []uint8
	subs    []*aspMonitor
	hash    uint64

	// baseline/last ratios for revocation (§4.3.2), valid while hasBase
	// and hasLast.
	baseline  float64
	lastRatio float64

	det    anomaly.BitmapDetector
	birth  int32
	asleep int32

	// quietI/quietM aggregate the cached slot contributions (the window
	// value when no monitored VP saw updates); each is at most the number
	// of cells.
	quietI, quietM int32

	hasBase, hasLast, dead bool
}

// quietRatio is the window value of a window that touched none of the
// series' cells; ok is false when that value is missing.
func (as *aspSeries) quietRatio() (r float64, ok bool) {
	if as.quietI == 0 {
		return 0, false
	}
	return float64(as.quietM) / float64(as.quietI), true
}

// settled reports whether a window that touches none of the series' cells
// would leave it exactly as it is: no revocation input changes (hasLast and
// lastRatio already hold the quiet value; hasLast implies hasBase) and the
// detector step is a settled one.
func (as *aspSeries) settled() bool {
	r, ok := as.quietRatio()
	if !ok {
		return !as.hasLast
	}
	return as.hasLast && as.lastRatio == r && as.det.Settled(r)
}

// wake replays the quiet windows the series slept through into det (its
// own detector or a copy of it), up to and including shared close through.
func (as *aspSeries) wake(det *anomaly.BitmapDetector, asleep *int32, through int32) {
	if r, ok := as.quietRatio(); ok {
		replay(det, asleep, through, r)
	}
	*asleep = 0
}

// commGroup is the overlap set §4.1.3 watches for one or more pairs: the
// overlapping VPs' states in VP order, with baselines fixed at
// registration; offBase counts the states not at baseline.
type commGroup struct {
	overlap []vpCommState
	offBase int
	hash    uint64
	subs    []*commMonitor
}

// state returns the group's state for vp, nil if vp does not overlap.
func (g *commGroup) state(vp bgp.VPKey) *vpCommState {
	i, ok := slices.BinarySearchFunc(g.overlap, vp, func(st vpCommState, vp bgp.VPKey) int {
		switch {
		case st.cell.pf.vp == vp:
			return 0
		case vpLess(st.cell.pf.vp, vp):
			return -1
		}
		return 1
	})
	if ok {
		return &g.overlap[i]
	}
	return nil
}

// seriesTables holds the shared §4.1 series: the tables of fresh series,
// every live series in creation order (dead ones until a compaction), the
// awake subsequences a clean close visits, and the community groups
// indexed by (VP, prefix).
type seriesTables struct {
	burstTab    seriesTable[*burstSeries]
	bursts      []*burstSeries
	awakeBursts []*burstSeries
	deadBursts  int

	aspTab   seriesTable[*aspSeries]
	asps     []*aspSeries
	awakeASP []*aspSeries
	deadASP  int
	// cellSets interns the AS-path series' cell lists.
	cellSets seriesTable[*cellSet]

	commTab    seriesTable[*commGroup]
	commGroups int
	commByVP   map[vpPrefix][]*commGroup

	// subscribers counts the monitors subscribed per technique; seq numbers
	// subscriptions in registration order (see fanOut).
	subscribers [NumTechniques]int
	seq         int

	// burstDetails holds the signal Detail of each burst monitor that has
	// fired, formatted once (see burstDetail); a monitor's entry leaves
	// with it.
	burstDetails map[*burstMonitor]string

	// Registration and close scratch.
	cellBuf    []*vpCell
	contribBuf []uint8
	commBuf    []vpCommState
	borderBuf  []int
	diffBuf    bgp.Communities
	pathBuf    bgp.Path
	dupBuf     []*vpCell
	onOther    []uint8
	fan        []fanned
}

func newSeriesTables() seriesTables {
	return seriesTables{
		burstTab: newSeriesTable[*burstSeries](),
		aspTab:   newSeriesTable[*aspSeries](),
		cellSets: newSeriesTable[*cellSet](),
		commTab:  newSeriesTable[*commGroup](),
		commByVP: make(map[vpPrefix][]*commGroup),
	}
}

// joinBurst subscribes bm to the series over cells (registration scratch,
// copied if a series is created). A retired detector st, if any, decides
// the lineage as described above.
func (sh *sharedState) joinBurst(bm *burstMonitor, cells []*vpCell, st *retiredState) {
	var bs *burstSeries
	if st != nil {
		if from, ok := st.from.(*burstSeries); ok && st.at == sh.closes && !from.dead && slices.Equal(from.cells, cells) {
			bs = from
		} else {
			bs = sh.newBurst(cells, st.det, -1)
		}
	}
	if bs == nil {
		h := newKeyHash().add(uint64(sh.closes))
		for _, c := range cells {
			h = h.cell(c)
		}
		bs, _ = sh.burstTab.find(uint64(h), func(have *burstSeries) bool {
			return have.birth == sh.closes && slices.Equal(have.cells, cells)
		})
		if bs == nil {
			bs = sh.newBurst(cells, anomaly.BitmapDetector{}, sh.closes)
			bs.hash = uint64(h)
			sh.burstTab.add(bs.hash, bs)
		}
	}
	sh.seq++
	bm.series, bm.seq = bs, sh.seq
	bs.subs = append(bs.subs, bm)
	sh.subscribers[TechBGPBurst]++
}

func (sh *sharedState) newBurst(cells []*vpCell, det anomaly.BitmapDetector, birth int32) *burstSeries {
	bs := &burstSeries{cells: slices.Clone(cells), det: det, birth: birth}
	sh.bursts = append(sh.bursts, bs)
	sh.awakeBursts = append(sh.awakeBursts, bs)
	return bs
}

// joinASP subscribes m to the series over scope and cells (registration
// scratch, with each cell's contribution cached in contrib), as joinBurst
// does. An AS-path series also caches its VPs' contributions, which a
// registration computes from the routes of the moment: it joins only a
// series whose caches agree.
func (sh *sharedState) joinASP(m *aspMonitor, scope aspScope, cells []*vpCell, contrib []uint8, st *retiredState) {
	same := func(have *aspSeries) bool {
		return have.aspScope.equal(&scope) && slices.Equal(have.cells.cells, cells) && slices.Equal(have.contrib, contrib)
	}
	var as *aspSeries
	if st != nil {
		if from, ok := st.from.(*aspSeries); ok && st.at == sh.closes && !from.dead && same(from) {
			as = from
		} else {
			as = sh.newASP(scope, cells, contrib, st.det, -1)
			as.baseline, as.hasBase = st.baseline, st.hasBase
		}
	}
	if as == nil {
		h := newKeyHash().add(uint64(sh.closes)).add(uint64(scope.aj)).path(scope.before).path(scope.suffix)
		for _, c := range cells {
			h = h.cell(c)
		}
		as, _ = sh.aspTab.find(uint64(h), func(have *aspSeries) bool {
			return have.birth == sh.closes && same(have)
		})
		if as == nil {
			as = sh.newASP(scope, cells, contrib, anomaly.BitmapDetector{}, sh.closes)
			as.hash = uint64(h)
			sh.aspTab.add(as.hash, as)
		}
	}
	sh.seq++
	m.series, m.seq = as, sh.seq
	as.subs = append(as.subs, m)
	sh.subscribers[TechBGPASPath]++
}

// newASP creates an AS-path series; scope's paths, cells and contrib may
// be scratch: the paths are copied into one allocation, the cells interned.
func (sh *sharedState) newASP(scope aspScope, cells []*vpCell, contrib []uint8, det anomaly.BitmapDetector, birth int32) *aspSeries {
	paths := make(bgp.Path, 0, len(scope.before)+len(scope.suffix))
	paths = append(append(paths, scope.before...), scope.suffix...)
	scope.before, scope.suffix = paths[:len(scope.before):len(scope.before)], paths[len(scope.before):]
	as := &aspSeries{aspScope: scope, cells: sh.internCells(cells), contrib: slices.Clone(contrib), det: det, birth: birth}
	for _, b := range as.contrib {
		ci, cm := unpackContrib(b)
		as.quietI += int32(ci)
		as.quietM += int32(cm)
	}
	sh.asps = append(sh.asps, as)
	sh.awakeASP = append(sh.awakeASP, as)
	return as
}

// internCells returns the shared set over cells (registration scratch),
// creating it on first use, and counts the caller as one more holder.
func (sh *sharedState) internCells(cells []*vpCell) *cellSet {
	h := newKeyHash()
	for _, c := range cells {
		h = h.cell(c)
	}
	cs, _ := sh.cellSets.find(uint64(h), func(have *cellSet) bool { return slices.Equal(have.cells, cells) })
	if cs == nil {
		cs = &cellSet{cells: slices.Clone(cells), hash: uint64(h)}
		sh.cellSets.add(cs.hash, cs)
	}
	cs.refs++
	return cs
}

// releaseCells drops one holder of cs, and the set from the table with
// its last holder.
func (sh *sharedState) releaseCells(cs *cellSet) {
	if cs.refs--; cs.refs == 0 {
		sh.cellSets.remove(cs.hash, cs)
	}
}

// joinComm subscribes cm to the group over states (registration scratch,
// every state at baseline). A group has no history beyond its at-baseline
// bits, so cm joins any group with the same states that is entirely at
// baseline.
func (sh *sharedState) joinComm(cm *commMonitor, states []vpCommState) {
	h := newKeyHash()
	for i := range states {
		h = h.cell(states[i].cell)
		for _, c := range states[i].baseline {
			h = h.add(uint64(c))
		}
	}
	g, _ := sh.commTab.find(uint64(h), func(have *commGroup) bool {
		return have.offBase == 0 && sameCommStates(have.overlap, states)
	})
	if g == nil {
		g = &commGroup{overlap: slices.Clone(states), hash: uint64(h)}
		sh.commTab.add(g.hash, g)
		sh.commGroups++
		for i := range g.overlap {
			pf := g.overlap[i].cell.pf
			sh.commByVP[pf] = append(sh.commByVP[pf], g)
		}
	}
	cm.group = g
	g.subs = append(g.subs, cm)
	sh.subscribers[TechBGPCommunity]++
}

func sameCommStates(a, b []vpCommState) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].cell != b[i].cell || !a[i].baseline.Equal(b[i].baseline) {
			return false
		}
	}
	return true
}

// leaveBurst unsubscribes bm and returns its retired state: the detector as
// of the last close. The series' own detector when bm was its last
// subscriber (the series is reclaimed), otherwise a copy, since the series
// keeps stepping for the others while a retired detector does not.
func (sh *sharedState) leaveBurst(bm *burstMonitor) *retiredState {
	bs := bm.series
	bs.subs = removeSub(bs.subs, bm)
	sh.subscribers[TechBGPBurst]--
	delete(sh.burstDetails, bm)
	st := &retiredState{from: bs, at: sh.closes}
	if len(bs.subs) > 0 {
		st.det = bs.det.Clone()
		asleep := bs.asleep
		replay(&st.det, &asleep, sh.closes, 0)
		return st
	}
	replay(&bs.det, &bs.asleep, sh.closes, 0)
	st.det = bs.det
	bs.dead = true
	if bs.birth >= 0 {
		sh.burstTab.remove(bs.hash, bs)
	}
	sh.awakeBursts = removeSub(sh.awakeBursts, bs)
	if sh.deadBursts++; 2*sh.deadBursts > len(sh.bursts) {
		sh.bursts = compact(sh.bursts, func(bs *burstSeries) bool { return bs.dead })
		sh.deadBursts = 0
	}
	return st
}

// leaveASP is leaveBurst for an AS-path monitor; the retired state also
// keeps the revocation baseline.
func (sh *sharedState) leaveASP(m *aspMonitor) *retiredState {
	as := m.series
	as.subs = removeSub(as.subs, m)
	sh.subscribers[TechBGPASPath]--
	st := &retiredState{from: as, at: sh.closes, baseline: as.baseline, hasBase: as.hasBase}
	if len(as.subs) > 0 {
		st.det = as.det.Clone()
		asleep := as.asleep
		as.wake(&st.det, &asleep, sh.closes)
		return st
	}
	as.wake(&as.det, &as.asleep, sh.closes)
	st.det = as.det
	as.dead = true
	sh.releaseCells(as.cells)
	if as.birth >= 0 {
		sh.aspTab.remove(as.hash, as)
	}
	sh.awakeASP = removeSub(sh.awakeASP, as)
	if sh.deadASP++; 2*sh.deadASP > len(sh.asps) {
		sh.asps = compact(sh.asps, func(as *aspSeries) bool { return as.dead })
		sh.deadASP = 0
	}
	return st
}

// leaveComm unsubscribes cm, dropping its group once nobody watches it.
func (sh *sharedState) leaveComm(cm *commMonitor) {
	g := cm.group
	g.subs = removeSub(g.subs, cm)
	sh.subscribers[TechBGPCommunity]--
	if len(g.subs) > 0 {
		return
	}
	sh.commTab.remove(g.hash, g)
	sh.commGroups--
	for i := range g.overlap {
		pf := g.overlap[i].cell.pf
		if rest := removeSub(sh.commByVP[pf], g); len(rest) > 0 {
			sh.commByVP[pf] = rest
		} else {
			delete(sh.commByVP, pf)
		}
	}
}

// removeSub deletes x from list in place, keeping order.
func removeSub[T comparable](list []T, x T) []T {
	if i := slices.Index(list, x); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// compact drops the dead entries of a series list in place, keeping
// order.
func compact[M any](list []M, dead func(M) bool) []M {
	alive := list[:0]
	for _, m := range list {
		if !dead(m) {
			alive = append(alive, m)
		}
	}
	clear(list[len(alive):])
	return alive
}

// fanned is one subscriber's signal with the subscription's registration
// number, by which fanOut orders a technique's signals.
type fanned struct {
	seq int
	sig Signal
}

// fanOut appends the technique's fanned signals to sigs in registration
// order: a pair's signals reach its active list in the order its own
// monitors would have raised them, whatever order the series fired in.
func (sh *sharedState) fanOut(sigs []Signal) []Signal {
	slices.SortFunc(sh.fan, func(a, b fanned) int { return a.seq - b.seq })
	for i := range sh.fan {
		sigs = append(sigs, sh.fan[i].sig)
		sh.fan[i] = fanned{}
	}
	sh.fan = sh.fan[:0]
	return sigs
}

// closeSeries steps every §4.1 series for the window starting at ws and
// returns the window's BGP signals: burst signals, then AS-path signals,
// each in registration order, then community signals in event order. The
// extra-AS series and the cells' routes are already up to date.
//
// A window that touched no cell at all (a quiet one) gives every series
// its cached quiet value: 0 duplicates for a burst series, quietM/quietI
// for an AS-path series. A series whose detector is settled at that value,
// and whose revocation inputs it would not change, sleeps: a quiet window
// visits only the awake lists, and the next window that touches a cell
// visits every series and wakes each sleeper first, replaying the windows
// it missed.
func (sh *sharedState) closeSeries(ws int64, quiet bool, commChanged map[trie.Prefix]bool, calib *Calibrator) []Signal {
	var sigs []Signal

	// §4.1.4 burst series.
	bursts := sh.awakeBursts
	if !quiet {
		bursts = sh.bursts
	}
	awake := sh.awakeBursts[:0]
	for _, bs := range bursts {
		if bs.dead {
			continue
		}
		replay(&bs.det, &bs.asleep, sh.closes-1, 0)
		dups := 0
		if !quiet {
			dups = dupCount(bs.cells)
		}
		outlier := bs.det.Add(float64(dups))
		if bs.det.Settled(0) {
			bs.asleep = sh.closes
		} else {
			awake = append(awake, bs)
		}
		if outlier {
			sh.fanBurst(bs, dups, ws, commChanged)
		}
	}
	sh.awakeBursts = awake
	sigs = sh.fanOut(sigs)

	// §4.1.2 AS-path series. The window value combines the cached
	// contributions of quiet VPs with the update paths of VPs that saw
	// changes this window; caches refresh to the post-window table route.
	asps := sh.awakeASP
	if !quiet {
		asps = sh.asps
	}
	awakeASP := sh.awakeASP[:0]
	for _, as := range asps {
		if as.dead {
			continue
		}
		as.wake(&as.det, &as.asleep, sh.closes-1)
		fired := as.step(!quiet)
		if as.settled() {
			as.asleep = sh.closes
		} else {
			awakeASP = append(awakeASP, as)
		}
		if fired {
			detail := fmt.Sprintf("P_ratio outlier at %s", as.aj)
			for _, m := range as.subs {
				sh.fan = append(sh.fan, fanned{seq: m.seq, sig: Signal{
					Technique:   TechBGPASPath,
					Key:         m.key,
					MonitorID:   m.id,
					WindowStart: ws,
					Borders:     m.borders,
					Detail:      detail,
					Score:       as.det.Score(),
					VPCount:     len(as.cells.cells),
					ASOverlap:   len(as.suffix),
					SameASVP:    m.sameAS,
					SameCityVP:  m.sameCity,
				}})
			}
		}
	}
	sh.awakeASP = awakeASP
	sigs = sh.fanOut(sigs)

	// §4.1.3 community events, then the touched cells' baseline bits.
	sigs = sh.commSignals(sigs, ws, calib)
	if !quiet {
		sh.markCommBaselines()
	}
	return sigs
}

// fanBurst applies the per-subscriber checks to a burst series that
// flagged the window's dups and queues a signal for each subscriber that
// passes them.
func (sh *sharedState) fanBurst(bs *burstSeries, dups int, ws int64, commChanged map[trie.Prefix]bool) {
	// The technique's premise is *contemporaneous* duplicates from
	// multiple peers sharing the subpath (§4.1.4): a genuine border change
	// re-announces from every peer routing across it, so a burst must
	// involve a meaningful share of the suffix's VPs, not a coincidence of
	// unrelated IGP noise.
	quorum := 2
	if q := (len(bs.cells) + 2) / 3; q > quorum {
		quorum = q
	}
	if dups < quorum {
		return
	}
	dupCells := sh.dupBuf[:0]
	allEchoes := true
	for _, c := range bs.cells {
		if c.dup() {
			dupCells = append(dupCells, c)
			allEchoes = allEchoes && commChanged[c.pf.pf]
		}
	}
	sh.dupBuf = dupCells
	if allEchoes {
		return
	}
	for _, bm := range bs.subs {
		// Is there a VP whose duplicate cannot be explained by a
		// contemporaneous burst on an extra AS it traverses?
		unexplained := len(bm.extras) == 0
		for _, c := range dupCells {
			explained := false
			for _, es := range bm.extras {
				if es.outlierWin != ws {
					continue
				}
				if c.path.Contains(es.ak) {
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
		sh.fan = append(sh.fan, fanned{seq: bm.seq, sig: Signal{
			Technique:   TechBGPBurst,
			Key:         bm.key,
			MonitorID:   bm.id,
			WindowStart: ws,
			Borders:     bm.borders,
			Detail:      sh.burstDetail(bm),
			Score:       bs.det.Score(),
			VPCount:     dups,
			ASOverlap:   len(bm.suffix),
			SameASVP:    bm.sameAS,
			SameCityVP:  bm.sameCity,
		}})
	}
}

// burstDetail is the Detail of bm's signals. It names the monitor's
// suffix, which is fixed at registration, so it is formatted at the
// monitor's first firing and kept.
func (sh *sharedState) burstDetail(bm *burstMonitor) string {
	d, ok := sh.burstDetails[bm]
	if !ok {
		d = fmt.Sprintf("dup burst on suffix %v", bm.suffix)
		if sh.burstDetails == nil {
			sh.burstDetails = make(map[*burstMonitor]string)
		}
		sh.burstDetails[bm] = d
	}
	return d
}

// step feeds one window to the series and reports whether it flagged it.
func (as *aspSeries) step(dirty bool) bool {
	intersect, match := int(as.quietI), int(as.quietM)
	if dirty {
		for i, c := range as.cells.cells {
			st := c.win
			if st == nil {
				continue
			}
			// The cached value covers the window-start route; add the update
			// paths on top (each counts as one observed path, §4.1.2 counts
			// path updates).
			for _, p := range st.paths {
				ci, cm := as.contribution(p)
				intersect += ci
				match += cm
			}
			// Refresh the cache to the current table route for the following
			// windows.
			ni, nm := as.contribution(c.path)
			oi, om := unpackContrib(as.contrib[i])
			as.quietI += int32(ni - oi)
			as.quietM += int32(nm - om)
			as.contrib[i] = packContrib(ni, nm)
		}
	}
	if intersect == 0 {
		as.hasLast = false
		return false // missing value, not an outlier (§4.1.2)
	}
	ratio := float64(match) / float64(intersect)
	if !as.hasBase {
		as.baseline, as.hasBase = ratio, true
	}
	as.lastRatio, as.hasLast = ratio, true
	return as.det.Add(ratio)
}

// markCommBaselines re-derives the at-baseline bit of every community
// state on a cell the window touched (the only cells whose routes moved),
// keeping each group's offBase count, which revocation reads.
func (sh *sharedState) markCommBaselines() {
	for _, c := range sh.touched {
		for _, g := range sh.commByVP[c.pf] {
			st := g.state(c.pf.vp)
			at := c.routed && c.comms.Equal(st.baseline)
			switch {
			case at && !st.atBase:
				g.offBase--
			case !at && st.atBase:
				g.offBase++
			}
			st.atBase = at
		}
	}
}

// commSignals turns the window's community change records into §4.1.3
// signals, applying the paper's two caveats and the calibration filter.
// Caveat 2 (was an added community already on another overlapping VP?)
// depends on the group only, so it is decided once per group and event.
func (sh *sharedState) commSignals(sigs []Signal, ws int64, calib *Calibrator) []Signal {
	// One signal per (monitor, community) per window: several VPs
	// reporting the same community change describe one network event.
	var emitted map[[2]uint64]bool
	for _, ev := range sh.winComms {
		groups := sh.commByVP[vpPrefix{vp: ev.vp, pf: ev.prefix}]
		if len(groups) == 0 {
			continue
		}
		// changed is the added communities (the first nAdded), then the
		// removed ones, in close scratch.
		changed := ev.cur.Diff(sh.diffBuf[:0], ev.prev)
		nAdded := len(changed)
		changed = ev.prev.Diff(changed, ev.cur)
		sh.diffBuf = changed
		for _, g := range groups {
			// onOther[i] is caveat 2 for changed[i], i < nAdded: 0
			// undecided, 1 no, 2 yes.
			onOther := append(sh.onOther[:0], make([]uint8, nAdded)...)
			sh.onOther = onOther
			for _, cm := range g.subs {
				borders := sh.borderBuf[:0]
				var detail bgp.Community
				for i, c := range changed {
					// Calibration filter (Appendix B): skip pruned communities.
					if !cm.relevant(c.AS()) || calib.communityPruned(c) {
						continue
					}
					// Caveat 2: an added community already on an overlapping
					// path from another VP is not a new change signal.
					if i < nAdded {
						if onOther[i] == 0 {
							onOther[i] = 1
							if g.communityOnOtherVP(ev.vp, c) {
								onOther[i] = 2
							}
						}
						if onOther[i] == 2 {
							continue
						}
					}
					borders = appendBordersForAS(borders, cm.en, c.AS())
					if detail == 0 {
						detail = c
					}
				}
				sh.borderBuf = borders
				if len(borders) == 0 {
					continue
				}
				dk := [2]uint64{uint64(cm.id), uint64(detail)}
				if emitted == nil {
					emitted = make(map[[2]uint64]bool)
				}
				if emitted[dk] {
					continue
				}
				emitted[dk] = true
				sigs = append(sigs, Signal{
					Technique:   TechBGPCommunity,
					Key:         cm.en.Key,
					MonitorID:   cm.id,
					WindowStart: ws,
					Borders:     slices.Clone(dedupInts(borders)),
					Detail:      detail.String(),
					Comm:        detail,
					VPCount:     1,
				})
			}
		}
	}
	return sigs
}

// communityOnOtherVP checks whether the community was already present on
// another overlapping VP's route *before* this window's changes; VPs whose
// routes changed in the same window are compared at their window-start
// state, so a simultaneous multi-VP community change is not self-masking.
func (g *commGroup) communityOnOtherVP(except bgp.VPKey, c bgp.Community) bool {
	for i := range g.overlap {
		st := &g.overlap[i]
		if st.cell.pf.vp == except {
			continue
		}
		var comms bgp.Communities
		if ws := st.cell.win; ws != nil && ws.startOK {
			comms = ws.startComms
		} else {
			comms = st.cell.comms
		}
		for _, have := range comms {
			if have == c {
				return true
			}
		}
	}
	return false
}

// seriesMetrics are the sharing gauges: live series and subscribed
// monitors per BGP technique. Their ratio is how many pairs one series
// serves.
type seriesMetrics struct {
	series, subscribers [NumTechniques]*obs.Gauge
}

func newSeriesMetrics() seriesMetrics {
	obs.Default.Help("rrr_series", "live shared BGP series (community: overlap groups) per technique")
	obs.Default.Help("rrr_series_subscribers", "per-pair monitors subscribed to the shared BGP series per technique")
	var m seriesMetrics
	for _, t := range []Technique{TechBGPBurst, TechBGPASPath, TechBGPCommunity} {
		m.series[t] = obs.Default.Gauge("rrr_series", "technique", t.String())
		m.subscribers[t] = obs.Default.Gauge("rrr_series_subscribers", "technique", t.String())
	}
	return m
}
