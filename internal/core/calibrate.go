package core

import (
	"math/rand"
	"slices"
	"sort"

	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/corpus"
	"rrr/internal/traceroute"
)

// Outcome is the result of evaluating one potential signal against a
// refresh measurement (§4.3.1).
type Outcome int

// Outcomes.
const (
	// outcomeTP: the signal indicated a change and the portion changed.
	outcomeTP Outcome = iota
	// outcomeFP: the signal indicated a change but the portion is intact.
	outcomeFP
	// outcomeTN: no signal, and the portion is intact.
	outcomeTN
	// outcomeFN: no signal, but the portion changed.
	outcomeFN
)

// calibKey identifies a (traceroute vantage point, potential signal) pair.
// The paper indexes tallies by the VP that issued the traceroute; we use
// the source address.
type calibKey struct {
	src     uint32
	monitor int
}

// tally keeps the last l outcomes per (VP, signal).
type tally struct {
	ring []Outcome
	next int
	full bool
}

func (t *tally) add(o Outcome, l int) {
	if len(t.ring) < l {
		t.ring = append(t.ring, o)
		if len(t.ring) == l {
			t.full = true
		}
		return
	}
	t.ring[t.next] = o
	t.next = (t.next + 1) % l
	t.full = true
}

func (t *tally) rates() (tpr, tnr float64, ok bool) {
	if !t.full {
		return 0, 0, false
	}
	var tp, fp, tn, fn int
	for _, o := range t.ring {
		switch o {
		case outcomeTP:
			tp++
		case outcomeFP:
			fp++
		case outcomeTN:
			tn++
		case outcomeFN:
			fn++
		}
	}
	if tp+fn > 0 {
		tpr = float64(tp) / float64(tp+fn)
	}
	if tn+fp > 0 {
		tnr = float64(tn) / float64(tn+fp)
	}
	return tpr, tnr, true
}

// Calibrator maintains §4.3.1's per-(VP, signal) TPR/TNR tallies and
// Appendix B's community reputation.
type Calibrator struct {
	l       int
	fpQuota int
	stats   map[calibKey]*tally

	commFP     map[bgp.Community]int
	commTP     map[bgp.Community]int
	commPruned map[bgp.Community]bool
}

// newCalibrator returns a calibrator with sliding window length l and a
// community false-positive quota.
func newCalibrator(l, fpQuota int) *Calibrator {
	return &Calibrator{
		l:          l,
		fpQuota:    fpQuota,
		stats:      make(map[calibKey]*tally),
		commFP:     make(map[bgp.Community]int),
		commTP:     make(map[bgp.Community]int),
		commPruned: make(map[bgp.Community]bool),
	}
}

// Record adds one outcome for (src VP, monitor).
func (c *Calibrator) Record(src uint32, monitor int, o Outcome) {
	k := calibKey{src: src, monitor: monitor}
	t := c.stats[k]
	if t == nil {
		t = &tally{}
		c.stats[k] = t
	}
	t.add(o, c.l)
}

// rates returns (TPR, TNR) for a (VP, signal); ok is false while the
// sliding window is not yet full (uninitialized per §4.3.1).
func (c *Calibrator) rates(src uint32, monitor int) (tpr, tnr float64, ok bool) {
	t := c.stats[calibKey{src: src, monitor: monitor}]
	if t == nil {
		return 0, 0, false
	}
	return t.rates()
}

// recordCommunityOutcome feeds Appendix B's learning: communities whose
// signals keep failing are pruned.
func (c *Calibrator) recordCommunityOutcome(comm bgp.Community, truePositive bool) {
	if truePositive {
		c.commTP[comm]++
		return
	}
	c.commFP[comm]++
	if c.commFP[comm] >= c.fpQuota && c.commTP[comm] == 0 {
		c.commPruned[comm] = true
	}
}

// communityPruned reports whether the community has been learned to be
// unrelated to path changes.
func (c *Calibrator) communityPruned(comm bgp.Community) bool {
	return c.commPruned[comm]
}

// PrunedCommunityCount reports how many communities calibration disabled
// (Fig 13's converging quantity).
func (c *Calibrator) PrunedCommunityCount() int { return len(c.commPruned) }

// PrunedCommunityIDs lists the pruned community values in ascending order,
// so a cluster merge can de-duplicate prune decisions that independent
// workers reached about the same community.
func (c *Calibrator) PrunedCommunityIDs() []uint32 {
	out := make([]uint32, 0, len(c.commPruned))
	for comm := range c.commPruned {
		out = append(out, uint32(comm))
	}
	slices.Sort(out)
	return out
}

// --- Refresh outcome evaluation ---

// portionChanged reports whether any of the old entry's border crossings at
// the given indices is missing from the new measurement's border path.
func portionChanged(old *corpus.Entry, borders []int, new *corpus.Entry) bool {
	if len(borders) == 0 {
		// Whole-path potential signal: any border-or-AS-level difference.
		return corpus.ClassifyEntry(old, new) != bordermap.Unchanged
	}
	// Align by AS pair: a crossing hidden by unresponsive hops in the new
	// measurement is a wildcard, not a change. Border paths are a handful
	// of crossings, so the new one is scanned per old crossing.
	for _, bi := range borders {
		if bi >= len(old.Borders) {
			continue
		}
		id := old.Borders[bi].ID()
		visible, found := false, false
		for _, nb := range new.Borders {
			if nb.FromAS == id.FromAS && nb.ToAS == id.ToAS {
				visible = true
				if nb.ID() == id {
					found = true
					break
				}
			}
		}
		if visible && !found {
			return true
		}
	}
	return false
}

// EvaluateRefresh scores every potential signal of the pair against a new
// measurement, updating the calibrator (including community reputations),
// and returns the change classification. It does not modify registrations;
// call AddCorpusEntry afterwards to swap in the new measurement.
func (e *Engine) EvaluateRefresh(newEntry *corpus.Entry) (bordermap.ChangeClass, bool) {
	old, ok := e.corp.Get(newEntry.Key)
	if !ok {
		return bordermap.Unchanged, false
	}
	signaled := make(map[int][]Signal)
	for _, sig := range e.Active(newEntry.Key) {
		signaled[sig.MonitorID] = append(signaled[sig.MonitorID], sig)
	}
	for _, reg := range e.Registrations(newEntry.Key) {
		changed := portionChanged(old, reg.Borders, newEntry)
		sigs, wasSignaled := signaled[reg.MonitorID]
		var o Outcome
		switch {
		case wasSignaled && changed:
			o = outcomeTP
		case wasSignaled && !changed:
			o = outcomeFP
		case !wasSignaled && !changed:
			o = outcomeTN
		default:
			o = outcomeFN
		}
		e.Calib.Record(newEntry.Key.Src, reg.MonitorID, o)
		if reg.Technique == TechBGPCommunity && wasSignaled {
			for _, sig := range sigs {
				if sig.Comm != 0 {
					e.Calib.recordCommunityOutcome(sig.Comm, changed)
				}
			}
		}
	}
	return corpus.ClassifyEntry(old, newEntry), true
}

// unregister drops a pair's registrations, monitors, and active and pending
// signals, stashing its detector state for a later re-registration: each of
// its §4.1 monitors leaves its series with the detector as of the last close
// (see leaveBurst). The pair's entry stays in the store.
func (s *pairState) unregister(k traceroute.Key) {
	delete(s.active, k)
	delete(s.restored, k)
	s.pendingIXP = slices.DeleteFunc(s.pendingIXP, func(sig Signal) bool { return sig.Key == k })

	pm := s.mons[k]
	if pm == nil {
		return
	}
	delete(s.mons, k)
	sh := s.eng.sh
	stash := make(map[string]*retiredState)
	for i := range pm.asp {
		m := &pm.asp[i]
		stash["asp:"+m.series.suffix.String()] = sh.leaveASP(m)
	}
	for i := range pm.burst {
		bm := &pm.burst[i]
		stash["burst:"+bm.suffix.String()] = sh.leaveBurst(bm)
	}
	if len(stash) > 0 {
		s.retired[k] = stash
	}
	if pm.comm.group != nil {
		sh.leaveComm(&pm.comm)
	}
	for _, l := range pm.subs {
		l.mon.watchers = dropWatcher(l.mon.watchers, k)
	}
	for _, l := range pm.brs {
		l.rs.watchers = dropWatcher(l.rs.watchers, k)
	}
}

// dropWatcher removes every watcher of pair k in place, keeping order.
func dropWatcher(ws []subpathWatcher, k traceroute.Key) []subpathWatcher {
	return slices.DeleteFunc(ws, func(w subpathWatcher) bool { return w.key == k })
}

// --- Refresh planning (§4.3.1) ---

// PlanItem is one refresh-plan selection together with its ranking
// attributes (§4.3.1): whether the calibrated phase (steps 1-4) or the
// Table-1 bootstrap (step 5) picked it, the selecting VP's summed
// relative TPR for calibrated picks, and the pair's highest-priority
// active signal — the evidence a priority merge needs to interleave
// plans from disjoint state partitions.
type PlanItem struct {
	Key        traceroute.Key
	Calibrated bool
	VPTPR      float64
	Sig        Signal
}

func planKeys(items []PlanItem) []traceroute.Key {
	out := make([]traceroute.Key, len(items))
	for i, it := range items {
		out[i] = it.Key
	}
	return out
}

// bestSignal picks a pair's representative signal: its table1Less-first
// active signal, i.e. the one a global bootstrap scan would select it by.
func bestSignal(sigs []Signal) Signal {
	best := sigs[0]
	for _, s := range sigs[1:] {
		if table1Less(s, best) {
			best = s
		}
	}
	return best
}

// refreshPlan is RefreshPlanDetailed over explicit state, which it only
// reads: the engine passes its own active signals and monitors. Its outcome
// depends only on the map contents, not iteration order: every candidate
// list is sorted before budget is spent, and every rate sum runs in key
// order (floating-point addition is not associative, so a sum in map order
// could reorder two VPs whose relative TPRs tie).
func refreshPlan(active map[traceroute.Key][]Signal, mons map[traceroute.Key]*pairMonitors,
	calib *Calibrator, budget int, rng *rand.Rand) []PlanItem {
	type vpState struct {
		src     uint32
		sumTPR  float64
		keys    []traceroute.Key // ascending
		sigs    []Signal
		anyInit bool
	}
	flagged := make(map[traceroute.Key]bool, len(active))
	for k, sigs := range active {
		if len(sigs) > 0 {
			flagged[k] = true
		}
	}
	keys := sortedKeySet(flagged)
	bySrc := make(map[uint32]*vpState)
	for _, k := range keys {
		sigs := active[k]
		st := bySrc[k.Src]
		if st == nil {
			st = &vpState{src: k.Src}
			bySrc[k.Src] = st
		}
		st.keys = append(st.keys, k)
		st.sigs = append(st.sigs, sigs...)
		for _, s := range sigs {
			if tpr, _, ok := calib.rates(k.Src, s.MonitorID); ok {
				st.sumTPR += tpr
				st.anyInit = true
			}
		}
	}

	var chosen []PlanItem
	chosenSet := make(map[traceroute.Key]bool)
	remaining := budget

	// Steps 1-4: calibrated VPs in order of relative TPR.
	var order []*vpState
	for _, st := range bySrc {
		if st.anyInit {
			order = append(order, st)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].sumTPR != order[j].sumTPR {
			return order[i].sumTPR > order[j].sumTPR
		}
		return order[i].src < order[j].src
	})
	for _, st := range order {
		if remaining <= 0 {
			break
		}
		// Refresh probability combines TPRs of firing signals with TNRs of
		// silent potential signals across the VP's flagged traceroutes.
		var sumTPR, sumTNR float64
		signaledMon := make(map[traceroute.Key]map[int]bool)
		for _, k := range st.keys {
			signaledMon[k] = make(map[int]bool)
		}
		for _, s := range st.sigs {
			if m, ok := signaledMon[s.Key]; ok {
				m[s.MonitorID] = true
			}
			if tpr, _, ok := calib.rates(st.src, s.MonitorID); ok {
				sumTPR += tpr
			}
		}
		for _, k := range st.keys {
			for _, reg := range mons[k].registrations() {
				if signaledMon[k][reg.MonitorID] {
					continue
				}
				if _, tnr, ok := calib.rates(st.src, reg.MonitorID); ok {
					sumTNR += tnr
				}
			}
		}
		p := 1.0
		if sumTPR+sumTNR > 0 {
			p = sumTPR / (sumTPR + sumTNR)
		}
		for _, k := range st.keys {
			if remaining <= 0 {
				break
			}
			if chosenSet[k] {
				continue
			}
			if rng.Float64() <= p {
				chosen = append(chosen, PlanItem{
					Key:        k,
					Calibrated: true,
					VPTPR:      st.sumTPR,
					Sig:        bestSignal(active[k]),
				})
				chosenSet[k] = true
				remaining--
			}
		}
	}

	// Step 5: bootstrap ordering over remaining signals (Table 1).
	if remaining > 0 {
		var rest []Signal
		for _, k := range keys {
			if !chosenSet[k] {
				rest = append(rest, active[k]...)
			}
		}
		sort.SliceStable(rest, func(i, j int) bool { return table1Less(rest[i], rest[j]) })
		for _, s := range rest {
			if remaining <= 0 {
				break
			}
			if chosenSet[s.Key] {
				continue
			}
			// The sorted scan reaches each key first via its best signal,
			// so s is exactly the pair's representative.
			chosen = append(chosen, PlanItem{Key: s.Key, Sig: s})
			chosenSet[s.Key] = true
			remaining--
		}
	}
	return chosen
}

func sortedKeySet(m map[traceroute.Key]bool) []traceroute.Key {
	out := make([]traceroute.Key, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// PlanLess reports whether a outranks b in the §4.3.1 order
// RefreshPlanDetailed emits: calibrated picks first (VP summed TPR
// descending, then key), then Table 1's bootstrap order over the
// representative signals. Merging per-partition plans with it reproduces a
// single engine's order whenever the per-VP TPR sums do (always, in the
// refresh-free regime where no VP is calibrated).
func PlanLess(a, b PlanItem) bool {
	if a.Calibrated != b.Calibrated {
		return a.Calibrated
	}
	if !a.Calibrated {
		return table1Less(a.Sig, b.Sig)
	}
	if a.VPTPR != b.VPTPR {
		return a.VPTPR > b.VPTPR
	}
	if a.Key.Src != b.Key.Src {
		return a.Key.Src < b.Key.Src
	}
	return a.Key.Dst < b.Key.Dst
}

// table1Less orders signals by the paper's Table 1 priority attributes:
// IP-level overlap, AS-level overlap, VP in same AS and city, same AS,
// same city, AS-level change kind, then border/IXP change; ties break on
// VP count for BGP signals and detector score for traceroute signals.
func table1Less(a, b Signal) bool {
	if a.IPOverlap != b.IPOverlap {
		return a.IPOverlap > b.IPOverlap
	}
	if a.ASOverlap != b.ASOverlap {
		return a.ASOverlap > b.ASOverlap
	}
	aBoth, bBoth := a.SameASVP && a.SameCityVP, b.SameASVP && b.SameCityVP
	if aBoth != bBoth {
		return aBoth
	}
	if a.SameASVP != b.SameASVP {
		return a.SameASVP
	}
	if a.SameCityVP != b.SameCityVP {
		return a.SameCityVP
	}
	aAS, bAS := a.Technique == TechBGPASPath, b.Technique == TechBGPASPath
	if aAS != bAS {
		return aAS
	}
	if a.Technique.IsBGP() != b.Technique.IsBGP() {
		// Tie-breaker domain: BGP signals by VP count, traceroute signals
		// by z-score; across domains prefer more VPs then higher score.
		if a.VPCount != b.VPCount {
			return a.VPCount > b.VPCount
		}
		return a.Score > b.Score
	}
	if a.Technique.IsBGP() {
		if a.VPCount != b.VPCount {
			return a.VPCount > b.VPCount
		}
	} else if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Key.Src != b.Key.Src {
		return a.Key.Src < b.Key.Src
	}
	return a.Key.Dst < b.Key.Dst
}
