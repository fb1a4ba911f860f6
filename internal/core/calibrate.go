package core

import (
	"math/rand"
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

// PrunedCommunities lists the pruned community values in ascending order,
// so a cluster merge can de-duplicate prune decisions that independent
// workers reached about the same community.
func (c *Calibrator) PrunedCommunities() []bgp.Community {
	out := make([]bgp.Community, 0, len(c.commPruned))
	for comm := range c.commPruned {
		out = append(out, comm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
	// measurement is a wildcard, not a change.
	newByPair := make(map[[2]bgp.ASN]map[string]bool, len(new.Borders))
	for _, b := range new.Borders {
		pair := [2]bgp.ASN{b.FromAS, b.ToAS}
		if newByPair[pair] == nil {
			newByPair[pair] = make(map[string]bool)
		}
		newByPair[pair][b.Key()] = true
	}
	for _, bi := range borders {
		if bi >= len(old.Borders) {
			continue
		}
		b := old.Borders[bi]
		keys, visible := newByPair[[2]bgp.ASN{b.FromAS, b.ToAS}]
		if !visible {
			continue
		}
		if !keys[b.Key()] {
			return true
		}
	}
	return false
}

// evaluateRefresh is Engine.EvaluateRefresh under the engine lock.
func (s *pairState) evaluateRefresh(newEntry *corpus.Entry) (bordermap.ChangeClass, bool) {
	old, ok := s.entries[newEntry.Key]
	if !ok {
		return bordermap.Unchanged, false
	}
	signaled := make(map[int][]Signal)
	for _, sig := range s.active[newEntry.Key] {
		signaled[sig.MonitorID] = append(signaled[sig.MonitorID], sig)
	}
	for _, reg := range s.regs[newEntry.Key] {
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
		s.eng.Calib.Record(newEntry.Key.Src, reg.MonitorID, o)
		if reg.Technique == TechBGPCommunity && wasSignaled {
			for _, sig := range sigs {
				if sig.Comm != 0 {
					s.eng.Calib.recordCommunityOutcome(sig.Comm, changed)
				}
			}
		}
	}
	return corpus.ClassifyEntry(old, newEntry), true
}

// removePair unregisters a corpus pair from every technique, stashing its
// detector state for a later re-registration: each of its §4.1 monitors
// leaves its series with the detector as of the last close (see
// leaveBurst).
func (s *pairState) removePair(k traceroute.Key) {
	delete(s.entries, k)
	delete(s.regs, k)
	delete(s.active, k)
	delete(s.restored, k)

	sh := s.eng.sh
	stash := make(map[string]*retiredState)
	for _, m := range s.aspByKey[k] {
		stash["asp:"+m.series.suffix.String()] = sh.leaveASP(m)
	}
	delete(s.aspByKey, k)
	for _, bm := range s.burstByKey[k] {
		stash["burst:"+bm.suffix.String()] = sh.leaveBurst(bm)
	}
	delete(s.burstByKey, k)
	if len(stash) > 0 {
		s.retired[k] = stash
	}

	if cm := s.comms[k]; cm != nil {
		sh.leaveComm(cm)
	}
	delete(s.comms, k)

	for _, mon := range s.subByKey[k] {
		ws := mon.watchers[:0]
		for _, w := range mon.watchers {
			if w.key != k {
				ws = append(ws, w)
			}
		}
		mon.watchers = ws
	}
	delete(s.subByKey, k)

	for _, rs := range s.brsByKey[k] {
		ws := rs.watchers[:0]
		for _, w := range rs.watchers {
			if w.key != k {
				ws = append(ws, w)
			}
		}
		rs.watchers = ws
	}
	delete(s.brsByKey, k)
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
// reads: the engine passes its own active and registration maps. Its outcome
// depends only on the map contents, not iteration order: every candidate
// list is sorted before budget is spent, and every rate sum runs in key
// order (floating-point addition is not associative, so a sum in map order
// could reorder two VPs whose relative TPRs tie).
func refreshPlan(active map[traceroute.Key][]Signal, regs map[traceroute.Key][]Registration,
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
			for _, reg := range regs[k] {
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
