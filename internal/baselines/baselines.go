// Package baselines implements the comparison approaches of §5.3 and the
// trace-driven emulation used to produce Fig 8: round-robin remeasurement,
// Sibyl's corpus patching, DTRACK's prediction-driven probing, staleness
// signals, the optimal-signal bound, and the DTRACK+SIGNALS integration of
// §6.1. All approaches are emulated against a pseudo-ground-truth oracle of
// densely measured path timelines, deciding what to measure under a packet
// budget.
package baselines

import (
	"hash/fnv"
	"sort"

	"rrr/internal/traceroute"
)

// PathObservation is one densely-sampled ground-truth state of a path.
type PathObservation struct {
	Time int64
	// PathID identifies the border-level path; equal IDs mean unchanged.
	PathID int
	// Borders are the border-crossing keys of the path, for Sibyl's
	// subpath patching.
	Borders []string
}

// Timeline is a pair's pseudo-ground-truth history, observations in
// ascending time order.
type Timeline struct {
	Key traceroute.Key
	Obs []PathObservation
}

// at returns the latest observation at or before t (the first observation
// for earlier times).
func (tl *Timeline) at(t int64) PathObservation {
	idx := sort.Search(len(tl.Obs), func(i int) bool { return tl.Obs[i].Time > t })
	if idx == 0 {
		return tl.Obs[0]
	}
	return tl.Obs[idx-1]
}

// change is one ground-truth path change.
type change struct {
	Key  traceroute.Key
	Time int64
	From PathObservation
	To   PathObservation
}

// changes lists the timeline's transitions.
func (tl *Timeline) changes() []change {
	var out []change
	for i := 1; i < len(tl.Obs); i++ {
		if tl.Obs[i].PathID != tl.Obs[i-1].PathID {
			out = append(out, change{
				Key: tl.Key, Time: tl.Obs[i].Time,
				From: tl.Obs[i-1], To: tl.Obs[i],
			})
		}
	}
	return out
}

// Oracle is the pseudo-ground-truth corpus (§5.3's high-rate DTRACK
// dataset).
type Oracle struct {
	Timelines map[traceroute.Key]*Timeline
	keys      []traceroute.Key
}

// NewOracle indexes the timelines.
func NewOracle(tls []*Timeline) *Oracle {
	o := &Oracle{Timelines: make(map[traceroute.Key]*Timeline, len(tls))}
	for _, tl := range tls {
		o.Timelines[tl.Key] = tl
		o.keys = append(o.keys, tl.Key)
	}
	sort.Slice(o.keys, func(i, j int) bool {
		if o.keys[i].Src != o.keys[j].Src {
			return o.keys[i].Src < o.keys[j].Src
		}
		return o.keys[i].Dst < o.keys[j].Dst
	})
	return o
}

// Keys returns the monitored pairs in deterministic order.
func (o *Oracle) Keys() []traceroute.Key { return o.keys }

// TotalChanges counts all ground-truth changes in [start, end).
func (o *Oracle) TotalChanges(start, end int64) int {
	n := 0
	for _, tl := range o.Timelines {
		for _, c := range tl.changes() {
			if c.Time >= start && c.Time < end {
				n++
			}
		}
	}
	return n
}

// TraceroutePackets is the emulated packet cost of one full traceroute
// (roughly one probe per hop).
const TraceroutePackets = 16

// View is the per-strategy mutable emulation state the harness maintains:
// the last path each strategy has seen per pair, plus cheap detection-probe
// access for DTRACK.
type View struct {
	oracle   *Oracle
	lastSeen map[traceroute.Key]PathObservation
	lastTime map[traceroute.Key]int64
	seed     int64
	// PacketsSpent tallies emulated probe packets.
	PacketsSpent float64
}

// newView initializes strategy state at the emulation start: every pair's
// initial measurement is known (the corpus exists at t0).
func newView(o *Oracle, start int64, seed int64) *View {
	v := &View{
		oracle:   o,
		lastSeen: make(map[traceroute.Key]PathObservation, len(o.keys)),
		lastTime: make(map[traceroute.Key]int64, len(o.keys)),
		seed:     seed,
	}
	for _, k := range o.keys {
		v.lastSeen[k] = o.Timelines[k].at(start)
		v.lastTime[k] = start
	}
	return v
}

// probeChanged emulates one DTRACK detection probe (one packet): it probes
// a single varying hop and notices a change only if that hop differs. A
// border-level change touches a small share of a path's hops, so a single
// probe detects it with probability ~0.3; deterministic per (pair, time).
func (v *View) probeChanged(k traceroute.Key, now int64) bool {
	return v.probeChangedSalted(k, now, 0)
}

func (v *View) probeChangedSalted(k traceroute.Key, now, salt int64) bool {
	v.PacketsSpent++
	cur := v.oracle.Timelines[k].at(now)
	if cur.PathID == v.lastSeen[k].PathID {
		return false
	}
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(now+int64(k.Src)*3+int64(k.Dst)*7+v.seed+salt*131) >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()%10 < 3
}

// Measure emulates a full traceroute at time now, updating the view and
// returning the previous and current observations.
func (v *View) Measure(k traceroute.Key, now int64) (prev, cur PathObservation) {
	v.PacketsSpent += TraceroutePackets
	prev = v.lastSeen[k]
	cur = v.oracle.Timelines[k].at(now)
	v.lastSeen[k] = cur
	v.lastTime[k] = now
	return prev, cur
}

// Strategy decides what to measure each emulation step.
type Strategy interface {
	Name() string
	// Step runs one emulation step ending at `now` with `packets` of probe
	// budget, returning the pairs it chose to traceroute. The harness
	// performs the measurements.
	Step(now int64, packets float64, v *View) []traceroute.Key
}

// Result summarizes one emulated run.
type Result struct {
	Strategy string
	// Detected is the number of ground-truth changes credited.
	Detected int
	// Total is the number of ground-truth changes in the run.
	Total int
	// Measurements is the number of full traceroutes issued.
	Measurements int
}

// Fraction is Detected/Total.
func (r Result) Fraction() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Total)
}

// Evaluate runs a strategy from start to end with the given step duration
// and an average per-path probing rate in packets per second (Fig 8's
// x-axis).
func Evaluate(o *Oracle, s Strategy, start, end, step int64, ppsPerPath float64) Result {
	v := newView(o, start, 1)
	res := Result{Strategy: s.Name(), Total: o.TotalChanges(start, end)}
	detected := make(map[traceroute.Key]map[int64]bool)
	credit := func(k traceroute.Key, t int64) {
		// Total counts changes in [start, end); the last step measures at
		// end itself, so a change exactly at end is outside the run.
		if t < start || t >= end {
			return
		}
		if detected[k] == nil {
			detected[k] = make(map[int64]bool)
		}
		if !detected[k][t] {
			detected[k][t] = true
			res.Detected++
		}
	}
	for now := start + step; now <= end; now += step {
		packets := ppsPerPath * float64(len(o.Keys())) * float64(step)
		keys := s.Step(now, packets, v)
		for _, k := range keys {
			lastT := v.lastTime[k]
			prev, cur := v.Measure(k, now)
			res.Measurements++
			if prev.PathID == cur.PathID {
				continue
			}
			// Credit the latest change in (lastT, now]; earlier overwritten
			// changes are missed, as in the paper's emulation.
			tl := o.Timelines[k]
			chs := tl.changes()
			for i := len(chs) - 1; i >= 0; i-- {
				if chs[i].Time > lastT && chs[i].Time <= now {
					credit(k, chs[i].Time)
					break
				}
			}
			if p, ok := s.(patcher); ok {
				for _, pk := range p.Patch(k, prev, cur, now, v) {
					credit(pk.key, pk.changeTime)
				}
			}
		}
	}
	return res
}

// patcher is implemented by Sibyl to propagate detected changes.
type patcher interface {
	Patch(k traceroute.Key, prev, cur PathObservation, now int64, v *View) []patchCredit
}

type patchCredit struct {
	key        traceroute.Key
	changeTime int64
}

// --- Round-robin (Ark/Atlas style) ---

// RoundRobin cycles through all pairs at whatever rate the budget allows.
type RoundRobin struct {
	cursor int
	carry  float64
}

// Name implements Strategy.
func (r *RoundRobin) Name() string { return "round-robin" }

// Step implements Strategy.
func (r *RoundRobin) Step(now int64, packets float64, v *View) []traceroute.Key {
	keys := v.oracle.Keys()
	r.carry += packets
	n := int(r.carry / TraceroutePackets)
	if n > len(keys) {
		n = len(keys)
	}
	r.carry -= float64(n) * TraceroutePackets
	out := make([]traceroute.Key, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, keys[r.cursor%len(keys)])
		r.cursor++
	}
	return out
}

// --- Sibyl (round-robin + optimistic patching) ---

// Sibyl runs periodic traceroutes and patches other corpus traceroutes
// whose paths share the changed subpath (§5.3's optimistic emulation: a
// patch is applied only when correct and never penalized).
type Sibyl struct {
	rr RoundRobin
}

// Name implements Strategy.
func (s *Sibyl) Name() string { return "sibyl" }

// Step implements Strategy.
func (s *Sibyl) Step(now int64, packets float64, v *View) []traceroute.Key {
	return s.rr.Step(now, packets, v)
}

// Patch implements the patcher hook: pairs whose latest undetected change
// removed or added one of the same borders are patched (and credited).
func (s *Sibyl) Patch(k traceroute.Key, prev, cur PathObservation, now int64, v *View) []patchCredit {
	diff := borderDiff(prev.Borders, cur.Borders)
	if len(diff) == 0 {
		return nil
	}
	var out []patchCredit
	for _, ok := range v.oracle.Keys() {
		if ok == k {
			continue
		}
		seen := v.lastSeen[ok]
		truth := v.oracle.Timelines[ok].at(now)
		if truth.PathID == seen.PathID {
			continue
		}
		// The other pair changed; does its change involve the same
		// borders?
		odiff := borderDiff(seen.Borders, truth.Borders)
		if !intersects(diff, odiff) {
			continue
		}
		// Optimistic patch: adopt the truth without a measurement.
		lastT := v.lastTime[ok]
		v.lastSeen[ok] = truth
		v.lastTime[ok] = now
		chs := v.oracle.Timelines[ok].changes()
		for i := len(chs) - 1; i >= 0; i-- {
			if chs[i].Time > lastT && chs[i].Time <= now {
				out = append(out, patchCredit{key: ok, changeTime: chs[i].Time})
				break
			}
		}
	}
	return out
}

func borderDiff(a, b []string) map[string]bool {
	am := make(map[string]bool, len(a))
	for _, x := range a {
		am[x] = true
	}
	bm := make(map[string]bool, len(b))
	for _, x := range b {
		bm[x] = true
	}
	out := make(map[string]bool)
	for x := range am {
		if !bm[x] {
			out[x] = true
		}
	}
	for x := range bm {
		if !am[x] {
			out[x] = true
		}
	}
	return out
}

func intersects(a, b map[string]bool) bool {
	for x := range a {
		if b[x] {
			return true
		}
	}
	return false
}

// --- DTRACK ---

// DTrack allocates single-packet detection probes to paths proportionally
// to their estimated probability of having changed, remapping with a full
// traceroute when a probe detects a change (Cunha et al., and §5.3).
type DTrack struct {
	// rate estimates per pair: changes per second, exponentially smoothed.
	rates   map[traceroute.Key]float64
	changes map[traceroute.Key]int
	started int64
	init    bool
}

// NewDTrack returns an empty DTRACK emulator.
func NewDTrack() *DTrack {
	return &DTrack{rates: make(map[traceroute.Key]float64), changes: make(map[traceroute.Key]int)}
}

// Name implements Strategy.
func (d *DTrack) Name() string { return "dtrack" }

// Step implements Strategy: spend the budget on detection probes over the
// pairs most likely to have changed; full traceroutes only on detection.
func (d *DTrack) Step(now int64, packets float64, v *View) []traceroute.Key {
	keys := v.oracle.Keys()
	if !d.init {
		d.init = true
		d.started = now
	}
	type cand struct {
		k traceroute.Key
		p float64
	}
	cands := make([]cand, 0, len(keys))
	for _, k := range keys {
		elapsed := float64(now - v.lastTime[k])
		rate := d.rates[k]
		if rate == 0 {
			rate = 1.0 / (30 * 86400) // prior: one change a month
		}
		p := 1 - approxExp(-rate*elapsed)
		cands = append(cands, cand{k: k, p: p})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].p != cands[j].p {
			return cands[i].p > cands[j].p
		}
		if cands[i].k.Src != cands[j].k.Src {
			return cands[i].k.Src < cands[j].k.Src
		}
		return cands[i].k.Dst < cands[j].k.Dst
	})
	var remaps []traceroute.Key
	remapped := make(map[traceroute.Key]bool)
	budget := packets
	// DTRACK allocates its probing *rate* per path: with spare budget it
	// probes a path several times per interval, so each round below
	// revisits the candidates (each probe detects a live change with
	// probability ~0.3, independently).
	for round := 0; budget >= 1 && round < 8; round++ {
		progressed := false
		for ri, c := range cands {
			if budget < 1 {
				break
			}
			if remapped[c.k] {
				continue
			}
			budget--
			progressed = true
			if v.probeChangedSalted(c.k, now, int64(round*31+ri)) {
				if budget >= TraceroutePackets {
					budget -= TraceroutePackets
					remaps = append(remaps, c.k)
					remapped[c.k] = true
					d.noteChange(c.k, now)
				}
			}
		}
		if !progressed {
			break
		}
	}
	return remaps
}

func (d *DTrack) noteChange(k traceroute.Key, now int64) {
	d.changes[k]++
	obs := float64(now-d.started) + 86400
	d.rates[k] = float64(d.changes[k]) / obs
}

// approxExp is a cheap exp for small negative arguments.
func approxExp(x float64) float64 {
	// 4th-order Taylor is fine for x in [-5, 0]; clamp below.
	if x < -5 {
		return 0
	}
	sum, term := 1.0, 1.0
	for i := 1; i <= 6; i++ {
		term *= x / float64(i)
		sum += term
	}
	if sum < 0 {
		return 0
	}
	return sum
}

// --- Signals ---

// SignalFeed provides externally-computed staleness prediction signals per
// pair (from the core engine), as times when signals fired.
type SignalFeed map[traceroute.Key][]int64

// Signals remeasures pairs flagged since the previous step, in flag order,
// under the budget (§5.3's "signals" line).
type Signals struct {
	Feed SignalFeed
}

// Name implements Strategy.
func (s *Signals) Name() string { return "signals" }

// Step implements Strategy: remeasure pairs with a signal newer than their
// last measurement, so a persistent signal does not drain the budget on a
// pair that was already refreshed.
func (s *Signals) Step(now int64, packets float64, v *View) []traceroute.Key {
	budget := packets
	var out []traceroute.Key
	for _, k := range v.oracle.Keys() {
		if budget < TraceroutePackets {
			break
		}
		lastM := v.lastTime[k]
		for _, t := range s.Feed[k] {
			if t > lastM && t <= now {
				out = append(out, k)
				budget -= TraceroutePackets
				break
			}
		}
	}
	return out
}

// EvaluateSignalsMatched implements §5.3's signal emulation directly: each
// (pair, window) signal triggers one remap traceroute when budget allows;
// a signal matched to a ground-truth change within ±matchWindow (30
// minutes in the paper) detects it, an unmatched signal is a false
// positive that wastes the traceroute.
func EvaluateSignalsMatched(o *Oracle, feed SignalFeed, matchWindow, start, end, step int64, ppsPerPath float64) Result {
	res := Result{Strategy: "signals", Total: o.TotalChanges(start, end)}
	// Per-pair signal cursor and change list.
	changes := make(map[traceroute.Key][]change)
	for k, tl := range o.Timelines {
		changes[k] = tl.changes()
	}
	credited := make(map[traceroute.Key]map[int64]bool)
	cursor := make(map[traceroute.Key]int)
	var carry float64
	for now := start + step; now <= end; now += step {
		carry += ppsPerPath * float64(len(o.Keys())) * float64(step)
		for _, k := range o.Keys() {
			times := feed[k]
			i := cursor[k]
			fired := false
			for i < len(times) && times[i] <= now {
				if times[i] > now-step {
					fired = true
				}
				i++
			}
			cursor[k] = i
			if !fired || carry < TraceroutePackets {
				continue
			}
			carry -= TraceroutePackets
			res.Measurements++
			// Match the signal to a change within the tolerance window.
			sigT := now - step/2
			for _, c := range changes[k] {
				if c.Time < start || c.Time >= end {
					continue
				}
				if c.Time >= sigT-matchWindow-step && c.Time <= sigT+matchWindow+step {
					if credited[k] == nil {
						credited[k] = make(map[int64]bool)
					}
					if !credited[k][c.Time] {
						credited[k][c.Time] = true
						res.Detected++
					}
					break
				}
			}
		}
	}
	return res
}

// MatchOptimal computes the optimal-signals bound: every change within
// ±window of some signal counts as detected, ignoring false positives
// and budget (Fig 8's "optimal" line saturates at signal coverage).
func MatchOptimal(o *Oracle, feed SignalFeed, window int64, start, end int64) Result {
	res := Result{Strategy: "optimal-signals", Total: o.TotalChanges(start, end)}
	for k, tl := range o.Timelines {
		sigTimes := feed[k]
		for _, c := range tl.changes() {
			if c.Time < start || c.Time >= end {
				continue
			}
			for _, t := range sigTimes {
				if t >= c.Time-window && t <= c.Time+window {
					res.Detected++
					break
				}
			}
		}
	}
	return res
}

// --- DTRACK+SIGNALS (§6.1) ---

// DTrackSignals verifies each incoming signal with one detection probe and
// remaps on confirmation; leftover budget runs vanilla DTRACK detection.
type DTrackSignals struct {
	DT   *DTrack
	Sigs *Signals
}

// NewDTrackSignals combines the two.
func NewDTrackSignals(feed SignalFeed) *DTrackSignals {
	return &DTrackSignals{DT: NewDTrack(), Sigs: &Signals{Feed: feed}}
}

// Name implements Strategy.
func (ds *DTrackSignals) Name() string { return "dtrack+signals" }

// Step implements Strategy.
func (ds *DTrackSignals) Step(now int64, packets float64, v *View) []traceroute.Key {
	// Signal-flagged pairs get a one-packet verification probe first.
	flagged := ds.Sigs.Step(now, packets, v) // budget bounded inside
	var remaps []traceroute.Key
	budget := packets
	for _, k := range flagged {
		if budget < 1 {
			break
		}
		budget--
		if v.probeChanged(k, now) || v.probeChanged(k, now+1) {
			if budget >= TraceroutePackets {
				budget -= TraceroutePackets
				remaps = append(remaps, k)
				ds.DT.noteChange(k, now)
			}
		}
	}
	// Remaining budget: vanilla DTRACK.
	if budget > 0 {
		remaps = append(remaps, ds.DT.Step(now, budget, v)...)
	}
	return remaps
}
