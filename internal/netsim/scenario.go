package netsim

import (
	"math/rand"
	"sort"

	"rrr/internal/bgp"
	"rrr/internal/events"
	"rrr/internal/traceroute"
	"rrr/internal/trie"
)

// ScenarioPack selects which adversarial episode kinds a Scenario injects
// on top of the simulator's benign dynamics. Every kind is deterministic
// under the scenario seed and leaves the benign stream untouched: episodes
// only publish extra updates (and fabricate traces), never mutate routing
// or consume the simulator's RNG, so a run with a pack enabled carries the
// exact benign substream of the same run without it.
type ScenarioPack struct {
	HijackOrigin    bool // full origin replacement across all VPs
	HijackMOAS      bool // partial-visibility foreign origin
	HijackSubprefix bool // foreign more-specific under a victim block
	RouteLeaks      bool // provider→stub→provider leaks (incl. a self-healing one)
	Blackholes      bool // RFC7999 65535:666 announcements
	Artifacts       bool // traceroute loops, cycles, diamonds
	Diurnal         bool // same-slot daily churn recurrence
	Anycast         bool // benign stable-MOAS look-alike baseline

	// Episodes per enabled BGP kind (2 if zero).
	Episodes int
}

// FullPack enables every scenario kind.
func FullPack() ScenarioPack {
	return ScenarioPack{
		HijackOrigin: true, HijackMOAS: true, HijackSubprefix: true,
		RouteLeaks: true, Blackholes: true, Artifacts: true,
		Diurnal: true, Anycast: true,
	}
}

// Enabled reports whether the pack injects anything at all.
func (p ScenarioPack) Enabled() bool {
	return p.HijackOrigin || p.HijackMOAS || p.HijackSubprefix ||
		p.RouteLeaks || p.Blackholes || p.Artifacts || p.Diurnal || p.Anycast
}

// action is one scheduled control-plane emission.
type action struct {
	at  int64
	seq int // construction order, ties broken deterministically
	run func(at int64)
}

// artifactSpec is one fabricated-traceroute injection scheduled for a
// window. truthIdx links back to its ground-truth label so an injection
// the data plane refuses (destination unreachable, trace too short to
// carry the artifact) retracts its label instead of scoring a phantom
// false negative.
type artifactSpec struct {
	class    events.Class
	src, dst uint32
	truthIdx int
}

// Scenario drives a pack against a Sim: it owns the episode schedule, the
// ground-truth labels, and the forged emissions. Construction is the only
// phase that draws on the scenario RNG, so emission stays deterministic
// regardless of how callers interleave Advance with Sim.Step.
type Scenario struct {
	sim       *Sim
	pack      ScenarioPack
	windowSec int64
	duration  int64

	actions   []action
	artifacts map[int64][]artifactSpec
	truths    []events.Truth
	// retracted marks truth indices whose injection never materialized
	// (set during WindowTraces); Truths skips them.
	retracted map[int]bool

	// anycast secondary-origin routes injected into the priming dump.
	anycast []anycastSpec

	cursor int // stub-AS allocation cursor
}

type anycastSpec struct {
	prefix trie.Prefix
	origin bgp.ASN // secondary (anycast) origin
	vps    []VP    // subset announcing the secondary route
}

// NewScenario builds the episode schedule for a run of durationSec seconds
// with the given emission window. The scenario seed is independent of the
// simulator seed: two scenarios over the same sim with different seeds
// pick different victims but identical benign dynamics.
func NewScenario(s *Sim, pack ScenarioPack, seed, durationSec, windowSec int64) *Scenario {
	if pack.Episodes <= 0 {
		pack.Episodes = 2
	}
	if windowSec <= 0 {
		windowSec = 900
	}
	sc := &Scenario{
		sim:       s,
		pack:      pack,
		windowSec: windowSec,
		duration:  durationSec,
		artifacts: make(map[int64][]artifactSpec),
		retracted: make(map[int]bool),
	}
	rng := rand.New(rand.NewSource(seed))
	stubs := s.StubASes()
	if len(stubs) == 0 {
		return sc
	}
	// Shuffle the stub pool once so seed changes move every victim choice,
	// then hand out stubs via the cursor so kinds never collide.
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	sc.buildAnycast(stubs)
	sc.buildHijacks(stubs)
	sc.buildLeaks(stubs)
	sc.buildBlackholes(stubs)
	sc.buildArtifacts(stubs)
	sc.buildDiurnal(stubs)
	sort.SliceStable(sc.actions, func(i, j int) bool {
		if sc.actions[i].at != sc.actions[j].at {
			return sc.actions[i].at < sc.actions[j].at
		}
		return sc.actions[i].seq < sc.actions[j].seq
	})
	return sc
}

// alignWindow floors t to its window start.
func (sc *Scenario) alignWindow(t int64) int64 { return t - t%sc.windowSec }

// slotAt spreads episode emissions across the run: kind k, episode e lands
// mid-window, after the first day so baselines and calibration settle.
func (sc *Scenario) slotAt(k, e int) int64 {
	spacing := 4 * sc.windowSec
	if spacing < 3600 {
		spacing = 3600
	}
	const kinds = 8
	t := 86400 + int64(e*kinds+k)*spacing + sc.windowSec/3
	if t >= sc.duration {
		return -1
	}
	return t
}

// nextStub hands out the next victim/attacker AS from the shuffled pool.
func (sc *Scenario) nextStub(stubs []bgp.ASN) bgp.ASN {
	as := stubs[sc.cursor%len(stubs)]
	sc.cursor++
	return as
}

// nextStubWhere scans the pool for a stub satisfying ok, falling back to
// plain allocation so construction never stalls.
func (sc *Scenario) nextStubWhere(stubs []bgp.ASN, ok func(bgp.ASN) bool) bgp.ASN {
	for range stubs {
		as := sc.nextStub(stubs)
		if ok(as) {
			return as
		}
	}
	return sc.nextStub(stubs)
}

// reachableFromAllVPs reports whether every vantage point currently routes
// to the AS — required for a full origin hijack to displace the baseline
// everywhere.
func (sc *Scenario) reachableFromAllVPs(as bgp.ASN) bool {
	for _, vp := range sc.sim.vps {
		if sc.sim.R.ASPath(vp.AS, as) == nil {
			return false
		}
	}
	return true
}

func (sc *Scenario) addAction(at int64, run func(int64)) {
	if at < 0 || at >= sc.duration {
		return
	}
	sc.actions = append(sc.actions, action{at: at, seq: len(sc.actions), run: run})
}

// vpSubset deterministically samples every stride-th vantage point, at
// most limit of them.
func (sc *Scenario) vpSubset(stride, phase, limit int) []VP {
	var out []VP
	for i := phase; i < len(sc.sim.vps); i += stride {
		out = append(out, sc.sim.vps[i])
		if len(out) >= limit {
			break
		}
	}
	return out
}

// forgeOrigin publishes prefix from each VP with the VP's real path to the
// attacker as the forged route (the classic origin-hijack propagation
// shape), returning how many VPs accepted it.
func (sc *Scenario) forgeOrigin(vps []VP, prefix trie.Prefix, attacker bgp.ASN, t int64) int {
	n := 0
	for _, vp := range vps {
		path := sc.sim.R.ASPath(vp.AS, attacker)
		if path == nil {
			continue
		}
		sc.sim.publish(bgp.Update{
			Time: t, PeerIP: vp.IP, PeerAS: vp.AS, Type: bgp.Announce,
			Prefix: prefix, ASPath: path.Clone(),
		})
		n++
	}
	return n
}

// healPrefix republishes each VP's current legitimate route for one prefix
// of the victim AS.
func (sc *Scenario) healPrefix(vps []VP, prefix trie.Prefix, victim bgp.ASN, t int64) {
	for _, vp := range vps {
		path, comms, med, ok := sc.sim.R.routeAttrs(vp.AS, victim)
		if !ok {
			continue
		}
		sc.sim.publish(bgp.Update{
			Time: t, PeerIP: vp.IP, PeerAS: vp.AS, Type: bgp.Announce,
			Prefix: prefix, ASPath: path.Clone(), Communities: comms.Clone(), MED: med,
		})
	}
}

func (sc *Scenario) buildAnycast(stubs []bgp.ASN) {
	if !sc.pack.Anycast {
		return
	}
	for i := 0; i < 2; i++ {
		victim := sc.nextStub(stubs)
		second := sc.nextStubWhere(stubs, func(as bgp.ASN) bool { return as != victim })
		prefix := sc.sim.T.ASes[victim].Prefixes[0]
		spec := anycastSpec{prefix: prefix, origin: second, vps: sc.vpSubset(3, i, 8)}
		sc.anycast = append(sc.anycast, spec)
		// Stable anycast is baseline state, benign for the whole run; a
		// classifier flagging it as MOAS scores a false positive.
		sc.truths = append(sc.truths, events.Truth{
			Class: events.HijackMOAS, Start: 0, End: sc.duration,
			Prefix: prefix, AS: second, Benign: true,
			Detail: "stable anycast baseline",
		})
		// Mid-run the anycast routes refresh (periodic re-announcement);
		// still benign.
		sc.addAction(sc.slotAt(7, i), func(at int64) {
			for _, vp := range spec.vps {
				path := sc.sim.R.ASPath(vp.AS, spec.origin)
				if path == nil {
					continue
				}
				sc.sim.publish(bgp.Update{
					Time: at, PeerIP: vp.IP, PeerAS: vp.AS, Type: bgp.Announce,
					Prefix: spec.prefix, ASPath: path.Clone(),
				})
			}
		})
	}
}

// AugmentDump appends the anycast secondary-origin routes to a priming
// table dump, teaching both the staleness monitor and the event detector
// the legitimate multi-origin baseline.
func (sc *Scenario) AugmentDump(dump []bgp.Update) []bgp.Update {
	if len(sc.anycast) == 0 {
		return dump
	}
	var t int64
	if len(dump) > 0 {
		t = dump[0].Time
	}
	out := dump
	for _, spec := range sc.anycast {
		for _, vp := range spec.vps {
			path := sc.sim.R.ASPath(vp.AS, spec.origin)
			if path == nil {
				continue
			}
			out = append(out, bgp.Update{
				Time: t, PeerIP: vp.IP, PeerAS: vp.AS, Type: bgp.Announce,
				Prefix: spec.prefix, ASPath: path.Clone(),
			})
		}
	}
	return out
}

func (sc *Scenario) buildHijacks(stubs []bgp.ASN) {
	for e := 0; e < sc.pack.Episodes; e++ {
		if sc.pack.HijackOrigin {
			victim := sc.nextStubWhere(stubs, sc.reachableFromAllVPs)
			attacker := sc.nextStubWhere(stubs, func(as bgp.ASN) bool {
				return as != victim && sc.reachableFromAllVPs(as)
			})
			prefix := sc.sim.T.ASes[victim].Prefixes[0]
			t := sc.slotAt(0, e)
			hold := 2 * sc.windowSec
			if t >= 0 {
				sc.truths = append(sc.truths, events.Truth{
					Class: events.HijackOrigin, Start: t, End: t + hold,
					Prefix: prefix, AS: attacker,
				})
				all := sc.sim.VPs()
				sc.addAction(t, func(at int64) { sc.forgeOrigin(all, prefix, attacker, at) })
				sc.addAction(t+hold, func(at int64) { sc.healPrefix(all, prefix, victim, at) })
			}
		}
		if sc.pack.HijackMOAS {
			victim := sc.nextStub(stubs)
			attacker := sc.nextStubWhere(stubs, func(as bgp.ASN) bool { return as != victim })
			prefix := sc.sim.T.ASes[victim].Prefixes[0]
			t := sc.slotAt(1, e)
			hold := 2 * sc.windowSec
			if t >= 0 {
				sc.truths = append(sc.truths, events.Truth{
					Class: events.HijackMOAS, Start: t, End: t + hold,
					Prefix: prefix, AS: attacker,
				})
				part := sc.vpSubset(3, e%3, 1+len(sc.sim.vps)/3)
				sc.addAction(t, func(at int64) { sc.forgeOrigin(part, prefix, attacker, at) })
				sc.addAction(t+hold, func(at int64) { sc.healPrefix(part, prefix, victim, at) })
			}
		}
		if sc.pack.HijackSubprefix {
			victim := sc.nextStub(stubs)
			attacker := sc.nextStubWhere(stubs, func(as bgp.ASN) bool { return as != victim })
			// A /18 at the victim block base: strictly more specific than
			// the /16 baseline and disjoint from the optional upper-half
			// /17, so it is never a baseline prefix itself.
			sub := trie.MakePrefix(sc.sim.T.ASes[victim].Block.Addr, 18)
			t := sc.slotAt(2, e)
			hold := 2 * sc.windowSec
			if t >= 0 {
				sc.truths = append(sc.truths, events.Truth{
					Class: events.HijackSubprefix, Start: t, End: t + hold,
					Prefix: sub, AS: attacker,
				})
				part := sc.vpSubset(2, e%2, 1+len(sc.sim.vps)/2)
				sc.addAction(t, func(at int64) { sc.forgeOrigin(part, sub, attacker, at) })
				sc.addAction(t+hold, func(at int64) {
					for _, vp := range part {
						sc.sim.publish(bgp.Update{
							Time: at, PeerIP: vp.IP, PeerAS: vp.AS,
							Type: bgp.Withdraw, Prefix: sub,
						})
					}
				})
			}
		}
	}
}

// leakPath composes the forged leak route: the VP's real path to the first
// provider, the leaking stub, then the second provider's real path onward
// to the destination. Compositions that revisit an AS are discarded.
func (sc *Scenario) leakPath(vpAS, prov1, leaker, prov2, dest bgp.ASN) bgp.Path {
	head := sc.sim.R.ASPath(vpAS, prov1)
	tail := sc.sim.R.ASPath(prov2, dest)
	if head == nil || tail == nil {
		return nil
	}
	p := head.Clone()
	p = append(p, leaker)
	p = append(p, tail...)
	if p.HasLoop() {
		return nil
	}
	return p
}

func (sc *Scenario) buildLeaks(stubs []bgp.ASN) {
	if !sc.pack.RouteLeaks {
		return
	}
	providersOf := func(as bgp.ASN) []bgp.ASN {
		a := sc.sim.T.ASes[as]
		var out []bgp.ASN
		for nb, rel := range a.Rel {
			if rel == RelCustomer { // as is nb's customer
				out = append(out, nb)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	// One extra episode: the last one self-heals inside its window and is
	// labeled benign — the classifier must stay silent on it.
	for e := 0; e <= sc.pack.Episodes; e++ {
		selfHeal := e == sc.pack.Episodes
		leaker := sc.nextStubWhere(stubs, func(as bgp.ASN) bool {
			return len(providersOf(as)) >= 2
		})
		provs := providersOf(leaker)
		if len(provs) < 2 {
			continue
		}
		prov1, prov2 := provs[0], provs[1]
		dest := sc.nextStubWhere(stubs, func(as bgp.ASN) bool {
			return as != leaker && sc.sim.R.ASPath(prov2, as) != nil
		})
		prefix := sc.sim.T.ASes[dest].Prefixes[0]
		t := sc.slotAt(3, e)
		if t < 0 {
			continue
		}
		var hold int64
		if selfHeal {
			// Announce just past a window boundary, retract well before the
			// close: the leak is never the current route at any close.
			t = sc.alignWindow(t) + sc.windowSec/4
			hold = sc.windowSec / 4
		} else {
			hold = sc.windowSec + sc.windowSec/2
		}
		vps := sc.vpSubset(2, e%2, 1+len(sc.sim.vps)/2)
		sc.truths = append(sc.truths, events.Truth{
			Class: events.RouteLeak, Start: t, End: t + hold,
			Prefix: prefix, AS: leaker, Benign: selfHeal,
			Detail: "provider-stub-provider leak",
		})
		sc.addAction(t, func(at int64) {
			for _, vp := range vps {
				p := sc.leakPath(vp.AS, prov1, leaker, prov2, dest)
				if p == nil {
					continue
				}
				sc.sim.publish(bgp.Update{
					Time: at, PeerIP: vp.IP, PeerAS: vp.AS, Type: bgp.Announce,
					Prefix: prefix, ASPath: p,
				})
			}
		})
		sc.addAction(t+hold, func(at int64) { sc.healPrefix(vps, prefix, dest, at) })
	}
}

func (sc *Scenario) buildBlackholes(stubs []bgp.ASN) {
	if !sc.pack.Blackholes {
		return
	}
	for e := 0; e < sc.pack.Episodes; e++ {
		victim := sc.nextStub(stubs)
		prefix := sc.sim.T.ASes[victim].Prefixes[0]
		t := sc.slotAt(4, e)
		if t < 0 {
			continue
		}
		hold := sc.windowSec
		vps := sc.vpSubset(2, e%2, 6)
		sc.truths = append(sc.truths, events.Truth{
			Class: events.Blackhole, Start: t, End: t + hold,
			Prefix: prefix, AS: victim,
			Detail: "RFC7999 blackhole",
		})
		sc.addAction(t, func(at int64) {
			for _, vp := range vps {
				path, comms, med, ok := sc.sim.R.routeAttrs(vp.AS, victim)
				if !ok {
					continue
				}
				cs := comms.Clone()
				cs = append(cs, events.BlackholeCommunity)
				sc.sim.publish(bgp.Update{
					Time: at, PeerIP: vp.IP, PeerAS: vp.AS, Type: bgp.Announce,
					Prefix: prefix, ASPath: path.Clone(), Communities: cs, MED: med,
				})
			}
		})
		sc.addAction(t+hold, func(at int64) { sc.healPrefix(vps, prefix, victim, at) })
	}
}

func (sc *Scenario) buildArtifacts(stubs []bgp.ASN) {
	if !sc.pack.Artifacts {
		return
	}
	classes := []events.Class{events.TraceLoop, events.TraceCycle, events.TraceDiamond}
	for e := 0; e < sc.pack.Episodes; e++ {
		for ci, cls := range classes {
			srcAS := sc.nextStub(stubs)
			dstAS := sc.nextStubWhere(stubs, func(as bgp.ASN) bool { return as != srcAS })
			src := sc.sim.T.HostIP(srcAS, 40+e*len(classes)+ci)
			dst := sc.sim.T.HostIP(dstAS, 80+e*len(classes)+ci)
			t := sc.slotAt(5, e*len(classes)+ci)
			if t < 0 {
				continue
			}
			ws := sc.alignWindow(t)
			sc.artifacts[ws] = append(sc.artifacts[ws], artifactSpec{class: cls, src: src, dst: dst, truthIdx: len(sc.truths)})
			sc.truths = append(sc.truths, events.Truth{
				Class: cls, Start: ws, End: ws + sc.windowSec,
				Key:    traceroute.Key{Src: src, Dst: dst},
				Detail: "fabricated per-flow artifact",
			})
		}
	}
}

func (sc *Scenario) buildDiurnal(stubs []bgp.ASN) {
	if !sc.pack.Diurnal {
		return
	}
	victim := sc.nextStub(stubs)
	prefix := sc.sim.T.ASes[victim].Prefixes[0]
	offset := int64(43200) + sc.windowSec/3 // midday, mid-window
	vps := sc.vpSubset(4, 0, 4)
	days := 0
	for day := int64(0); day*86400+offset < sc.duration; day++ {
		sc.addAction(day*86400+offset, func(at int64) {
			sc.healPrefix(vps, prefix, victim, at)
		})
		days++
	}
	if days >= 3 {
		// Detectable from the third consecutive day's slot onward.
		sc.truths = append(sc.truths, events.Truth{
			Class: events.Diurnal, Start: 2*86400 + offset, End: sc.duration,
			Prefix: prefix,
			Detail: "daily re-announcement flap",
		})
	}
}

// Advance publishes every scheduled emission with from <= t < to through
// the simulator's subscriber hook. Callers interleave it with Sim.Step and
// merge the captured updates in time order (scenario emissions carry exact
// timestamps but are published grouped, after the step's benign updates).
func (sc *Scenario) Advance(from, to int64) {
	for _, a := range sc.actions {
		if a.at >= from && a.at < to {
			a.run(a.at)
		}
	}
}

// WindowTraces fabricates the artifact traceroutes scheduled for the
// window starting at ws: a forwarding loop (adjacent repeat), a routing
// cycle (non-adjacent repeat), or a per-flow diamond (two divergent
// same-pair traces). Returned traces are derived from the simulator's real
// data plane at mid-window and are deterministic.
func (sc *Scenario) WindowTraces(probeBase int, ws int64) []*traceroute.Traceroute {
	specs := sc.artifacts[ws]
	if len(specs) == 0 {
		return nil
	}
	var out []*traceroute.Traceroute
	for i, spec := range specs {
		when := ws + sc.windowSec/2 + int64(i)
		base := sc.sim.Traceroute(probeBase+i, spec.src, spec.dst, when)
		n := len(out)
		switch spec.class {
		case events.TraceLoop:
			if tr := insertRepeat(base, 1); tr != nil {
				out = append(out, tr)
			}
		case events.TraceCycle:
			if tr := insertRepeat(base, 2); tr != nil {
				out = append(out, tr)
			}
		case events.TraceDiamond:
			a, b := diamondPair(base)
			if a != nil && b != nil {
				out = append(out, a, b)
			}
		}
		if len(out) == n {
			// The data plane at `when` could not carry this artifact (the
			// destination went unreachable, say): nothing was injected, so
			// the label must not demand a detection.
			sc.retracted[spec.truthIdx] = true
		}
	}
	return out
}

// insertRepeat clones tr with a copy of a responsive mid hop reinserted
// gap hops later: gap 1 yields an adjacent repeat (loop), gap 2 a
// non-adjacent one (cycle). Returns nil when the trace is too short.
func insertRepeat(tr *traceroute.Traceroute, gap int) *traceroute.Traceroute {
	if tr == nil {
		return nil
	}
	idx := -1
	for i := 1; i+gap < len(tr.Hops); i++ {
		if tr.Hops[i].Responsive() {
			ok := true
			for j := i + 1; j <= i+gap && ok; j++ {
				if tr.Hops[j].IP == tr.Hops[i].IP {
					ok = false
				}
			}
			if ok {
				idx = i
				break
			}
		}
	}
	if idx < 0 {
		return nil
	}
	cl := tr.Clone()
	at := idx + gap
	dup := cl.Hops[idx]
	dup.TTL = cl.Hops[at-1].TTL + 1
	cl.Hops = append(cl.Hops[:at], append([]traceroute.Hop{dup}, cl.Hops[at:]...)...)
	for i := at + 1; i < len(cl.Hops); i++ {
		cl.Hops[i].TTL++
	}
	return cl
}

// diamondPair clones tr twice with two adjacent responsive mid hops
// swapped in the second copy, producing divergent same-pair hop sequences
// with no repeated addresses.
func diamondPair(tr *traceroute.Traceroute) (*traceroute.Traceroute, *traceroute.Traceroute) {
	if tr == nil {
		return nil, nil
	}
	for i := 1; i+2 < len(tr.Hops); i++ {
		a, b := tr.Hops[i], tr.Hops[i+1]
		if a.Responsive() && b.Responsive() && a.IP != b.IP {
			first := tr.Clone()
			second := tr.Clone()
			second.Hops[i], second.Hops[i+1] = second.Hops[i+1], second.Hops[i]
			second.Hops[i].TTL, second.Hops[i+1].TTL = first.Hops[i].TTL, first.Hops[i+1].TTL
			second.Time++
			return first, second
		}
	}
	return nil, nil
}

// Truths returns the ground-truth labels for every scheduled episode,
// including benign look-alikes, in construction order. Artifact labels
// whose injection was retracted at emission time (WindowTraces found the
// data plane unable to carry them) are omitted, so call Truths after the
// run for exact labels; before the run it returns the full schedule.
func (sc *Scenario) Truths() []events.Truth {
	out := make([]events.Truth, 0, len(sc.truths))
	for i, t := range sc.truths {
		if sc.retracted[i] {
			continue
		}
		out = append(out, t)
	}
	return out
}
