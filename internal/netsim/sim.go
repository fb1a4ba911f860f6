package netsim

import (
	"math"
	"math/rand"
	"sort"

	"rrr/internal/bgp"
)

// VP is a BGP vantage point: a router in some AS peering with a collector.
type VP struct {
	AS bgp.ASN
	IP uint32
}

// Key returns the bgp.VPKey form.
func (v VP) Key() bgp.VPKey { return bgp.VPKey{PeerIP: v.IP, PeerAS: v.AS} }

// EventKind enumerates simulator events: the root causes of path change the
// paper's techniques must detect (or correctly ignore).
type EventKind int

// Event kinds.
const (
	// evLinkDown fails an inter-AS link; parallel-link pairs shift border
	// routers with unchanged AS paths (duplicate updates, §4.1.4);
	// single-link pairs change AS paths or lose reachability (§4.1.2).
	evLinkDown EventKind = iota
	// evLinkUp repairs a failed link.
	evLinkUp
	// evEgressShift rotates the active border link between two ASes
	// (hot-potato/TE change): border-level change, geo-community change
	// (§4.1.3), duplicate updates downstream, no AS-path change.
	evEgressShift
	// evTiebreakFlip changes an AS's preference among equal-preference
	// neighbors: AS-path changes without topology change.
	evTiebreakFlip
	// evIntraReroute perturbs an AS's IGP weights: intra-domain IP-level
	// changes that are *not* border changes, plus duplicate updates.
	evIntraReroute
	// evPolicyNoise rotates an AS's routing-policy community: community
	// churn unrelated to paths, which calibration must learn to ignore
	// (§4.1.3, Appendix B).
	evPolicyNoise
	// evIXPJoin adds an AS to an IXP with new public peering links
	// (§4.2.3).
	evIXPJoin
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case evLinkDown:
		return "link-down"
	case evLinkUp:
		return "link-up"
	case evEgressShift:
		return "egress-shift"
	case evTiebreakFlip:
		return "tiebreak-flip"
	case evIntraReroute:
		return "intra-reroute"
	case evPolicyNoise:
		return "policy-noise"
	case evIXPJoin:
		return "ixp-join"
	}
	return "unknown"
}

// Event is one injected or sampled routing event.
type Event struct {
	Kind EventKind
	Time int64
	Link LinkID  // evLinkDown / evLinkUp
	A, B bgp.ASN // evEgressShift pair
	AS   bgp.ASN // evTiebreakFlip / evIntraReroute / evPolicyNoise / evIXPJoin
	IXP  IXPID   // evIXPJoin
}

// Sim is the deterministic Internet simulator.
type Sim struct {
	Cfg Config
	T   *Topology
	R   *Routing

	rng *rand.Rand
	now int64

	vps  []VP
	subs []func(bgp.Update)

	// intraMul holds per-AS IGP weight perturbations.
	intraMul map[bgp.ASN]map[[2]int]float64

	repairs []Event // scheduled evLinkUp events

	// Events applied so far, for inspection by tests and experiments.
	Log []Event

	// attrCache snapshots (vp, dest) route attributes for diffing.
}

// New generates the topology and initializes routing.
func New(cfg Config) *Sim {
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Sim{
		Cfg:      cfg,
		rng:      rng,
		intraMul: make(map[bgp.ASN]map[[2]int]float64),
	}
	s.T = generate(cfg, rng)
	s.R = newRouting(s.T)
	s.pickVPs()
	s.pickInterdomainLB()
	return s
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() int64 { return s.now }

// OnUpdate registers a BGP update subscriber.
func (s *Sim) OnUpdate(fn func(bgp.Update)) { s.subs = append(s.subs, fn) }

func (s *Sim) publish(u bgp.Update) {
	for _, fn := range s.subs {
		fn(u)
	}
}

// VPs returns the collector vantage points.
func (s *Sim) VPs() []VP {
	out := make([]VP, len(s.vps))
	copy(out, s.vps)
	return out
}

// pickVPs selects the fraction of ASes that peer with collectors, skewed
// toward transit networks as in RouteViews/RIS.
func (s *Sim) pickVPs() {
	for _, asn := range s.T.ASList {
		a := s.T.ASes[asn]
		prob := s.Cfg.VPFraction
		switch a.Tier {
		case 1:
			prob = 1.0
		case 2:
			prob = math.Min(1, s.Cfg.VPFraction*2.5)
		default:
			prob = s.Cfg.VPFraction * 0.6
		}
		if s.rng.Float64() < prob {
			ip := s.T.allocIP(a)
			s.vps = append(s.vps, VP{AS: asn, IP: ip})
		}
	}
}

// pickInterdomainLB marks a fraction of multi-link AS pairs as balancing
// flows across their parallel border links (diamonds that cross borders).
func (s *Sim) pickInterdomainLB() {
	var multi []pairKey
	seen := make(map[pairKey]bool)
	for _, asn := range s.T.ASList {
		for nb, links := range s.T.ASes[asn].Neighbors {
			pk := mkPair(asn, nb)
			if !seen[pk] && len(links) >= 2 {
				seen[pk] = true
				multi = append(multi, pk)
			}
		}
	}
	sort.Slice(multi, func(i, j int) bool {
		if multi[i].lo != multi[j].lo {
			return multi[i].lo < multi[j].lo
		}
		return multi[i].hi < multi[j].hi
	})
	for _, pk := range multi {
		if s.rng.Float64() < s.Cfg.InterdomainLBFraction {
			s.R.lbPairs[pk] = true
		}
	}
}

// InterdomainLBPairs exposes the ground-truth diamond pairs (§5.4).
func (s *Sim) InterdomainLBPairs() [][2]bgp.ASN {
	var out [][2]bgp.ASN
	for pk := range s.R.lbPairs {
		out = append(out, [2]bgp.ASN{pk.lo, pk.hi})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// InitialUpdates produces a full-table dump from every VP at time t,
// mirroring collector RIB dumps used to initialize monitoring (§4.1.1).
func (s *Sim) InitialUpdates(t int64) []bgp.Update {
	var out []bgp.Update
	for _, vp := range s.vps {
		for _, d := range s.T.ASList {
			out = append(out, s.announcements(vp, d, t)...)
		}
	}
	return out
}

// announcements builds announce updates from vp for all prefixes of dest AS
// d under current routing; nil when vp has no route.
func (s *Sim) announcements(vp VP, d bgp.ASN, t int64) []bgp.Update {
	path, comms, med, ok := s.R.routeAttrs(vp.AS, d)
	if !ok {
		return nil
	}
	var out []bgp.Update
	for _, p := range s.T.ASes[d].Prefixes {
		out = append(out, bgp.Update{
			Time: t, PeerIP: vp.IP, PeerAS: vp.AS, Type: bgp.Announce,
			Prefix: p, ASPath: path.Clone(), Communities: comms.Clone(), MED: med,
		})
	}
	return out
}

func (s *Sim) withdrawals(vp VP, d bgp.ASN, t int64) []bgp.Update {
	var out []bgp.Update
	for _, p := range s.T.ASes[d].Prefixes {
		out = append(out, bgp.Update{
			Time: t, PeerIP: vp.IP, PeerAS: vp.AS, Type: bgp.Withdraw, Prefix: p,
		})
	}
	return out
}

// attrSnap is a snapshot of one VP's route to one destination.
type attrSnap struct {
	path  bgp.Path
	comms bgp.Communities
	ok    bool
}

func (s *Sim) snapshotAttrs() map[bgp.ASN]map[bgp.ASN]attrSnap {
	out := make(map[bgp.ASN]map[bgp.ASN]attrSnap, len(s.vps))
	for _, vp := range s.vps {
		m := make(map[bgp.ASN]attrSnap, len(s.T.ASList))
		for _, d := range s.T.ASList {
			path, comms, _, ok := s.R.routeAttrs(vp.AS, d)
			m[d] = attrSnap{path: path, comms: comms, ok: ok}
		}
		out[vp.AS] = m
	}
	return out
}

// pathCrossesPair reports whether the AS path contains the pair as adjacent
// hops in either order.
func pathCrossesPair(p bgp.Path, pk pairKey) bool {
	for i := 1; i < len(p); i++ {
		if mkPair(p[i-1], p[i]) == pk {
			return true
		}
	}
	return false
}

func (s *Sim) apply(ev Event) {
	switch ev.Kind {
	case evLinkDown:
		s.applyLinkChange(ev, false)
	case evLinkUp:
		s.applyLinkChange(ev, true)
	case evEgressShift:
		s.applyEgressShift(ev)
	case evTiebreakFlip:
		s.applyTiebreakFlip(ev)
	case evIntraReroute:
		s.applyIntraReroute(ev)
	case evPolicyNoise:
		s.applyPolicyNoise(ev)
	case evIXPJoin:
		s.applyIXPJoin(ev)
	}
}

// applyLinkChange handles link failures and repairs with a full route
// recompute and attribute diffing. VPs whose attributes are unchanged but
// whose path crosses the affected pair emit duplicate updates (the parallel
// border link swap of §4.1.4).
func (s *Sim) applyLinkChange(ev Event, up bool) {
	l := &s.T.Links[ev.Link]
	if l.Up == up {
		return
	}
	pk := mkPair(l.AAS, l.BAS)
	before := s.snapshotAttrs()
	s.R.setLinkUp(ev.Link, up)
	s.R.recomputeAll()
	s.diffAndEmit(before, ev.Time, map[pairKey]bool{pk: true})
	if !up && s.Cfg.LinkRepairDelaySec > 0 {
		s.repairs = append(s.repairs, Event{
			Kind: evLinkUp, Time: ev.Time + s.Cfg.LinkRepairDelaySec, Link: ev.Link,
		})
	}
}

func (s *Sim) applyEgressShift(ev Event) {
	if !s.R.rotateActiveLink(ev.A, ev.B) {
		return
	}
	pk := mkPair(ev.A, ev.B)
	// No AS-path change: emit updates only for routes crossing the pair.
	for _, vp := range s.vps {
		for _, d := range s.T.ASList {
			path := s.R.ASPath(vp.AS, d)
			if path == nil || !pathCrossesPair(path, pk) {
				continue
			}
			for _, u := range s.announcements(vp, d, ev.Time) {
				s.publish(u)
			}
		}
	}
}

func (s *Sim) applyTiebreakFlip(ev Event) {
	a := s.T.ASes[ev.AS]
	if a == nil {
		return
	}
	before := s.snapshotAttrs()
	// Rotate the override deterministically among neighbors.
	nbs := make([]bgp.ASN, 0, len(a.Neighbors))
	for nb := range a.Neighbors {
		nbs = append(nbs, nb)
	}
	sort.Slice(nbs, func(i, j int) bool { return nbs[i] < nbs[j] })
	if len(nbs) == 0 {
		return
	}
	cur, has := s.R.prefOverride[ev.AS]
	if !has {
		s.R.prefOverride[ev.AS] = nbs[len(nbs)-1]
	} else {
		for i, nb := range nbs {
			if nb == cur {
				s.R.prefOverride[ev.AS] = nbs[(i+1)%len(nbs)]
				break
			}
		}
	}
	s.R.recomputeAll()
	s.diffAndEmit(before, ev.Time, nil)
}

func (s *Sim) applyIntraReroute(ev Event) {
	a := s.T.ASes[ev.AS]
	if a == nil || len(a.intra) == 0 {
		return
	}
	keys := make([][2]int, 0, len(a.intra))
	for k := range a.intra {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	k := keys[s.rng.Intn(len(keys))]
	if s.intraMul[ev.AS] == nil {
		s.intraMul[ev.AS] = make(map[[2]int]float64)
	}
	// Toggle the perturbation so repeated events move paths around.
	if _, ok := s.intraMul[ev.AS][k]; ok {
		delete(s.intraMul[ev.AS], k)
	} else {
		s.intraMul[ev.AS][k] = 8.0
	}
	// IGP cost changes leak as duplicate updates from VPs whose routes
	// traverse the AS (Park et al.; paper §4.1.4), with attenuation.
	for _, vp := range s.vps {
		for _, d := range s.T.ASList {
			path := s.R.ASPath(vp.AS, d)
			if path == nil || !path.Contains(ev.AS) {
				continue
			}
			if hashFloat(probeHash(s.Cfg.Seed, uint32(vp.AS), uint32(d), ev.Time, 0xd0b)) > 0.05 {
				continue
			}
			for _, u := range s.announcements(vp, d, ev.Time) {
				s.publish(u)
			}
		}
	}
}

func (s *Sim) applyPolicyNoise(ev Event) {
	a := s.T.ASes[ev.AS]
	if a == nil {
		return
	}
	// ASes cycle through a small set of policy values (real networks
	// define a handful of TE communities), so reputation learning can
	// converge (Appendix B).
	if a.PolicyCommunity == 0 {
		a.PolicyCommunity = uint16(7000 + s.rng.Intn(8))
	} else {
		a.PolicyCommunity = 7000 + (a.PolicyCommunity-7000+1)%8
	}
	for _, vp := range s.vps {
		for _, d := range s.T.ASList {
			path := s.R.ASPath(vp.AS, d)
			if path == nil || !path.Contains(ev.AS) {
				continue
			}
			for _, u := range s.announcements(vp, d, ev.Time) {
				s.publish(u)
			}
		}
	}
}

func (s *Sim) applyIXPJoin(ev Event) {
	if int(ev.IXP) <= 0 || int(ev.IXP) >= len(s.T.IXPs) {
		return
	}
	x := &s.T.IXPs[ev.IXP]
	a := s.T.ASes[ev.AS]
	if a == nil {
		return
	}
	if _, member := x.MemberIPs[ev.AS]; member {
		return
	}
	members := make([]bgp.ASN, 0, len(x.MemberIPs))
	for m := range x.MemberIPs {
		members = append(members, m)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	before := s.snapshotAttrs()
	added := make(map[pairKey]bool)
	n := 0
	for _, m := range members {
		if m == ev.AS || len(a.Neighbors[m]) > 0 {
			continue
		}
		if s.rng.Float64() < 0.5 {
			lid := s.T.addLink(ev.AS, m, RelPeer, ev.IXP, s.rng)
			s.R.noteLinkAdded(lid)
			pk := mkPair(ev.AS, m)
			added[pk] = true
			s.R.selectActiveLink(pk)
			n++
			if n >= 5 {
				break
			}
		}
	}
	if n == 0 {
		// Ensure the join is visible: peer with the first eligible member.
		for _, m := range members {
			if m != ev.AS && len(a.Neighbors[m]) == 0 {
				lid := s.T.addLink(ev.AS, m, RelPeer, ev.IXP, s.rng)
				s.R.noteLinkAdded(lid)
				pk := mkPair(ev.AS, m)
				added[pk] = true
				s.R.selectActiveLink(pk)
				break
			}
		}
	}
	if len(added) == 0 {
		// Join with a LAN presence only (no new sessions yet).
		r := s.T.primaryRouter(a.PoPs[0])
		s.T.ixpMemberIP(ev.IXP, ev.AS, r)
		return
	}
	s.R.recomputeAll()
	s.diffAndEmit(before, ev.Time, added)
}

// diffAndEmit compares post-event attributes with a snapshot and publishes
// announcements, withdrawals, and duplicates.
func (s *Sim) diffAndEmit(before map[bgp.ASN]map[bgp.ASN]attrSnap, t int64, dupPairs map[pairKey]bool) {
	for _, vp := range s.vps {
		prev := before[vp.AS]
		for _, d := range s.T.ASList {
			old := prev[d]
			path, comms, _, ok := s.R.routeAttrs(vp.AS, d)
			switch {
			case !ok && old.ok:
				for _, u := range s.withdrawals(vp, d, t) {
					s.publish(u)
				}
			case ok && (!old.ok || !path.Equal(old.path) || !comms.Equal(old.comms)):
				for _, u := range s.announcements(vp, d, t) {
					s.publish(u)
				}
			case ok && dupPairs != nil:
				crossed := false
				for pk := range dupPairs {
					if pathCrossesPair(path, pk) {
						crossed = true
						break
					}
				}
				if crossed {
					for _, u := range s.announcements(vp, d, t) {
						s.publish(u)
					}
				}
			}
		}
	}
}

// poisson samples a Poisson-distributed count with the given mean.
func (s *Sim) poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= s.rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

// Step advances virtual time by dt seconds, applying scheduled repairs and
// sampled events.
func (s *Sim) Step(dt int64) {
	end := s.now + dt
	var evs []Event
	// Scheduled repairs due in this step.
	var rest []Event
	for _, r := range s.repairs {
		if r.Time < end {
			evs = append(evs, r)
		} else {
			rest = append(rest, r)
		}
	}
	s.repairs = rest

	frac := float64(dt) / 86400.0
	sample := func(rate float64, mk func() (Event, bool)) {
		for i, n := 0, s.poisson(rate*frac); i < n; i++ {
			if ev, ok := mk(); ok {
				ev.Time = s.now + s.rng.Int63n(dt)
				evs = append(evs, ev)
			}
		}
	}
	sample(s.Cfg.LinkFailuresPerDay, func() (Event, bool) {
		ups := s.upLinkIDs()
		if len(ups) == 0 {
			return Event{}, false
		}
		return Event{Kind: evLinkDown, Link: ups[s.rng.Intn(len(ups))]}, true
	})
	sample(s.Cfg.EgressShiftsPerDay, func() (Event, bool) {
		pairs := s.multiLinkPairs()
		if len(pairs) == 0 {
			return Event{}, false
		}
		pk := pairs[s.rng.Intn(len(pairs))]
		return Event{Kind: evEgressShift, A: pk.lo, B: pk.hi}, true
	})
	sample(s.Cfg.TiebreakFlipsPerDay, func() (Event, bool) {
		asn := s.T.ASList[s.rng.Intn(len(s.T.ASList))]
		return Event{Kind: evTiebreakFlip, AS: asn}, true
	})
	sample(s.Cfg.IntraReroutesPerDay, func() (Event, bool) {
		asn := s.T.ASList[s.rng.Intn(len(s.T.ASList))]
		return Event{Kind: evIntraReroute, AS: asn}, true
	})
	sample(s.Cfg.PolicyNoisePerDay, func() (Event, bool) {
		asn := s.T.ASList[s.rng.Intn(len(s.T.ASList))]
		return Event{Kind: evPolicyNoise, AS: asn}, true
	})
	sample(s.Cfg.IXPJoinsPerDay, func() (Event, bool) {
		if len(s.T.IXPs) <= 1 {
			return Event{}, false
		}
		ixp := IXPID(1 + s.rng.Intn(len(s.T.IXPs)-1))
		// Transit networks join exchanges far more often than stubs (they
		// have traffic to offload), and their joins move customer-cone
		// traffic that measurement probes actually cross.
		var asn bgp.ASN
		if s.rng.Float64() < 0.7 {
			var tier2 []bgp.ASN
			for _, a := range s.T.ASList {
				if s.T.ASes[a].Tier == 2 {
					tier2 = append(tier2, a)
				}
			}
			if len(tier2) == 0 {
				return Event{}, false
			}
			asn = tier2[s.rng.Intn(len(tier2))]
		} else {
			asn = s.T.ASList[s.rng.Intn(len(s.T.ASList))]
			if s.T.ASes[asn].Tier == 1 {
				return Event{}, false
			}
		}
		return Event{Kind: evIXPJoin, AS: asn, IXP: ixp}, true
	})

	sort.Slice(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
	for _, ev := range evs {
		s.apply(ev)
		s.Log = append(s.Log, ev)
	}
	s.now = end
}

func (s *Sim) upLinkIDs() []LinkID {
	var out []LinkID
	for i := 1; i < len(s.T.Links); i++ {
		if s.T.Links[i].Up {
			out = append(out, LinkID(i))
		}
	}
	return out
}

func (s *Sim) multiLinkPairs() []pairKey {
	seen := make(map[pairKey]bool)
	var out []pairKey
	for i := 1; i < len(s.T.Links); i++ {
		l := s.T.Links[i]
		pk := mkPair(l.AAS, l.BAS)
		if seen[pk] {
			continue
		}
		seen[pk] = true
		if len(s.R.upLinks(pk)) >= 2 {
			out = append(out, pk)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].lo != out[j].lo {
			return out[i].lo < out[j].lo
		}
		return out[i].hi < out[j].hi
	})
	return out
}

// MembershipSnapshot returns a PeeringDB-like view of IXP membership,
// omitting each member with probability omitFrac to model incompleteness
// (§4.2.3 augments PeeringDB with traceroute-observed members).
func (s *Sim) MembershipSnapshot(omitFrac float64) map[IXPID][]bgp.ASN {
	out := make(map[IXPID][]bgp.ASN)
	for i := 1; i < len(s.T.IXPs); i++ {
		x := &s.T.IXPs[i]
		members := make([]bgp.ASN, 0, len(x.MemberIPs))
		for m := range x.MemberIPs {
			members = append(members, m)
		}
		sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
		var kept []bgp.ASN
		for _, m := range members {
			if hashFloat(probeHash(s.Cfg.Seed, uint32(m), uint32(i), 0, 0x9d6)) >= omitFrac {
				kept = append(kept, m)
			}
		}
		out[x.ID] = kept
	}
	return out
}

// StubASes returns tier-3 ASes, the natural homes for probes and anchors.
func (s *Sim) StubASes() []bgp.ASN {
	var out []bgp.ASN
	for _, asn := range s.T.ASList {
		if s.T.ASes[asn].Tier == 3 {
			out = append(out, asn)
		}
	}
	return out
}

// Mapper returns a traceroute.Mapper view of the topology (ground-truth
// IP-to-AS and IXP detection, standing in for LPM + RIR + traIXroute).
func (s *Sim) Mapper() SimMapper { return SimMapper{t: s.T} }

// SimMapper adapts Topology to traceroute.Mapper.
type SimMapper struct {
	t *Topology
}

// ASOf maps an address to its originating AS. IXP LAN addresses are not
// mapped to an AS (they are detected via IXPOf).
func (m SimMapper) ASOf(ip uint32) (bgp.ASN, bool) {
	if _, isIXP := m.t.ixpForIP(ip); isIXP {
		return 0, false
	}
	return m.t.OriginAS(ip)
}

// IXPOf reports whether the address is on an IXP peering LAN.
func (m SimMapper) IXPOf(ip uint32) (int, bool) {
	id, ok := m.t.ixpForIP(ip)
	return int(id), ok
}

// IXPMemberOf resolves an IXP LAN address to the member AS assigned to it
// (traIXroute-style), implementing bordermap.IXPMembershipResolver.
func (m SimMapper) IXPMemberOf(ip uint32) (bgp.ASN, bool) {
	return m.t.IXPMemberForIP(ip)
}
