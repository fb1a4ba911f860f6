package netsim

import (
	"sort"

	"rrr/internal/bgp"
)

// routeClass orders route preference per Gao–Rexford local preference:
// routes learned from customers beat peer routes beat provider routes.
type routeClass int8

const (
	classSelf routeClass = iota
	classCustomer
	classPeer
	classProvider
	classNone
)

// chosen is AS x's best route toward a destination AS.
type chosen struct {
	class routeClass
	next  bgp.ASN // next-hop AS; 0 for self
	plen  int     // AS-path length in hops (0 for self)
}

// pairKey is an unordered AS pair.
type pairKey struct{ lo, hi bgp.ASN }

func mkPair(a, b bgp.ASN) pairKey {
	if a < b {
		return pairKey{a, b}
	}
	return pairKey{b, a}
}

// Routing holds control-plane state: per-destination best routes for every
// AS, the active border link per neighbor pair (hot-potato egress
// selection), and interdomain load-balanced pairs.
type Routing struct {
	topo *Topology

	// best[d][x] is x's best route toward destination AS d.
	best map[bgp.ASN]map[bgp.ASN]chosen

	// prefOverride[x] prefers the given neighbor at tiebreak when it is
	// among equal candidates (routing policy shifts, flipped by events).
	prefOverride map[bgp.ASN]bgp.ASN

	// activeLink[(x,y)] is the border link currently carrying traffic
	// between x and y; egress-shift events and link failures rotate it.
	activeLink map[pairKey]LinkID

	// lbPairs marks AS pairs that balance flows across parallel border
	// links (interdomain diamonds, §5.4).
	lbPairs map[pairKey]bool

	// upCount caches the number of operational links per pair so the
	// route computation's adjacency checks are O(1).
	upCount map[pairKey]int
}

func newRouting(t *Topology) *Routing {
	rt := &Routing{
		topo:         t,
		best:         make(map[bgp.ASN]map[bgp.ASN]chosen),
		prefOverride: make(map[bgp.ASN]bgp.ASN),
		activeLink:   make(map[pairKey]LinkID),
		lbPairs:      make(map[pairKey]bool),
		upCount:      make(map[pairKey]int),
	}
	for i := 1; i < len(t.Links); i++ {
		if t.Links[i].Up {
			rt.upCount[mkPair(t.Links[i].AAS, t.Links[i].BAS)]++
		}
	}
	for pk := range rt.allPairs() {
		rt.selectActiveLink(pk)
	}
	rt.recomputeAll()
	return rt
}

// setLinkUp changes a link's operational state, keeping the adjacency cache
// and active-link selection consistent. It reports whether the state
// actually changed.
func (rt *Routing) setLinkUp(lid LinkID, up bool) bool {
	l := &rt.topo.Links[lid]
	if l.Up == up {
		return false
	}
	l.Up = up
	pk := mkPair(l.AAS, l.BAS)
	if up {
		rt.upCount[pk]++
	} else {
		rt.upCount[pk]--
	}
	rt.selectActiveLink(pk)
	return true
}

// noteLinkAdded registers a newly created link (IXP joins add links after
// initialization).
func (rt *Routing) noteLinkAdded(lid LinkID) {
	l := rt.topo.Links[lid]
	if l.Up {
		rt.upCount[mkPair(l.AAS, l.BAS)]++
	}
}

// allPairs enumerates neighbor AS pairs.
func (rt *Routing) allPairs() map[pairKey]bool {
	out := make(map[pairKey]bool)
	for _, asn := range rt.topo.ASList {
		for nb := range rt.topo.ASes[asn].Neighbors {
			out[mkPair(asn, nb)] = true
		}
	}
	return out
}

// upLinks returns the operational links between a pair, sorted by ID.
func (rt *Routing) upLinks(pk pairKey) []LinkID {
	var out []LinkID
	for _, lid := range rt.topo.ASes[pk.lo].Neighbors[pk.hi] {
		if rt.topo.Links[lid].Up {
			out = append(out, lid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// selectActiveLink (re)picks the active link for a pair, keeping the current
// choice when it is still up. It reports whether the active link changed.
func (rt *Routing) selectActiveLink(pk pairKey) bool {
	cur := rt.activeLink[pk]
	if cur != 0 && rt.topo.Links[cur].Up {
		return false
	}
	ups := rt.upLinks(pk)
	if len(ups) == 0 {
		if cur != 0 {
			delete(rt.activeLink, pk)
			return true
		}
		return false
	}
	rt.activeLink[pk] = ups[0]
	return cur != ups[0]
}

// rotateActiveLink shifts the pair's active link to the next operational
// parallel link (hot-potato/egress engineering change). It reports whether
// anything changed.
func (rt *Routing) rotateActiveLink(a, b bgp.ASN) bool {
	pk := mkPair(a, b)
	ups := rt.upLinks(pk)
	if len(ups) < 2 {
		return false
	}
	cur := rt.activeLink[pk]
	for i, lid := range ups {
		if lid == cur {
			rt.activeLink[pk] = ups[(i+1)%len(ups)]
			return true
		}
	}
	rt.activeLink[pk] = ups[0]
	return true
}

// ActiveLink returns the link carrying traffic between a and b for the given
// flow hash (load-balanced pairs pick per flow).
func (rt *Routing) ActiveLink(a, b bgp.ASN, flow uint64) (LinkID, bool) {
	pk := mkPair(a, b)
	if rt.lbPairs[pk] {
		ups := rt.upLinks(pk)
		if len(ups) == 0 {
			return 0, false
		}
		return ups[flow%uint64(len(ups))], true
	}
	lid, ok := rt.activeLink[pk]
	return lid, ok
}

// controlLink returns the link whose attributes (ingress PoP, communities)
// the control plane advertises for the pair: the active link, ignoring
// per-flow balancing.
func (rt *Routing) controlLink(a, b bgp.ASN) (LinkID, bool) {
	lid, ok := rt.activeLink[mkPair(a, b)]
	return lid, ok
}

// hasUpNeighbor reports whether a and b share at least one up link.
func (rt *Routing) hasUpNeighbor(a, b bgp.ASN) bool {
	return rt.upCount[mkPair(a, b)] > 0
}

// recomputeAll recomputes best routes for every destination AS.
func (rt *Routing) recomputeAll() {
	for _, d := range rt.topo.ASList {
		rt.best[d] = rt.computeDest(d)
	}
}

// computeDest runs the three-stage Gao–Rexford computation toward d.
func (rt *Routing) computeDest(d bgp.ASN) map[bgp.ASN]chosen {
	t := rt.topo
	res := make(map[bgp.ASN]chosen, len(t.ASList))
	res[d] = chosen{class: classSelf}

	// Stage 1: customer routes. BFS from d upward along provider edges:
	// x's provider y learns a customer route through x.
	custDist := map[bgp.ASN]int{d: 0}
	frontier := []bgp.ASN{d}
	for level := 1; len(frontier) > 0; level++ {
		// Collect candidate next hops per provider at this level.
		cands := make(map[bgp.ASN][]bgp.ASN)
		for _, x := range frontier {
			for nb, rel := range t.ASes[x].Rel {
				if rel != RelCustomer { // x is nb's customer: nb provides x
					continue
				}
				if !rt.hasUpNeighbor(x, nb) {
					continue
				}
				if _, seen := custDist[nb]; seen {
					continue
				}
				cands[nb] = append(cands[nb], x)
			}
		}
		frontier = frontier[:0]
		for y, xs := range cands {
			custDist[y] = level
			res[y] = chosen{class: classCustomer, next: rt.pick(y, xs), plen: level}
			frontier = append(frontier, y)
		}
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
	}

	// Stage 2: peer routes, one peer hop on top of a customer route (or d
	// itself). Only ASes without a customer route use them.
	peerLen := make(map[bgp.ASN]int)
	for _, x := range t.ASList {
		if _, hasCust := custDist[x]; hasCust || x == d {
			continue
		}
		var cands []bgp.ASN
		bestLen := int(^uint(0) >> 1)
		for nb, rel := range t.ASes[x].Rel {
			if rel != RelPeer || !rt.hasUpNeighbor(x, nb) {
				continue
			}
			cd, ok := custDist[nb]
			if !ok {
				continue
			}
			l := cd + 1
			if l < bestLen {
				bestLen, cands = l, []bgp.ASN{nb}
			} else if l == bestLen {
				cands = append(cands, nb)
			}
		}
		if len(cands) > 0 {
			peerLen[x] = bestLen
			res[x] = chosen{class: classPeer, next: rt.pick(x, cands), plen: bestLen}
		}
	}

	// Stage 3: provider routes, propagating downward from any AS with a
	// route. Dijkstra over provider→customer edges with varying source
	// costs; bucketed by path length.
	const maxLen = 64
	buckets := make([][]bgp.ASN, maxLen)
	provLen := make(map[bgp.ASN]int)
	seedLen := func(x bgp.ASN) (int, bool) {
		if x == d {
			return 0, true
		}
		if l, ok := custDist[x]; ok {
			return l, true
		}
		if l, ok := peerLen[x]; ok {
			return l, true
		}
		return 0, false
	}
	for _, x := range t.ASList {
		if l, ok := seedLen(x); ok && l+1 < maxLen {
			buckets[l] = append(buckets[l], x)
		}
	}
	// candsAt[y] collects equal-length provider candidates before y is
	// finalized.
	type provCand struct {
		len   int
		cands []bgp.ASN
	}
	pending := make(map[bgp.ASN]*provCand)
	for l := 0; l < maxLen; l++ {
		sort.Slice(buckets[l], func(i, j int) bool { return buckets[l][i] < buckets[l][j] })
		for _, y := range buckets[l] {
			// Finalize y if it is a pending provider-route node.
			if pc, ok := pending[y]; ok && pc.len == l {
				if _, done := provLen[y]; !done {
					if _, hasBetter := seedLen(y); !hasBetter {
						provLen[y] = l
						res[y] = chosen{class: classProvider, next: rt.pick(y, pc.cands), plen: l}
					}
				}
			}
			// y's effective length for propagation to its customers.
			el, seeded := seedLen(y)
			if !seeded {
				var ok bool
				el, ok = provLen[y]
				if !ok {
					continue
				}
			}
			if el != l {
				continue // stale bucket entry
			}
			for nb, rel := range t.ASes[y].Rel {
				if rel != RelProvider || !rt.hasUpNeighbor(y, nb) {
					continue
				}
				// y is nb's provider: nb learns a provider route via y.
				if _, ok := seedLen(nb); ok {
					continue // has a better class already
				}
				if _, ok := provLen[nb]; ok {
					continue
				}
				nl := l + 1
				if nl >= maxLen {
					continue
				}
				pc := pending[nb]
				if pc == nil || nl < pc.len {
					pending[nb] = &provCand{len: nl, cands: []bgp.ASN{y}}
					buckets[nl] = append(buckets[nl], nb)
				} else if nl == pc.len {
					pc.cands = append(pc.cands, y)
				}
			}
		}
	}
	return res
}

// pick applies tiebreak among equal candidates: a configured preference
// override wins, then the lowest ASN.
func (rt *Routing) pick(x bgp.ASN, cands []bgp.ASN) bgp.ASN {
	if len(cands) == 1 {
		return cands[0]
	}
	if pref, ok := rt.prefOverride[x]; ok {
		for _, c := range cands {
			if c == pref {
				return c
			}
		}
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c < best {
			best = c
		}
	}
	return best
}

// ASPath returns the AS-level path from x to destination AS d, inclusive,
// or nil if x has no route.
func (rt *Routing) ASPath(x, d bgp.ASN) bgp.Path {
	routes := rt.best[d]
	if routes == nil {
		return nil
	}
	var out bgp.Path
	cur := x
	for steps := 0; steps < 64; steps++ {
		c, ok := routes[cur]
		if !ok {
			return nil
		}
		out = append(out, cur)
		if c.class == classSelf {
			return out
		}
		cur = c.next
	}
	return nil // malformed (should not happen)
}

// routeAttrs computes the BGP attributes a vantage point in AS v would hold
// for destination AS d: the AS path and the community set accumulated along
// it (geo tags at each ingress PoP, policy communities, stripping).
func (rt *Routing) routeAttrs(v, d bgp.ASN) (bgp.Path, bgp.Communities, uint32, bool) {
	path := rt.ASPath(v, d)
	if path == nil {
		return nil, nil, 0, false
	}
	t := rt.topo
	var comms bgp.Communities
	// Origin may tag its policy community.
	if pc := t.ASes[d].PolicyCommunity; pc != 0 {
		comms = append(comms, bgp.MakeCommunity(d, pc))
	}
	// Walk from origin toward v: path[i] receives the route from path[i+1].
	for i := len(path) - 2; i >= 0; i-- {
		recv := t.ASes[path[i]]
		if recv.StripsCommunities {
			comms = nil
		}
		if recv.TagsGeo {
			if lid, ok := rt.controlLink(path[i], path[i+1]); ok {
				pop := rt.sidePoP(lid, path[i])
				comms = append(comms, bgp.MakeCommunity(path[i], geoCommunityValue(pop)))
			}
		}
		if recv.PolicyCommunity != 0 {
			comms = append(comms, bgp.MakeCommunity(path[i], recv.PolicyCommunity))
		}
	}
	comms = bgp.NormalizeCommunities(comms)
	// MED proxies the IGP cost of the first-hop egress; it changes with
	// egress shifts but is non-transitive.
	var med uint32
	if len(path) > 1 {
		if lid, ok := rt.controlLink(path[0], path[1]); ok {
			med = uint32(lid)
		}
	}
	return path, comms, med, true
}

// sidePoP returns the PoP of the given AS's side of a link.
func (rt *Routing) sidePoP(lid LinkID, as bgp.ASN) PoPID {
	l := rt.topo.Links[lid]
	if l.AAS == as {
		return rt.topo.Routers[l.ARouter].PoP
	}
	return rt.topo.Routers[l.BRouter].PoP
}

// geoCommunityValue encodes a PoP location as a community value, mirroring
// conventions like Init7's 5xxxx location communities (paper Fig 3).
func geoCommunityValue(pop PoPID) uint16 {
	return uint16(50000 + int(pop)%15000)
}

// nextHop returns x's next-hop AS toward d.
func (rt *Routing) nextHop(x, d bgp.ASN) (bgp.ASN, bool) {
	c, ok := rt.best[d][x]
	if !ok || c.class == classSelf {
		return 0, false
	}
	return c.next, true
}
