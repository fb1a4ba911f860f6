// Package netsim is a deterministic Internet simulator: it generates an
// AS-level topology with PoPs, border routers, interface IPs, and IXPs;
// computes policy (Gao–Rexford) routing with hot-potato egress selection;
// synthesizes BGP update streams for collector vantage points (including
// community changes and duplicate updates, paper §4.1); and answers
// data-plane traceroute queries (paper §4.2). It substitutes for the
// RouteViews/RIS feeds and the RIPE Atlas data plane that the paper consumes,
// reproducing the same root causes of path change: link failures, routing
// policy shifts, hot-potato egress changes, intra-domain reroutes, IXP
// membership changes, and load-balancing diamonds.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rrr/internal/bgp"
	"rrr/internal/trie"
)

// CityID identifies a city.
type CityID int

// PoPID identifies a point of presence (an AS's presence in a city).
type PoPID int

// RouterID identifies a router. Router 0 is invalid.
type RouterID int

// LinkID identifies an inter-AS link. Link 0 is invalid.
type LinkID int

// IXPID identifies an Internet exchange point. IXP 0 is invalid.
type IXPID int

// Relationship classifies inter-AS business relationships (CAIDA-style).
type Relationship int8

// Relationship values are expressed from the A side of a link.
const (
	// RelCustomer: A is a customer of B (B provides transit to A).
	RelCustomer Relationship = iota
	// RelProvider: A is a provider of B.
	RelProvider
	// RelPeer: settlement-free peering (private or at an IXP).
	RelPeer
)

// String names the relationship.
func (r Relationship) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelProvider:
		return "provider"
	default:
		return "peer"
	}
}

// invert returns the relationship seen from the other side.
func (r Relationship) invert() Relationship {
	switch r {
	case RelCustomer:
		return RelProvider
	case RelProvider:
		return RelCustomer
	default:
		return RelPeer
	}
}

// City is a geographic location.
type City struct {
	ID   CityID
	Name string
	// X, Y are abstract plane coordinates used for distance/latency.
	X, Y float64
}

// PoP is one AS's presence in a city, containing one or more routers.
type PoP struct {
	ID      PoPID
	AS      bgp.ASN
	City    CityID
	Routers []RouterID
}

// Router is a layer-3 device owned by one AS at one PoP. An alias set.
type Router struct {
	ID  RouterID
	AS  bgp.ASN
	PoP PoPID
	// Loopback is the router's stable identifier address.
	Loopback uint32
	// Interfaces are additional addresses (one per attached adjacency).
	Interfaces []uint32
	// ResponseProb is the probability the router answers a traceroute
	// probe; drawn at generation time, fixed thereafter.
	ResponseProb float64
}

// Link is an inter-AS adjacency between border routers ARouter (in AAS) and
// BRouter (in BAS). For IXP links the B-side interface sits on the IXP
// peering LAN.
type Link struct {
	ID      LinkID
	AAS     bgp.ASN
	BAS     bgp.ASN
	ARouter RouterID
	BRouter RouterID
	// AIP and BIP are the interface addresses on each side. For IXP links
	// both interfaces are on the IXP LAN.
	AIP uint32
	BIP uint32
	// Rel is the relationship from A's perspective.
	Rel Relationship
	// IXP is nonzero for public peering over an exchange.
	IXP IXPID
	// Up reports whether the link is operational.
	Up bool
}

// IXP is an exchange point with a peering LAN at one city.
type IXP struct {
	ID   IXPID
	City CityID
	// LAN is the peering LAN prefix.
	LAN trie.Prefix
	// MemberIPs maps member ASes to their LAN addresses.
	MemberIPs map[bgp.ASN]uint32
}

// AS is an autonomous system.
type AS struct {
	ASN  bgp.ASN
	Tier int
	// PoPs lists the AS's points of presence.
	PoPs []PoPID
	// Prefixes the AS originates.
	Prefixes []trie.Prefix
	// Block is the AS's address block from which router interfaces and
	// host addresses are assigned.
	Block trie.Prefix
	// Neighbors maps neighbor ASN to the links shared with it.
	Neighbors map[bgp.ASN][]LinkID
	// Rel maps neighbor ASN to the relationship from this AS's view.
	Rel map[bgp.ASN]Relationship
	// TagsGeo reports whether border routers add location communities to
	// routes received from external peers (like AS13030 in the paper's
	// Fig 3).
	TagsGeo bool
	// StripsCommunities reports whether the AS removes communities before
	// propagating routes (paper §4.1.3's first caveat).
	StripsCommunities bool
	// PolicyCommunity is a current AS-specific policy community value
	// unrelated to the traversed hops (prepending control etc.); rotated
	// by noise events so calibration must learn to ignore it. Zero means
	// the AS does not tag one.
	PolicyCommunity uint16
	// intra is the intra-AS adjacency between PoP indices (indexes into
	// PoPs), with parallel entries for load-balanced pairs.
	intra map[[2]int][]intraPath
}

// intraPath is one concrete router path between two PoPs of an AS.
type intraPath struct {
	routers []RouterID // intermediate routers, possibly empty
}

// Topology is the generated Internet.
type Topology struct {
	Cities  []City
	ASes    map[bgp.ASN]*AS
	ASList  []bgp.ASN // sorted
	PoPs    []PoP     // indexed by PoPID
	Routers []Router  // indexed by RouterID (entry 0 unused)
	Links   []Link    // indexed by LinkID (entry 0 unused)
	IXPs    []IXP     // indexed by IXPID (entry 0 unused)

	// ipToRouter maps allocated interface addresses to routers.
	ipToRouter map[uint32]RouterID
	// ixpIPMember maps IXP LAN addresses to the member AS assigned to them.
	ixpIPMember map[uint32]bgp.ASN
	nextIP      map[bgp.ASN]uint32
	originTrie  trie.Trie[bgp.ASN]
	ixpTrie     trie.Trie[IXPID]
}

// HostIP returns the i-th end-host address of an AS (destinations and probe
// sources), allocated from the upper half of the AS block.
func (t *Topology) HostIP(as bgp.ASN, i int) uint32 {
	a := t.ASes[as]
	return a.Block.Addr + uint32(1)<<15 | uint32(1)<<14 | uint32(i&0x3fff)
}

// Config controls topology generation and event rates.
type Config struct {
	Seed int64

	// NumTier1, NumTier2, NumTier3 size the hierarchy.
	NumTier1 int
	NumTier2 int
	NumTier3 int
	// NumCities is the number of distinct cities.
	NumCities int
	// NumIXPs is the number of exchanges.
	NumIXPs int

	// VPFraction is the fraction of ASes hosting a BGP collector peer.
	VPFraction float64

	// Event rates are expected events per day across the whole topology.
	LinkFailuresPerDay  float64
	EgressShiftsPerDay  float64
	TiebreakFlipsPerDay float64
	IntraReroutesPerDay float64
	PolicyNoisePerDay   float64
	IXPJoinsPerDay      float64
	// LinkRepairDelaySec is how long a failed link stays down.
	LinkRepairDelaySec int64

	// LoadBalancedFraction is the fraction of multi-PoP ASes with
	// intra-domain diamonds; InterdomainLBFraction the fraction of
	// multi-link AS pairs balancing across border links (§5.4).
	LoadBalancedFraction  float64
	InterdomainLBFraction float64
}

// DefaultConfig returns a mid-size deterministic topology adequate for the
// paper's experiment shapes while keeping test runtimes modest.
func DefaultConfig() Config {
	return Config{
		Seed:                  1,
		NumTier1:              6,
		NumTier2:              60,
		NumTier3:              180,
		NumCities:             30,
		NumIXPs:               8,
		VPFraction:            0.15,
		LinkFailuresPerDay:    5,
		EgressShiftsPerDay:    10,
		TiebreakFlipsPerDay:   3,
		IntraReroutesPerDay:   5,
		PolicyNoisePerDay:     0.75,
		IXPJoinsPerDay:        1.5,
		LinkRepairDelaySec:    6 * 3600,
		LoadBalancedFraction:  0.3,
		InterdomainLBFraction: 0.12,
	}
}

// TestConfig returns a small topology for unit tests.
func TestConfig() Config {
	c := DefaultConfig()
	c.NumTier1 = 3
	c.NumTier2 = 12
	c.NumTier3 = 30
	c.NumCities = 10
	c.NumIXPs = 3
	// Event rates scale with topology size: the test topology is ~5x
	// smaller than the default.
	c.LinkFailuresPerDay = 1.5
	c.EgressShiftsPerDay = 4
	c.TiebreakFlipsPerDay = 1
	c.IntraReroutesPerDay = 1.5
	c.PolicyNoisePerDay = 0.5
	c.IXPJoinsPerDay = 0.8
	return c
}

const (
	asBlockBase = uint32(16) << 24  // AS i block = 16.0.0.0 + i<<16 (/16)
	ixpLANBase  = uint32(185) << 24 // IXP j LAN = 185.0.j.0/24
	firstASN    = 100
)

func (t *Topology) blockFor(idx int) trie.Prefix {
	return trie.MakePrefix(asBlockBase+uint32(idx)<<16, 16)
}

// asByIdx returns the ASN for the idx-th generated AS.
func asByIdx(idx int) bgp.ASN { return bgp.ASN(firstASN + idx) }

// generate builds the topology deterministically from cfg.
func generate(cfg Config, rng *rand.Rand) *Topology {
	t := &Topology{
		ASes:        make(map[bgp.ASN]*AS),
		ipToRouter:  make(map[uint32]RouterID),
		ixpIPMember: make(map[uint32]bgp.ASN),
	}
	t.Routers = append(t.Routers, Router{}) // reserve ID 0
	t.Links = append(t.Links, Link{})       // reserve ID 0
	t.IXPs = append(t.IXPs, IXP{})          // reserve ID 0

	// Cities on a jittered grid.
	for i := 0; i < cfg.NumCities; i++ {
		t.Cities = append(t.Cities, City{
			ID:   CityID(i),
			Name: fmt.Sprintf("city%02d", i),
			X:    float64(i%6)*10 + rng.Float64()*4,
			Y:    float64(i/6)*10 + rng.Float64()*4,
		})
	}

	total := cfg.NumTier1 + cfg.NumTier2 + cfg.NumTier3
	for i := 0; i < total; i++ {
		tier := 3
		if i < cfg.NumTier1 {
			tier = 1
		} else if i < cfg.NumTier1+cfg.NumTier2 {
			tier = 2
		}
		a := &AS{
			ASN:       asByIdx(i),
			Tier:      tier,
			Block:     t.blockFor(i),
			Neighbors: make(map[bgp.ASN][]LinkID),
			Rel:       make(map[bgp.ASN]Relationship),
			intra:     make(map[[2]int][]intraPath),
		}
		// Community behavior: transit networks tend to run geo
		// communities; a minority strips them.
		switch tier {
		case 1:
			a.TagsGeo = rng.Float64() < 0.8
		case 2:
			a.TagsGeo = rng.Float64() < 0.6
			a.StripsCommunities = rng.Float64() < 0.12
		default:
			a.TagsGeo = rng.Float64() < 0.15
			a.StripsCommunities = rng.Float64() < 0.2
		}
		if rng.Float64() < 0.2 {
			a.PolicyCommunity = uint16(7000 + rng.Intn(8))
		}
		// PoPs: tier1 in many cities, tier2 in a few, tier3 in 1-2.
		var nPoPs int
		switch tier {
		case 1:
			nPoPs = 6 + rng.Intn(5)
		case 2:
			nPoPs = 2 + rng.Intn(4)
		default:
			nPoPs = 1 + rng.Intn(2)
		}
		if nPoPs > cfg.NumCities {
			nPoPs = cfg.NumCities
		}
		cities := rng.Perm(cfg.NumCities)[:nPoPs]
		for _, c := range cities {
			pid := PoPID(len(t.PoPs))
			pop := PoP{ID: pid, AS: a.ASN, City: CityID(c)}
			// Transit PoPs run redundant border routers; stubs 1-2.
			nr := 1 + rng.Intn(2)
			if tier <= 2 {
				nr = 2 + rng.Intn(2)
			}
			for r := 0; r < nr; r++ {
				rid := t.newRouter(a, pid, rng)
				pop.Routers = append(pop.Routers, rid)
			}
			t.PoPs = append(t.PoPs, pop)
			a.PoPs = append(a.PoPs, pid)
		}
		// Originated prefixes: the /16 block; larger ASes sometimes
		// announce an extra more-specific /17.
		a.Prefixes = []trie.Prefix{a.Block}
		if tier <= 2 && rng.Float64() < 0.3 {
			a.Prefixes = append(a.Prefixes,
				trie.MakePrefix(a.Block.Addr|uint32(1)<<15, 17))
		}
		t.ASes[a.ASN] = a
		t.ASList = append(t.ASList, a.ASN)
	}
	sort.Slice(t.ASList, func(i, j int) bool { return t.ASList[i] < t.ASList[j] })

	// Intra-AS adjacency: connect PoPs in a ring plus chords, with
	// transit routers on multi-hop segments.
	for _, asn := range t.ASList {
		t.wireIntra(t.ASes[asn], cfg, rng)
	}

	// Inter-AS links.
	t.wireHierarchy(cfg, rng)

	// IXPs.
	t.wireIXPs(cfg, rng)

	// Build lookup tries.
	for _, asn := range t.ASList {
		for _, p := range t.ASes[asn].Prefixes {
			t.originTrie.Insert(p, asn)
		}
	}
	for i := 1; i < len(t.IXPs); i++ {
		t.ixpTrie.Insert(t.IXPs[i].LAN, t.IXPs[i].ID)
	}
	return t
}

// newRouter allocates a router with a loopback address in the AS block.
func (t *Topology) newRouter(a *AS, pop PoPID, rng *rand.Rand) RouterID {
	rid := RouterID(len(t.Routers))
	lo := t.allocIP(a)
	resp := 1.0
	if rng.Float64() < 0.12 {
		resp = 0.3 + rng.Float64()*0.5 // flaky responders
	}
	t.Routers = append(t.Routers, Router{
		ID: rid, AS: a.ASN, PoP: pop, Loopback: lo, ResponseProb: resp,
	})
	t.ipToRouter[lo] = rid
	return t.Routers[rid].ID
}

// allocIP hands out the next free address in the AS block (skipping .0).
// Infrastructure addresses grow upward from the block base; host addresses
// (see HostIP) live in the upper half, so they never collide.
func (t *Topology) allocIP(a *AS) uint32 {
	if t.nextIP == nil {
		t.nextIP = make(map[bgp.ASN]uint32)
	}
	off := t.nextIP[a.ASN] + 1
	t.nextIP[a.ASN] = off
	return a.Block.Addr + off
}

// addInterface assigns an interface IP on router r from AS block (or a
// specific IP, e.g. an IXP LAN address).
func (t *Topology) addInterface(r RouterID, ip uint32) {
	t.Routers[r].Interfaces = append(t.Routers[r].Interfaces, ip)
	t.ipToRouter[ip] = r
}

// wireIntra builds the intra-AS PoP adjacency with concrete router paths.
func (t *Topology) wireIntra(a *AS, cfg Config, rng *rand.Rand) {
	n := len(a.PoPs)
	if n <= 1 {
		return
	}
	lb := rng.Float64() < cfg.LoadBalancedFraction
	addPath := func(i, j int, parallel bool) {
		key := [2]int{i, j}
		if i > j {
			key = [2]int{j, i}
		}
		// Direct path (no intermediate routers) plus, for load-balanced
		// ASes, a parallel path through an extra transit router.
		paths := []intraPath{{}}
		if parallel {
			mid := t.newRouter(a, a.PoPs[key[0]], rng)
			paths = append(paths, intraPath{routers: []RouterID{mid}})
		}
		a.intra[key] = paths
	}
	// Ring.
	for i := 0; i < n; i++ {
		addPath(i, (i+1)%n, lb && i == 0)
	}
	// Chords for larger ASes.
	for i := 0; i < n/2; i++ {
		x, y := rng.Intn(n), rng.Intn(n)
		if x != y {
			addPath(x, y, false)
		}
	}
}

// latency returns an abstract distance between two cities.
func (t *Topology) latency(a, b CityID) float64 {
	ca, cb := t.Cities[a], t.Cities[b]
	dx, dy := ca.X-cb.X, ca.Y-cb.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// wireHierarchy creates provider/customer and private peering links.
func (t *Topology) wireHierarchy(cfg Config, rng *rand.Rand) {
	tier1 := t.ASList[:cfg.NumTier1]
	tier2 := t.ASList[cfg.NumTier1 : cfg.NumTier1+cfg.NumTier2]
	tier3 := t.ASList[cfg.NumTier1+cfg.NumTier2:]

	// Tier-1 clique (peers), often with multiple parallel links.
	for i, a := range tier1 {
		for _, b := range tier1[i+1:] {
			nLinks := 1 + rng.Intn(3)
			for k := 0; k < nLinks; k++ {
				t.addLink(a, b, RelPeer, 0, rng)
			}
		}
	}
	// Tier-2: 2-3 providers among tier1 (sometimes tier2), some private
	// peers among tier2.
	for _, a := range tier2 {
		nProv := 2 + rng.Intn(2)
		provs := rng.Perm(len(tier1))
		for k := 0; k < nProv && k < len(provs); k++ {
			nLinks := 1 + rng.Intn(2)
			for l := 0; l < nLinks; l++ {
				t.addLink(a, tier1[provs[k]], RelCustomer, 0, rng)
			}
		}
	}
	for i, a := range tier2 {
		for _, b := range tier2[i+1:] {
			if rng.Float64() < 0.08 {
				t.addLink(a, b, RelPeer, 0, rng)
			}
		}
	}
	// Tier-3: measurable edge networks are predominantly multi-homed, so
	// most get two providers (single link failures then cause AS-path
	// changes, not withdrawals).
	for _, a := range tier3 {
		nProv := 1
		if rng.Float64() < 0.8 {
			nProv = 2
		}
		provs := rng.Perm(len(tier2))
		for k := 0; k < nProv && k < len(provs); k++ {
			t.addLink(a, tier2[provs[k]], RelCustomer, 0, rng)
		}
	}
}

// addLink creates a link between a and b (rel from a's view), choosing
// border PoPs by geographic proximity.
func (t *Topology) addLink(a, b bgp.ASN, rel Relationship, ixp IXPID, rng *rand.Rand) LinkID {
	asA, asB := t.ASes[a], t.ASes[b]
	var popA, popB PoPID
	reused := false
	// Parallel links between the same pair usually terminate in the same
	// metro (redundant circuits between the same PoPs but on distinct
	// routers), which is what lets §4.2.2 observe router shifts between
	// fixed ⟨AS, city⟩ endpoints.
	if prev := asA.Neighbors[b]; len(prev) > 0 && rng.Float64() < 0.6 {
		l := t.Links[prev[0]]
		if l.AAS == a {
			popA, popB = t.Routers[l.ARouter].PoP, t.Routers[l.BRouter].PoP
		} else {
			popA, popB = t.Routers[l.BRouter].PoP, t.Routers[l.ARouter].PoP
		}
		reused = true
	}
	if !reused {
		// Pick the pair of PoPs minimizing distance, jittered so distinct
		// adjacencies spread geographically. A parallel link that is not
		// co-located deliberately lands at a *different* interconnection
		// city (the London→Frankfurt shifts of the paper's Fig 3), so
		// egress changes across it move geo communities.
		usedCities := make(map[[2]CityID]bool)
		for _, lid := range asA.Neighbors[b] {
			l := t.Links[lid]
			ca := t.CityOfRouter(l.ARouter)
			cb := t.CityOfRouter(l.BRouter)
			if l.AAS != a {
				ca, cb = cb, ca
			}
			usedCities[[2]CityID{ca, cb}] = true
		}
		bestScore := math.Inf(1)
		foundNew := false
		for _, pa := range asA.PoPs {
			for _, pb := range asB.PoPs {
				cp := [2]CityID{t.PoPs[pa].City, t.PoPs[pb].City}
				score := t.latency(cp[0], cp[1]) + rng.Float64()*6
				if len(usedCities) > 0 && usedCities[cp] {
					score += 100 // strongly prefer a new city pair
				}
				if score < bestScore {
					bestScore = score
					popA, popB = pa, pb
					foundNew = !usedCities[cp]
				}
			}
		}
		_ = foundNew
	}
	// Redundant circuits terminate on distinct routers when the PoPs have
	// them: prefer routers not already carrying a link to this neighbor.
	usedA := make(map[RouterID]bool)
	usedB := make(map[RouterID]bool)
	for _, lid := range asA.Neighbors[b] {
		l := t.Links[lid]
		if l.AAS == a {
			usedA[l.ARouter] = true
			usedB[l.BRouter] = true
		} else {
			usedA[l.BRouter] = true
			usedB[l.ARouter] = true
		}
	}
	pick := func(routers []RouterID, used map[RouterID]bool) RouterID {
		var free []RouterID
		for _, r := range routers {
			if !used[r] {
				free = append(free, r)
			}
		}
		if len(free) > 0 {
			return free[rng.Intn(len(free))]
		}
		return routers[rng.Intn(len(routers))]
	}
	ra := pick(t.PoPs[popA].Routers, usedA)
	rb := pick(t.PoPs[popB].Routers, usedB)
	lid := LinkID(len(t.Links))
	var aip, bip uint32
	if ixp != 0 {
		aip = t.ixpMemberIP(ixp, a, ra)
		bip = t.ixpMemberIP(ixp, b, rb)
	} else {
		aip = t.allocIP(asA)
		t.addInterface(ra, aip)
		bip = t.allocIP(asB)
		t.addInterface(rb, bip)
	}
	if ixp != 0 {
		// IXP LAN IPs are registered by ixpMemberIP.
	}
	t.Links = append(t.Links, Link{
		ID: lid, AAS: a, BAS: b, ARouter: ra, BRouter: rb,
		AIP: aip, BIP: bip, Rel: rel, IXP: ixp, Up: true,
	})
	asA.Neighbors[b] = append(asA.Neighbors[b], lid)
	asB.Neighbors[a] = append(asB.Neighbors[a], lid)
	asA.Rel[b] = rel
	asB.Rel[a] = rel.invert()
	return lid
}

// ixpMemberIP returns (allocating if needed) the LAN address of member as on
// the exchange, bound to border router r.
func (t *Topology) ixpMemberIP(ixp IXPID, as bgp.ASN, r RouterID) uint32 {
	x := &t.IXPs[ixp]
	if ip, ok := x.MemberIPs[as]; ok {
		return ip
	}
	ip := x.LAN.Addr + uint32(len(x.MemberIPs)+1)
	x.MemberIPs[as] = ip
	t.ixpIPMember[ip] = as
	t.addInterface(r, ip)
	return ip
}

// wireIXPs creates exchanges and public peering among members.
func (t *Topology) wireIXPs(cfg Config, rng *rand.Rand) {
	for j := 0; j < cfg.NumIXPs; j++ {
		id := IXPID(len(t.IXPs))
		city := CityID(rng.Intn(cfg.NumCities))
		t.IXPs = append(t.IXPs, IXP{
			ID:        id,
			City:      city,
			LAN:       trie.MakePrefix(ixpLANBase+uint32(j)<<8, 24),
			MemberIPs: make(map[bgp.ASN]uint32),
		})
		// Members: ASes with a PoP in the city join with high probability;
		// others occasionally (remote peering).
		var members []bgp.ASN
		for _, asn := range t.ASList {
			a := t.ASes[asn]
			if a.Tier == 1 {
				continue // tier-1s rarely peer at IXPs
			}
			inCity := false
			for _, p := range a.PoPs {
				if t.PoPs[p].City == city {
					inCity = true
					break
				}
			}
			prob := 0.05
			if inCity {
				prob = 0.6
			}
			if rng.Float64() < prob {
				members = append(members, asn)
			}
		}
		// Peer pairs among members.
		for i, a := range members {
			for _, b := range members[i+1:] {
				if t.ASes[a].Rel[b] != 0 || len(t.ASes[a].Neighbors[b]) > 0 {
					continue // already related
				}
				if rng.Float64() < 0.25 {
					t.addLink(a, b, RelPeer, id, rng)
				}
			}
		}
	}
}

// OriginAS maps an address to the AS originating its covering prefix.
func (t *Topology) OriginAS(ip uint32) (bgp.ASN, bool) {
	return t.originTrie.Lookup(ip)
}

// ixpForIP reports whether ip is on an IXP peering LAN.
func (t *Topology) ixpForIP(ip uint32) (IXPID, bool) {
	return t.ixpTrie.Lookup(ip)
}

// IXPMemberForIP returns the member AS an IXP LAN address is assigned to.
func (t *Topology) IXPMemberForIP(ip uint32) (bgp.ASN, bool) {
	as, ok := t.ixpIPMember[ip]
	return as, ok
}

// InterfaceCount is the number of addresses RouterForIP resolves. Every
// mapping answer that changes during a run comes with a new address: only
// an IXP join adds entries (a member's LAN address), and the origin and
// IXP tries are built once with the topology.
func (t *Topology) InterfaceCount() int { return len(t.ipToRouter) }

// RouterForIP resolves an interface or loopback address to its router.
func (t *Topology) RouterForIP(ip uint32) (RouterID, bool) {
	r, ok := t.ipToRouter[ip]
	return r, ok
}

// CityOfRouter returns the city a router sits in.
func (t *Topology) CityOfRouter(r RouterID) CityID {
	return t.PoPs[t.Routers[r].PoP].City
}

// LinksBetween returns the link IDs between two ASes (any direction); nil
// for unknown ASNs.
func (t *Topology) LinksBetween(a, b bgp.ASN) []LinkID {
	as, ok := t.ASes[a]
	if !ok {
		return nil
	}
	return as.Neighbors[b]
}

// RelBetween returns a's relationship toward b and whether they are
// neighbors; unknown ASNs are not neighbors of anything.
func (t *Topology) RelBetween(a, b bgp.ASN) (Relationship, bool) {
	as, ok := t.ASes[a]
	if !ok {
		return 0, false
	}
	r, ok := as.Rel[b]
	return r, ok
}
