package netsim

import (
	"hash/fnv"
	"math"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
)

// flowHash provides stable per-flow choices (ECMP-style) so a given
// (src, dst) pair sees consistent load-balancer branches while different
// flows may diverge, matching Augustin et al.'s per-flow balancing.
func flowHash(src, dst uint32) uint64 {
	h := fnv.New64a()
	var b [8]byte
	b[0], b[1], b[2], b[3] = byte(src>>24), byte(src>>16), byte(src>>8), byte(src)
	b[4], b[5], b[6], b[7] = byte(dst>>24), byte(dst>>16), byte(dst>>8), byte(dst)
	h.Write(b[:])
	return h.Sum64()
}

// probeHash drives per-measurement randomness (responsiveness, jitter)
// deterministically from the simulation seed and measurement identity.
func probeHash(seed int64, src, dst uint32, when int64, salt uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (56 - 8*i))
		}
		h.Write(b[:])
	}
	put64(uint64(seed))
	put64(uint64(src)<<32 | uint64(dst))
	put64(uint64(when))
	put64(salt)
	return h.Sum64()
}

func hashFloat(h uint64) float64 {
	return float64(h%1000003) / 1000003.0
}

// intraWeight returns the IGP weight of an intra-AS PoP adjacency,
// including any event-applied perturbation.
func (s *Sim) intraWeight(a *AS, key [2]int) float64 {
	base := s.T.latency(
		s.T.PoPs[a.PoPs[key[0]]].City,
		s.T.PoPs[a.PoPs[key[1]]].City) + 0.5
	if m, ok := s.intraMul[a.ASN][key]; ok {
		return base * m
	}
	return base
}

// popPath returns the PoP-index sequence of the IGP shortest path between
// two PoP indexes of an AS (inclusive of both endpoints).
func (s *Sim) popPath(a *AS, from, to int) []int {
	if from == to {
		return []int{from}
	}
	n := len(a.PoPs)
	dist := make([]float64, n)
	prev := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[from] = 0
	for {
		u, best := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < best {
				u, best = i, dist[i]
			}
		}
		if u == -1 || u == to {
			break
		}
		done[u] = true
		for key := range a.intra {
			var v int
			switch {
			case key[0] == u:
				v = key[1]
			case key[1] == u:
				v = key[0]
			default:
				continue
			}
			if w := dist[u] + s.intraWeight(a, key); w < dist[v] {
				dist[v], prev[v] = w, u
			}
		}
	}
	if math.IsInf(dist[to], 1) {
		return []int{from, to} // disconnected intra graph: pretend direct
	}
	var rev []int
	for cur := to; cur != -1; cur = prev[cur] {
		rev = append(rev, cur)
	}
	out := make([]int, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// popIndex returns the index of pop within the AS's PoP list.
func popIndex(a *AS, pop PoPID) int {
	for i, p := range a.PoPs {
		if p == pop {
			return i
		}
	}
	return 0
}

// hostPoPIdx places a host address at one of its AS's PoPs.
func hostPoPIdx(a *AS, ip uint32) int {
	if len(a.PoPs) == 0 {
		return 0
	}
	return int(flowHash(ip, 0x68757374) % uint64(len(a.PoPs)))
}

// primaryRouter returns the first router of a PoP.
func (t *Topology) primaryRouter(pop PoPID) RouterID {
	return t.PoPs[pop].Routers[0]
}

// Traceroute simulates a traceroute from a source host address toward dstIP
// at virtual time `when`, honoring current routing, active links, diamonds,
// and per-router responsiveness. probeID is recorded in the result.
func (s *Sim) Traceroute(probeID int, srcIP, dstIP uint32, when int64) *traceroute.Traceroute {
	tr := &traceroute.Traceroute{ProbeID: probeID, Time: when, Src: srcIP, Dst: dstIP}
	srcAS, ok := s.T.OriginAS(srcIP)
	if !ok {
		return tr
	}
	dstAS, ok := s.T.OriginAS(dstIP)
	if !ok {
		return tr
	}
	flow := flowHash(srcIP, dstIP)
	rtt := 0.5

	emit := func(ipAddr uint32, router RouterID) {
		respProb := 1.0
		if router != 0 {
			// Three probes per hop, as real traceroute implementations
			// send: the hop answers if any attempt does.
			p := s.T.Routers[router].ResponseProb
			respProb = 1 - (1-p)*(1-p)*(1-p)
		}
		hopIdx := len(tr.Hops)
		h := traceroute.Hop{TTL: hopIdx + 1}
		if hashFloat(probeHash(s.Cfg.Seed, srcIP, dstIP, when, uint64(hopIdx)<<32|uint64(router))) < respProb {
			h.IP = ipAddr
			h.RTT = rtt + 0.2*hashFloat(probeHash(s.Cfg.Seed, srcIP, dstIP, when, 0xa11c^uint64(hopIdx)))
		}
		tr.Hops = append(tr.Hops, h)
	}

	cur := srcAS
	a := s.T.ASes[cur]
	ingressIdx := hostPoPIdx(a, srcIP)
	// Gateway hop in the source AS.
	gw := s.T.primaryRouter(a.PoPs[ingressIdx])
	emit(s.T.Routers[gw].Loopback, gw)
	lastRouter := gw

	for steps := 0; steps < 64; steps++ {
		if cur == dstAS {
			// Intra segment to the destination host's PoP, then the host.
			dstIdx := hostPoPIdx(a, dstIP)
			s.emitIntra(tr, a, ingressIdx, dstIdx, flow, &rtt, emit, &lastRouter)
			rtt += 0.3
			tr.Hops = append(tr.Hops, traceroute.Hop{
				TTL: len(tr.Hops) + 1, IP: dstIP, RTT: rtt,
			})
			tr.Reached = true
			return tr
		}
		next, ok := s.R.nextHop(cur, dstAS)
		if !ok {
			// No route: the trace dies with unresponsive hops.
			for k := 0; k < 3; k++ {
				tr.Hops = append(tr.Hops, traceroute.Hop{TTL: len(tr.Hops) + 1})
			}
			return tr
		}
		lid, ok := s.R.ActiveLink(cur, next, flow)
		if !ok {
			for k := 0; k < 3; k++ {
				tr.Hops = append(tr.Hops, traceroute.Hop{TTL: len(tr.Hops) + 1})
			}
			return tr
		}
		l := s.T.Links[lid]
		var egress RouterID
		var nextRouter RouterID
		var nextIP uint32
		if l.AAS == cur {
			egress, nextRouter, nextIP = l.ARouter, l.BRouter, l.BIP
		} else {
			egress, nextRouter, nextIP = l.BRouter, l.ARouter, l.AIP
		}
		egressIdx := popIndex(a, s.T.Routers[egress].PoP)
		s.emitIntra(tr, a, ingressIdx, egressIdx, flow, &rtt, emit, &lastRouter)
		// Egress border router (unless it is the router we already sit on).
		if egress != lastRouter {
			rtt += 0.2
			emit(s.T.Routers[egress].Loopback, egress)
			lastRouter = egress
		}
		// Cross the border: the far router replies with its ingress
		// interface (the link address; an IXP LAN address for IXP links).
		rtt += s.T.latency(s.T.CityOfRouter(egress), s.T.CityOfRouter(nextRouter)) + 0.2
		emit(nextIP, nextRouter)
		lastRouter = nextRouter

		cur = next
		a = s.T.ASes[cur]
		ingressIdx = popIndex(a, s.T.Routers[nextRouter].PoP)
	}
	return tr
}

// emitIntra walks the IGP path between two PoP indexes of an AS, emitting
// intermediate PoP routers and any load-balanced diamond middle hops.
func (s *Sim) emitIntra(tr *traceroute.Traceroute, a *AS, from, to int, flow uint64,
	rtt *float64, emit func(uint32, RouterID), lastRouter *RouterID) {
	if from == to {
		return
	}
	pops := s.popPath(a, from, to)
	for i := 1; i < len(pops); i++ {
		key := [2]int{pops[i-1], pops[i]}
		if key[0] > key[1] {
			key = [2]int{key[1], key[0]}
		}
		// Diamond branch selection per flow.
		if paths := a.intra[key]; len(paths) > 1 {
			branch := paths[flow%uint64(len(paths))]
			for _, mid := range branch.routers {
				*rtt += 0.3
				emit(s.T.Routers[mid].Loopback, mid)
				*lastRouter = mid
			}
		}
		r := s.T.primaryRouter(a.PoPs[pops[i]])
		if r == *lastRouter {
			continue
		}
		*rtt += s.T.latency(s.T.PoPs[a.PoPs[pops[i-1]]].City, s.T.PoPs[a.PoPs[pops[i]]].City) * 0.1
		emit(s.T.Routers[r].Loopback, r)
		*lastRouter = r
	}
}

// Ping returns a simulated round-trip time in milliseconds from a vantage
// city to a target interface, or false if the target does not respond.
// Used by the shortest-ping geolocation technique (Appendix A).
func (s *Sim) Ping(fromCity CityID, targetIP uint32, when int64) (float64, bool) {
	r, ok := s.T.RouterForIP(targetIP)
	if !ok {
		return 0, false
	}
	if hashFloat(probeHash(s.Cfg.Seed, uint32(fromCity), targetIP, when, 0x1c4)) >= s.T.Routers[r].ResponseProb {
		return 0, false
	}
	d := s.T.latency(fromCity, s.T.CityOfRouter(r))
	return 0.2 + d*0.4, true
}

// BorderCrossings lists, in order, the (egress router, ingress router, link)
// triples a flow crosses from src to dst under current routing. This is the
// simulator's ground truth for border-level paths.
type BorderCrossing struct {
	Link    LinkID
	FromAS  bgp.ASN
	ToAS    bgp.ASN
	Egress  RouterID
	Ingress RouterID
}

// Borders returns the ground-truth border crossings for a flow.
func (s *Sim) Borders(srcIP, dstIP uint32) []BorderCrossing {
	srcAS, ok := s.T.OriginAS(srcIP)
	if !ok {
		return nil
	}
	dstAS, ok := s.T.OriginAS(dstIP)
	if !ok {
		return nil
	}
	flow := flowHash(srcIP, dstIP)
	var out []BorderCrossing
	cur := srcAS
	for steps := 0; steps < 64 && cur != dstAS; steps++ {
		next, ok := s.R.nextHop(cur, dstAS)
		if !ok {
			return out
		}
		lid, ok := s.R.ActiveLink(cur, next, flow)
		if !ok {
			return out
		}
		l := s.T.Links[lid]
		bc := BorderCrossing{Link: lid, FromAS: cur, ToAS: next}
		if l.AAS == cur {
			bc.Egress, bc.Ingress = l.ARouter, l.BRouter
		} else {
			bc.Egress, bc.Ingress = l.BRouter, l.ARouter
		}
		out = append(out, bc)
		cur = next
	}
	return out
}
