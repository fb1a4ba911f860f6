// Package bordermap infers AS boundaries in traceroutes and resolves
// interface aliases to routers, standing in for bdrmapIT/MAP-IT and MIDAR
// (paper Appendix A). The border-router granularity it produces — each hop a
// border router with one or more interface aliases — is the abstraction the
// paper's change definitions are stated at (§3): a border-level change is a
// change in border routers while the AS path stays the same.
package bordermap

import (
	"fmt"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
)

// AliasOracle resolves an interface address to an opaque router identifier.
// The primary implementation is MIDAR-style alias resolution, which the
// paper consumes as an external service; the simulator provides ground
// truth.
type AliasOracle interface {
	RouterOf(ip uint32) (int, bool)
}

// OracleFunc adapts a function to AliasOracle.
type OracleFunc func(ip uint32) (int, bool)

// RouterOf implements AliasOracle.
func (f OracleFunc) RouterOf(ip uint32) (int, bool) { return f(ip) }

// BorderHop is one inter-AS crossing observed in a traceroute: the last
// responsive hop in FromAS and the first responsive hop mapped into ToAS
// (or an IXP interface, which we take as the border per Appendix A).
type BorderHop struct {
	FromAS bgp.ASN
	ToAS   bgp.ASN
	// NearIP is the egress-side interface (in FromAS).
	NearIP uint32
	// FarIP is the ingress-side interface: ToAS address space or an IXP
	// LAN address assigned to the ToAS member.
	FarIP uint32
	// Router is the alias-resolved identity of the far (ingress) border
	// router; 0 when unresolved.
	Router int
	// IXP is nonzero when the crossing traverses an exchange LAN.
	IXP int
	// NearIdx and FarIdx index the hops in the source traceroute.
	NearIdx, FarIdx int
}

// Key returns the identity used for border-level path comparison: the
// AS pair plus the border router (falling back to the interface when alias
// resolution failed).
func (b BorderHop) Key() string {
	id := b.Router
	if id == 0 {
		id = -int(b.FarIP)
	}
	return fmt.Sprintf("%d-%d@%d", b.FromAS, b.ToAS, id)
}

// IXPMembershipResolver assigns an IXP LAN interface to the member AS it
// belongs to, as traIXroute does from exchange membership data. Mappers
// that can resolve memberships should implement it; BorderPath detects it
// by type assertion.
type IXPMembershipResolver interface {
	IXPMemberOf(ip uint32) (bgp.ASN, bool)
}

// BorderPath extracts the ordered border crossings of a traceroute. It
// follows Appendix A: AS transitions between responsive mapped hops become
// borders; an IXP interface is the border itself, attributed to the member
// AS it is assigned to when membership data resolves it, otherwise to the
// next mapped AS after the LAN.
func BorderPath(t *traceroute.Traceroute, m traceroute.Mapper, aliases AliasOracle) []BorderHop {
	return AppendBorderPath(nil, t, m, aliases)
}

// AppendBorderPath is BorderPath appending to out, for callers that map
// one traceroute after another into a buffer they own. Nothing of t is
// retained.
func AppendBorderPath(out []BorderHop, t *traceroute.Traceroute, m traceroute.Mapper, aliases AliasOracle) []BorderHop {
	type mapped struct {
		idx int
		ip  uint32
		as  bgp.ASN
		ixp int
	}
	membership, _ := m.(IXPMembershipResolver)
	// Traceroutes are tens of hops at most: the mapped-hop list lives on
	// the stack unless a trace is longer than any probe sends.
	hops := make([]mapped, 0, 64)
	for i, h := range t.Hops {
		if !h.Responsive() {
			continue
		}
		if ixp, ok := m.IXPOf(h.IP); ok {
			mh := mapped{idx: i, ip: h.IP, ixp: ixp}
			if membership != nil {
				if as, ok := membership.IXPMemberOf(h.IP); ok {
					mh.as = as
				}
			}
			hops = append(hops, mh)
			continue
		}
		if as, ok := m.ASOf(h.IP); ok {
			hops = append(hops, mapped{idx: i, ip: h.IP, as: as})
		}
	}
	resolve := func(ip uint32) int {
		if aliases == nil {
			return 0
		}
		r, ok := aliases.RouterOf(ip)
		if !ok {
			return 0
		}
		return r
	}
	for i := 1; i < len(hops); i++ {
		prev, cur := hops[i-1], hops[i]
		if prev.as == 0 {
			continue // unresolved IXP interface: crossing handled at entry
		}
		if cur.as != 0 {
			if cur.as != prev.as {
				out = append(out, BorderHop{
					FromAS: prev.as, ToAS: cur.as,
					NearIP: prev.ip, FarIP: cur.ip,
					Router: resolve(cur.ip), IXP: cur.ixp,
					NearIdx: prev.idx, FarIdx: cur.idx,
				})
			}
			continue
		}
		// cur is an IXP interface with unknown member: the border's far AS
		// is the next mapped AS after the LAN.
		toAS := bgp.ASN(0)
		for j := i + 1; j < len(hops); j++ {
			if hops[j].as != 0 {
				toAS = hops[j].as
				break
			}
		}
		if toAS == 0 || toAS == prev.as {
			continue
		}
		out = append(out, BorderHop{
			FromAS: prev.as, ToAS: toAS,
			NearIP: prev.ip, FarIP: cur.ip,
			Router: resolve(cur.ip), IXP: cur.ixp,
			NearIdx: prev.idx, FarIdx: cur.idx,
		})
	}
	return out
}

// borderLevelChanged compares two border paths tolerantly: crossings are
// aligned by AS pair, and only AS pairs visible in *both* paths can
// indicate a change (crossings hidden by unresponsive hops act as
// wildcards, per Appendix A). It reports true when some shared AS pair
// crosses a different border router.
func borderLevelChanged(a, b []BorderHop) bool {
	am := routersByPair(a)
	bm := routersByPair(b)
	for pair, ra := range am {
		rb, ok := bm[pair]
		if !ok {
			continue
		}
		n := len(ra)
		if len(rb) < n {
			n = len(rb)
		}
		for i := 0; i < n; i++ {
			if ra[i] != rb[i] {
				return true
			}
		}
	}
	return false
}

func routersByPair(bs []BorderHop) map[[2]bgp.ASN][]string {
	out := make(map[[2]bgp.ASN][]string, len(bs))
	for _, b := range bs {
		pair := [2]bgp.ASN{b.FromAS, b.ToAS}
		out[pair] = append(out[pair], b.Key())
	}
	return out
}

// ChangeClass classifies the difference between two versions of a path per
// §3 of the paper.
type ChangeClass int

// Change classes.
const (
	// Unchanged: same AS path and same border routers.
	Unchanged ChangeClass = iota
	// BorderChange: same AS path, different border router(s).
	BorderChange
	// ASChange: the AS path itself differs.
	ASChange
)

// String names the change class.
func (c ChangeClass) String() string {
	switch c {
	case Unchanged:
		return "unchanged"
	case BorderChange:
		return "border-change"
	default:
		return "as-change"
	}
}

// Classify compares two observations of the same (src, dst) path. AS paths
// are compared first; only if they match is the border level consulted
// (a border change is by definition not an AS change, §3). The border
// comparison is tolerant to crossings hidden by unresponsive hops.
func Classify(oldAS, newAS bgp.Path, oldB, newB []BorderHop) ChangeClass {
	if !oldAS.Equal(newAS) {
		return ASChange
	}
	if borderLevelChanged(oldB, newB) {
		return BorderChange
	}
	return Unchanged
}
