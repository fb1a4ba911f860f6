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
//
// The answer for an IP must not change while the oracle is in use, unless
// the oracle also has a method Generation() uint64 whose value changes
// whenever any answer may have changed: the signal engine keeps each
// interface's answers and asks again only for an IP it has not resolved
// under the current generation.
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

// BorderID is a crossing's identity for border-level path comparison: the
// AS pair plus the border router, or minus the far interface address when
// alias resolution failed. It is comparable, and two crossings have equal
// IDs exactly when they have equal Keys.
type BorderID struct {
	FromAS, ToAS bgp.ASN
	Router       int
}

// ID returns the crossing's comparable identity.
func (b BorderHop) ID() BorderID {
	id := b.Router
	if id == 0 {
		id = -int(b.FarIP)
	}
	return BorderID{FromAS: b.FromAS, ToAS: b.ToAS, Router: id}
}

// Key returns the printed form of ID, "from-to@router".
func (b BorderHop) Key() string {
	id := b.ID()
	return fmt.Sprintf("%d-%d@%d", id.FromAS, id.ToAS, id.Router)
}

// IXPMembershipResolver assigns an IXP LAN interface to the member AS it
// belongs to, as traIXroute does from exchange membership data. Mappers
// that can resolve memberships should implement it; MapHop detects it by
// type assertion.
type IXPMembershipResolver interface {
	IXPMemberOf(ip uint32) (bgp.ASN, bool)
}

// BorderPath extracts the ordered border crossings of a traceroute. It
// follows Appendix A: AS transitions between responsive mapped hops become
// borders; an IXP interface is the border itself, attributed to the member
// AS it is assigned to when membership data resolves it, otherwise to the
// next mapped AS after the LAN. It asks the mapper about every hop
// (MapHop), leaves the crossings to AppendBorders, and asks the alias
// oracle only about the crossings' far interfaces.
func BorderPath(t *traceroute.Traceroute, m traceroute.Mapper, aliases AliasOracle) []BorderHop {
	// Traceroutes are tens of hops at most: the mapped-hop list lives on
	// the stack unless a trace is longer than any probe sends.
	hops := make([]MappedHop, 0, 64)
	for i, h := range t.Hops {
		if !h.Responsive() {
			continue
		}
		if mh, ok := MapHop(h.IP, m, nil); ok {
			mh.Idx = i
			hops = append(hops, mh)
		}
	}
	// The crossings are gathered on the stack too and copied out at their
	// final count: an entry keeps its border path for as long as it is
	// tracked, so append's slack would stay with it.
	var buf [32]BorderHop
	found := AppendBorders(buf[:0], hops)
	if len(found) == 0 {
		return nil
	}
	out := append(make([]BorderHop, 0, len(found)), found...)
	if aliases != nil {
		for i := range out {
			if r, ok := aliases.RouterOf(out[i].FarIP); ok {
				out[i].Router = r
			}
		}
	}
	return out
}

// MappedHop is one responsive traceroute hop that maps into an AS or onto
// an IXP LAN, with every answer border mapping needs about it.
type MappedHop struct {
	// Idx indexes the hop in the source traceroute.
	Idx int
	IP  uint32
	// AS is the hop's origin AS or, for an IXP interface, the member AS
	// it is assigned to; 0 for an IXP interface whose member is unknown.
	AS bgp.ASN
	// IXP is nonzero for an IXP LAN interface.
	IXP int
	// Router is the interface's alias-resolved router; 0 when unresolved.
	Router int
}

// MapHop asks the services about one responsive hop address: an IXP LAN
// interface with the member it is assigned to (when m resolves
// membership), else its origin AS, and its router when aliases is not nil.
// ok is false when ip is on no IXP LAN and maps to no AS; the hop then
// takes no part in border mapping, and only IP is set. Idx is left zero.
func MapHop(ip uint32, m traceroute.Mapper, aliases AliasOracle) (MappedHop, bool) {
	mh := MappedHop{IP: ip}
	if ixp, ok := m.IXPOf(ip); ok {
		mh.IXP = ixp
		if membership, ok := m.(IXPMembershipResolver); ok {
			if as, ok := membership.IXPMemberOf(ip); ok {
				mh.AS = as
			}
		}
	} else if as, ok := m.ASOf(ip); ok {
		mh.AS = as
	} else {
		return mh, false
	}
	if aliases != nil {
		if r, ok := aliases.RouterOf(ip); ok {
			mh.Router = r
		}
	}
	return mh, true
}

// AppendBorders appends the border crossings of a traceroute's mapped
// hops, given in hop order, to out. It is BorderPath's Appendix A logic
// for callers that resolve hops themselves; nothing of hops is retained.
func AppendBorders(out []BorderHop, hops []MappedHop) []BorderHop {
	for i := 1; i < len(hops); i++ {
		prev, cur := &hops[i-1], &hops[i]
		if prev.AS == 0 {
			continue // unresolved IXP interface: crossing handled at entry
		}
		toAS := cur.AS
		if toAS == 0 {
			// cur is an IXP interface with unknown member: the border's
			// far AS is the next mapped AS after the LAN.
			for j := i + 1; j < len(hops); j++ {
				if hops[j].AS != 0 {
					toAS = hops[j].AS
					break
				}
			}
			if toAS == 0 {
				continue
			}
		}
		if toAS == prev.AS {
			continue
		}
		out = append(out, BorderHop{
			FromAS: prev.AS, ToAS: toAS,
			NearIP: prev.IP, FarIP: cur.IP,
			Router: cur.Router, IXP: cur.IXP,
			NearIdx: prev.Idx, FarIdx: cur.Idx,
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

func routersByPair(bs []BorderHop) map[[2]bgp.ASN][]BorderID {
	out := make(map[[2]bgp.ASN][]BorderID, len(bs))
	for _, b := range bs {
		pair := [2]bgp.ASN{b.FromAS, b.ToAS}
		out[pair] = append(out[pair], b.ID())
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
