// Package traceroute models traceroute measurements and implements the
// standard processing steps from the paper's Appendix A: IP-to-AS mapping
// with merging of consecutive identical AS hops, AS-loop filtering,
// unresponsive-hop patching, and conversion of IP-level paths to AS-level
// and border-router-level granularities (§3).
package traceroute

import (
	"fmt"
	"strings"

	"rrr/internal/bgp"
	"rrr/internal/trie"
)

// Hop is one traceroute hop. IP == 0 means the hop did not respond ("*").
type Hop struct {
	IP  uint32
	RTT float64 // round-trip time in milliseconds; 0 if unresponsive
	TTL int
}

// Responsive reports whether the hop replied.
func (h Hop) Responsive() bool { return h.IP != 0 }

// String renders the hop IP or "*".
func (h Hop) String() string {
	if !h.Responsive() {
		return "*"
	}
	return trie.FormatIP(h.IP)
}

// Traceroute is one measured path from Src toward Dst.
type Traceroute struct {
	// MsmID identifies the measurement campaign (RIPE Atlas msm_id).
	MsmID int64
	// ProbeID identifies the vantage point that issued the traceroute.
	ProbeID int
	// Time is the measurement timestamp in seconds since the epoch.
	Time int64
	// Src and Dst are the source and destination addresses.
	Src, Dst uint32
	// Hops is the hop sequence in TTL order.
	Hops []Hop
	// Reached reports whether the destination replied.
	Reached bool
}

// Key identifies the (source, destination) pair a traceroute measures.
type Key struct {
	Src uint32
	Dst uint32
}

// Key returns the traceroute's (src, dst) pair.
func (t *Traceroute) Key() Key { return Key{Src: t.Src, Dst: t.Dst} }

// String renders the key as "src->dst".
func (k Key) String() string {
	return trie.FormatIP(k.Src) + "->" + trie.FormatIP(k.Dst)
}

// IPPath returns the hop IPs (0 for unresponsive hops).
func (t *Traceroute) IPPath() []uint32 {
	return t.AppendIPPath(make([]uint32, 0, len(t.Hops)))
}

// AppendIPPath is IPPath appending to out.
func (t *Traceroute) AppendIPPath(out []uint32) []uint32 {
	for _, h := range t.Hops {
		out = append(out, h.IP)
	}
	return out
}

// Clone deep-copies the traceroute.
func (t *Traceroute) Clone() *Traceroute {
	out := *t
	out.Hops = make([]Hop, len(t.Hops))
	copy(out.Hops, t.Hops)
	return &out
}

// String renders "src -> dst: hop hop * hop".
func (t *Traceroute) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s -> %s:", trie.FormatIP(t.Src), trie.FormatIP(t.Dst))
	for _, h := range t.Hops {
		b.WriteByte(' ')
		b.WriteString(h.String())
	}
	return b.String()
}

// Mapper resolves hop IPs to origin ASes and identifies IXP interfaces.
// Implementations combine longest-prefix matching over BGP-advertised
// prefixes, RIR delegations, and IXP prefix lists (Appendix A).
type Mapper interface {
	// ASOf maps ip to the AS that originates its covering prefix.
	ASOf(ip uint32) (bgp.ASN, bool)
	// IXPOf reports whether ip belongs to an IXP peering LAN, and if so
	// which exchange (an opaque nonzero identifier). IXP interfaces are
	// assigned to the member AS they belong to by traIXroute-style
	// resolution, which the caller does separately.
	IXPOf(ip uint32) (int, bool)
}

// ASHop is one AS-granularity hop of a traceroute, with the hop-index range
// of the underlying IP hops.
type ASHop struct {
	AS bgp.ASN
	// First and Last are inclusive indices into Traceroute.Hops.
	First, Last int
}

// errASLoop is returned when a traceroute's AS mapping contains a loop and
// must be discarded (Appendix A).
var errASLoop = fmt.Errorf("traceroute: AS-level loop")

// ASPath maps the traceroute to AS granularity per Appendix A: consecutive
// identical AS hops merge into one; two hops mapping to the same AS
// separated by unmapped hops also merge; IXP interfaces are transparent
// (attributed to neither side). Traceroutes whose mapping contains an AS
// loop return errASLoop.
func ASPath(t *Traceroute, m Mapper) ([]ASHop, error) {
	var out []ASHop
	for i, h := range t.Hops {
		if !h.Responsive() {
			continue
		}
		if _, isIXP := m.IXPOf(h.IP); isIXP {
			continue
		}
		as, ok := m.ASOf(h.IP)
		if !ok {
			continue
		}
		if n := len(out); n > 0 && out[n-1].AS == as {
			out[n-1].Last = i
			continue
		}
		out = append(out, ASHop{AS: as, First: i, Last: i})
	}
	// Merge hops that map to the same AS across a *different* mapped AS is
	// a loop; across unmapped hops they were already merged above.
	seen := make(map[bgp.ASN]bool, len(out))
	for _, h := range out {
		if seen[h.AS] {
			return nil, errASLoop
		}
		seen[h.AS] = true
	}
	return out, nil
}

// ASNs extracts the plain AS path from an ASHop sequence.
func ASNs(hops []ASHop) bgp.Path {
	out := make(bgp.Path, len(hops))
	for i, h := range hops {
		out[i] = h.AS
	}
	return out
}
