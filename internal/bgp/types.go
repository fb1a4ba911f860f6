// Package bgp models BGP routes, updates, communities, collector peers, and
// per-peer RIB views, plus binary (MRT-like) and text codecs for update
// streams. It is the feed substrate for the BGP-based staleness prediction
// techniques (paper §4.1): the point is not to build an AS-level topology but
// to expose update *dynamics* — AS-path changes, community changes, and
// duplicate updates — per vantage point.
package bgp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"rrr/internal/trie"
)

// ASN is an autonomous system number.
type ASN uint32

// String renders the ASN in the conventional "ASxxx" form.
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// Community is a standard 32-bit BGP community. By convention the top 16
// bits identify the AS that defines the community and the bottom 16 bits
// carry the AS-specific value (paper §4.1.3, Fig 3).
type Community uint32

// MakeCommunity builds a community from the defining AS and value.
func MakeCommunity(as ASN, value uint16) Community {
	return Community(uint32(as)<<16 | uint32(value))
}

// AS returns the AS that defines the community (top 16 bits).
func (c Community) AS() ASN { return ASN(uint32(c) >> 16) }

// Value returns the AS-specific value (bottom 16 bits).
func (c Community) Value() uint16 { return uint16(c) }

// String renders the community in "AS:value" notation, e.g. "13030:51701".
func (c Community) String() string {
	return fmt.Sprintf("%d:%d", uint32(c)>>16, uint16(c))
}

// parseCommunity parses "AS:value" notation.
func parseCommunity(s string) (Community, error) {
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return 0, fmt.Errorf("bgp: bad community %q: missing colon", s)
	}
	as, err1 := strconv.ParseUint(s[:colon], 10, 16)
	val, err2 := strconv.ParseUint(s[colon+1:], 10, 16)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bgp: bad community %q", s)
	}
	return MakeCommunity(ASN(as), uint16(val)), nil
}

// Path is an AS path: the sequence of ASNs from the vantage point (first
// element) to the origin AS (last element).
type Path []ASN

// Equal reports whether two paths have identical hops.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the path.
func (p Path) Clone() Path {
	if p == nil {
		return nil
	}
	out := make(Path, len(p))
	copy(out, p)
	return out
}

// Contains reports whether the path traverses as.
func (p Path) Contains(as ASN) bool {
	for _, a := range p {
		if a == as {
			return true
		}
	}
	return false
}

// Index returns the position of the first occurrence of as, or -1.
func (p Path) Index(as ASN) int {
	for i, a := range p {
		if a == as {
			return i
		}
	}
	return -1
}

// Origin returns the origin AS (last hop) or 0 for an empty path.
func (p Path) Origin() ASN {
	if len(p) == 0 {
		return 0
	}
	return p[len(p)-1]
}

// Compact collapses consecutive duplicate ASNs (prepending) into one hop.
func (p Path) Compact() Path {
	if len(p) == 0 {
		return nil
	}
	out := make(Path, 0, len(p))
	for _, a := range p {
		if len(out) == 0 || out[len(out)-1] != a {
			out = append(out, a)
		}
	}
	return out
}

// HasLoop reports whether any AS appears in two non-adjacent positions of
// the compacted path.
func (p Path) HasLoop() bool {
	c := p.Compact()
	seen := make(map[ASN]bool, len(c))
	for _, a := range c {
		if seen[a] {
			return true
		}
		seen[a] = true
	}
	return false
}

// Suffix returns the subpath from the first occurrence of as to the origin,
// or nil if as is not on the path.
func (p Path) Suffix(as ASN) Path {
	i := p.Index(as)
	if i < 0 {
		return nil
	}
	return p[i:]
}

// String renders the path as space-separated ASNs, matching the ASPATH line
// of the text codec.
func (p Path) String() string {
	parts := make([]string, len(p))
	for i, a := range p {
		parts[i] = strconv.FormatUint(uint64(a), 10)
	}
	return strings.Join(parts, " ")
}

// parsePath parses a space-separated list of ASNs.
func parsePath(s string) (Path, error) {
	fields := strings.Fields(s)
	out := make(Path, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bgp: bad AS path element %q", f)
		}
		out = append(out, ASN(v))
	}
	return out, nil
}

// Communities is a community set. It is kept sorted for fast comparison.
type Communities []Community

// NormalizeCommunities sorts and deduplicates a community set in place and
// returns it.
func NormalizeCommunities(cs Communities) Communities {
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	out := cs[:0]
	for i, c := range cs {
		if i == 0 || c != cs[i-1] {
			out = append(out, c)
		}
	}
	return out
}

// Equal reports whether two normalized community sets are identical.
func (cs Communities) Equal(other Communities) bool {
	if len(cs) != len(other) {
		return false
	}
	for i := range cs {
		if cs[i] != other[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the set.
func (cs Communities) Clone() Communities {
	if cs == nil {
		return nil
	}
	out := make(Communities, len(cs))
	copy(out, cs)
	return out
}

// Diff returns the communities present in cs but not in other. Both sets
// must be normalized.
func (cs Communities) Diff(other Communities) Communities {
	var out Communities
	i, j := 0, 0
	for i < len(cs) {
		switch {
		case j >= len(other) || cs[i] < other[j]:
			out = append(out, cs[i])
			i++
		case cs[i] == other[j]:
			i++
			j++
		default:
			j++
		}
	}
	return out
}

// String renders the set as space-separated "AS:value" tokens.
func (cs Communities) String() string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return strings.Join(parts, " ")
}

// UpdateType distinguishes announcements from withdrawals.
type UpdateType uint8

// Update types.
const (
	Announce UpdateType = iota
	Withdraw
)

// String names the update type.
func (t UpdateType) String() string {
	if t == Withdraw {
		return "WITHDRAW"
	}
	return "ANNOUNCE"
}

// Update is one BGP update observed at a route collector from a peer
// (vantage point). Time is seconds since the simulation epoch (or Unix
// seconds for real feeds). MED is a non-transitive attribute: a change in
// MED alone produces a "duplicate" update downstream (paper §4.1.4).
type Update struct {
	Time        int64
	PeerIP      uint32
	PeerAS      ASN
	Type        UpdateType
	Prefix      trie.Prefix
	ASPath      Path
	Communities Communities
	MED         uint32
}

// Route is the state a VP holds for a prefix: the attributes from the most
// recent announcement.
type Route struct {
	Prefix      trie.Prefix
	ASPath      Path
	Communities Communities
	MED         uint32
	Updated     int64
}

// VPKey identifies a vantage point: a router peering with a collector.
type VPKey struct {
	PeerIP uint32
	PeerAS ASN
}

// String renders the VP as "ip (ASx)".
func (k VPKey) String() string {
	return fmt.Sprintf("%s (%s)", trie.FormatIP(k.PeerIP), k.PeerAS)
}
