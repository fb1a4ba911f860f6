package bgp

import (
	"sort"

	"rrr/internal/trie"
)

// ChangeKind classifies what an update changed relative to the VP's previous
// route for the prefix. The staleness techniques key off this classification:
// AS-path changes feed §4.1.2, community changes feed §4.1.3, and duplicates
// feed §4.1.4.
type ChangeKind uint8

// Change kinds, ordered by decreasing severity.
const (
	// ChangeNew is the first announcement for (vp, prefix).
	ChangeNew ChangeKind = iota
	// ChangeWithdrawn removes the route.
	ChangeWithdrawn
	// ChangeASPath means the AS path differs from the previous route.
	ChangeASPath
	// ChangeCommunities means the AS path is identical but the community
	// set differs.
	ChangeCommunities
	// ChangeDuplicate means all transitive attributes (AS path,
	// communities) are identical to the previous route; only non-transitive
	// attributes such as MED may have changed. Routers emit these when they
	// change routes at a granularity invisible to BGP (paper §4.1.4).
	ChangeDuplicate
)

// String names the change kind.
func (k ChangeKind) String() string {
	switch k {
	case ChangeNew:
		return "new"
	case ChangeWithdrawn:
		return "withdrawn"
	case ChangeASPath:
		return "aspath"
	case ChangeCommunities:
		return "communities"
	case ChangeDuplicate:
		return "duplicate"
	}
	return "unknown"
}

// Change describes the effect of applying one update to a RIB.
type Change struct {
	Kind ChangeKind
	VP   VPKey
	// Prev is the route before the update (nil for ChangeNew).
	Prev *Route
	// Cur is the route after the update (nil for ChangeWithdrawn).
	Cur *Route
	// Update is the update that caused the change.
	Update Update
}

// RIB maintains per-VP routing tables: for every vantage point, the current
// route to every prefix it has announced. It mirrors what BGPStream table
// views provide (paper §4.1.1).
type RIB struct {
	tables map[VPKey]*vpTable
	// commScratch is reused across Apply calls to normalize the incoming
	// community set without cloning it first. The dominant update class in
	// steady state is duplicates (paper §4.1.4), where the normalized set
	// matches the previous route and no allocation is needed at all.
	commScratch Communities
}

type vpTable struct {
	trie trie.Trie[*Route]
}

// NewRIB returns an empty RIB.
func NewRIB() *RIB {
	return &RIB{tables: make(map[VPKey]*vpTable)}
}

// Apply ingests one update and returns the classified change. Withdrawals
// for unknown routes return a Change with Kind ChangeWithdrawn and nil Prev.
func (r *RIB) Apply(u Update) Change {
	vp := VPKey{PeerIP: u.PeerIP, PeerAS: u.PeerAS}
	tbl := r.tables[vp]
	if tbl == nil {
		tbl = &vpTable{}
		r.tables[vp] = tbl
	}
	prev, _ := tbl.trie.Get(u.Prefix)

	if u.Type == Withdraw {
		if prev != nil {
			tbl.trie.Delete(u.Prefix)
		}
		return Change{Kind: ChangeWithdrawn, VP: vp, Prev: prev, Update: u}
	}

	cur := &Route{
		Prefix:  u.Prefix,
		MED:     u.MED,
		Updated: u.Time,
	}
	// Routes are immutable once inserted, so an unchanged attribute can
	// alias the previous route's slice instead of cloning the update's.
	samePath := prev != nil && prev.ASPath.Equal(u.ASPath)
	if samePath {
		cur.ASPath = prev.ASPath
	} else {
		cur.ASPath = u.ASPath.Clone()
	}
	r.commScratch = NormalizeCommunities(append(r.commScratch[:0], u.Communities...))
	sameComms := prev != nil && prev.Communities.Equal(r.commScratch)
	if sameComms {
		cur.Communities = prev.Communities
	} else {
		cur.Communities = NormalizeCommunities(u.Communities.Clone())
	}
	tbl.trie.Insert(u.Prefix, cur)

	switch {
	case prev == nil:
		return Change{Kind: ChangeNew, VP: vp, Cur: cur, Update: u}
	case !samePath:
		return Change{Kind: ChangeASPath, VP: vp, Prev: prev, Cur: cur, Update: u}
	case !sameComms:
		return Change{Kind: ChangeCommunities, VP: vp, Prev: prev, Cur: cur, Update: u}
	default:
		return Change{Kind: ChangeDuplicate, VP: vp, Prev: prev, Cur: cur, Update: u}
	}
}

// Route returns vp's current route for the exact prefix.
func (r *RIB) Route(vp VPKey, p trie.Prefix) (*Route, bool) {
	tbl := r.tables[vp]
	if tbl == nil {
		return nil, false
	}
	return tbl.trie.Get(p)
}

// Lookup returns vp's most specific route covering ip, mirroring the
// "find the most specific prefix advertised by each BGP vantage point"
// step of §4.1.1.
func (r *RIB) Lookup(vp VPKey, ip uint32) (*Route, bool) {
	tbl := r.tables[vp]
	if tbl == nil {
		return nil, false
	}
	rt, ok := tbl.trie.Lookup(ip)
	if !ok || rt == nil {
		return nil, false
	}
	return rt, true
}

// VPs returns all vantage points present in the RIB, sorted for determinism.
func (r *RIB) VPs() []VPKey {
	out := make([]VPKey, 0, len(r.tables))
	for vp := range r.tables {
		out = append(out, vp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PeerIP != out[j].PeerIP {
			return out[i].PeerIP < out[j].PeerIP
		}
		return out[i].PeerAS < out[j].PeerAS
	})
	return out
}

// FilterTooSpecific reports whether an update should be excluded because its
// prefix is more specific than /24; such prefixes generally do not propagate
// far and may indicate misconfiguration or blackholing (paper §4.1.1).
func FilterTooSpecific(p trie.Prefix) bool { return p.Len > 24 }

// Prefixes returns all prefixes vp currently holds routes for, sorted.
func (r *RIB) Prefixes(vp VPKey) []trie.Prefix {
	tbl := r.tables[vp]
	if tbl == nil {
		return nil
	}
	return tbl.trie.Prefixes()
}
