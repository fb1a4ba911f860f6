package bgp

import (
	"cmp"
	"math/bits"
	"slices"

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

// Change describes the effect of applying one update to a RIB. It holds
// the routes by value: no pointer into the RIB's tables escapes.
type Change struct {
	Kind ChangeKind
	VP   VPKey
	// HasPrev reports whether the VP held a route for the prefix before
	// the update; Prev is that route (the zero Route when it held none).
	HasPrev bool
	Prev    Route
	// Cur is the route after the update (the zero Route for
	// ChangeWithdrawn).
	Cur Route
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

// vpTable is one VP's routes, keyed by trie.Prefix.Key. lens counts the
// routes of each prefix length and present has bit l set while lens[l] is
// non-zero, so a longest-prefix match probes only the lengths present.
type vpTable struct {
	routes  map[uint64]Route
	lens    [33]int32
	present uint64
}

// NewRIB returns an empty RIB.
func NewRIB() *RIB {
	return &RIB{tables: make(map[VPKey]*vpTable)}
}

// Apply ingests one update and returns the classified change. Withdrawals
// for unknown routes return a Change with Kind ChangeWithdrawn and no Prev.
// A duplicate or a withdrawal allocates nothing; a changed AS path or
// community set allocates its one new slice. The table never aliases the
// update's slices: they stay the caller's.
func (r *RIB) Apply(u Update) Change {
	vp := VPKey{PeerIP: u.PeerIP, PeerAS: u.PeerAS}
	tbl := r.tables[vp]
	if tbl == nil {
		tbl = &vpTable{routes: make(map[uint64]Route)}
		r.tables[vp] = tbl
	}
	key := u.Prefix.Key()
	prev, had := tbl.routes[key]

	if u.Type == Withdraw {
		if had {
			delete(tbl.routes, key)
			tbl.count(u.Prefix.Len, -1)
		}
		return Change{Kind: ChangeWithdrawn, VP: vp, HasPrev: had, Prev: prev}
	}

	cur := Route{MED: u.MED, Updated: u.Time}
	// The table never writes into a route's slices, so an unchanged
	// attribute shares the previous route's slice instead of cloning the
	// update's.
	samePath := had && prev.ASPath.Equal(u.ASPath)
	if samePath {
		cur.ASPath = prev.ASPath
	} else {
		cur.ASPath = u.ASPath.Clone()
	}
	r.commScratch = NormalizeCommunities(append(r.commScratch[:0], u.Communities...))
	sameComms := had && prev.Communities.Equal(r.commScratch)
	switch {
	case sameComms:
		cur.Communities = prev.Communities
	case u.Communities != nil:
		cur.Communities = append(make(Communities, 0, len(r.commScratch)), r.commScratch...)
	}
	tbl.routes[key] = cur

	switch {
	case !had:
		tbl.count(u.Prefix.Len, 1)
		return Change{Kind: ChangeNew, VP: vp, Cur: cur}
	case !samePath:
		return Change{Kind: ChangeASPath, VP: vp, HasPrev: true, Prev: prev, Cur: cur}
	case !sameComms:
		return Change{Kind: ChangeCommunities, VP: vp, HasPrev: true, Prev: prev, Cur: cur}
	default:
		return Change{Kind: ChangeDuplicate, VP: vp, HasPrev: true, Prev: prev, Cur: cur}
	}
}

// count adds d to the number of routes of prefix length l.
func (t *vpTable) count(l uint8, d int32) {
	t.lens[l] += d
	if t.lens[l] == 0 {
		t.present &^= 1 << l
	} else {
		t.present |= 1 << l
	}
}

// Route returns vp's current route for the exact prefix.
func (r *RIB) Route(vp VPKey, p trie.Prefix) (Route, bool) {
	tbl := r.tables[vp]
	if tbl == nil {
		return Route{}, false
	}
	rt, ok := tbl.routes[p.Key()]
	return rt, ok
}

// Lookup returns vp's most specific route covering ip and its prefix,
// mirroring the "find the most specific prefix advertised by each BGP
// vantage point" step of §4.1.1. It probes the prefix lengths the table
// holds, longest first.
func (r *RIB) Lookup(vp VPKey, ip uint32) (trie.Prefix, Route, bool) {
	tbl := r.tables[vp]
	if tbl == nil {
		return trie.Prefix{}, Route{}, false
	}
	for m := tbl.present; m != 0; {
		l := uint8(63 - bits.LeadingZeros64(m))
		m &^= 1 << l
		p := trie.MakePrefix(ip, l)
		if rt, ok := tbl.routes[p.Key()]; ok {
			return p, rt, true
		}
	}
	return trie.Prefix{}, Route{}, false
}

// VPs returns all vantage points present in the RIB, sorted for determinism.
func (r *RIB) VPs() []VPKey {
	out := make([]VPKey, 0, len(r.tables))
	for vp := range r.tables {
		out = append(out, vp)
	}
	slices.SortFunc(out, func(a, b VPKey) int {
		if c := cmp.Compare(a.PeerIP, b.PeerIP); c != 0 {
			return c
		}
		return cmp.Compare(a.PeerAS, b.PeerAS)
	})
	return out
}

// FilterTooSpecific reports whether an update should be excluded because its
// prefix is more specific than /24; such prefixes generally do not propagate
// far and may indicate misconfiguration or blackholing (paper §4.1.1).
func FilterTooSpecific(p trie.Prefix) bool { return p.Len > 24 }

// Prefixes returns all prefixes vp currently holds routes for, sorted by
// address, then length.
func (r *RIB) Prefixes(vp VPKey) []trie.Prefix {
	tbl := r.tables[vp]
	if tbl == nil {
		return nil
	}
	keys := make([]uint64, 0, len(tbl.routes))
	for k := range tbl.routes {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]trie.Prefix, len(keys))
	for i, k := range keys {
		out[i] = trie.KeyPrefix(k)
	}
	return out
}
