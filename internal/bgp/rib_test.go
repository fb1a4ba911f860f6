package bgp

import (
	"bytes"
	"cmp"
	"slices"
	"testing"

	"rrr/internal/trie"
)

func pfx(t *testing.T, s string) trie.Prefix {
	t.Helper()
	p, err := trie.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func ann(t *testing.T, tm int64, peer uint32, as ASN, prefix string, path Path, comms Communities, med uint32) Update {
	t.Helper()
	return Update{
		Time: tm, PeerIP: peer, PeerAS: as, Type: Announce,
		Prefix: pfx(t, prefix), ASPath: path, Communities: comms, MED: med,
	}
}

func TestRIBChangeClassification(t *testing.T) {
	r := NewRIB()
	base := ann(t, 10, 0x01020304, 13030, "200.61.128.0/19",
		Path{13030, 1299, 2914, 18747},
		Communities{MakeCommunity(13030, 2), MakeCommunity(13030, 51701)}, 0)

	if c := r.Apply(base); c.Kind != ChangeNew {
		t.Fatalf("first announce = %v; want new", c.Kind)
	}

	dup := base
	dup.Time = 20
	if c := r.Apply(dup); c.Kind != ChangeDuplicate {
		t.Fatalf("identical announce = %v; want duplicate", c.Kind)
	}

	medChange := base
	medChange.Time = 30
	medChange.MED = 77
	if c := r.Apply(medChange); c.Kind != ChangeDuplicate {
		t.Fatalf("MED-only change = %v; want duplicate (non-transitive)", c.Kind)
	}

	commChange := base
	commChange.Time = 40
	commChange.Communities = Communities{MakeCommunity(13030, 2), MakeCommunity(13030, 51203)}
	if c := r.Apply(commChange); c.Kind != ChangeCommunities {
		t.Fatalf("community change = %v; want communities", c.Kind)
	}

	pathChange := base
	pathChange.Time = 50
	pathChange.ASPath = Path{13030, 3356, 2914, 18747}
	c := r.Apply(pathChange)
	if c.Kind != ChangeASPath {
		t.Fatalf("path change = %v; want aspath", c.Kind)
	}
	if !c.HasPrev || !c.Cur.ASPath.Equal(pathChange.ASPath) {
		t.Fatal("path change should carry prev and cur routes")
	}
	if !c.Prev.ASPath.Equal(base.ASPath) {
		t.Errorf("prev path = %v", c.Prev.ASPath)
	}

	wd := Update{Time: 60, PeerIP: base.PeerIP, PeerAS: base.PeerAS, Type: Withdraw, Prefix: base.Prefix}
	if c := r.Apply(wd); c.Kind != ChangeWithdrawn || !c.HasPrev {
		t.Fatalf("withdraw = %v prev=%v", c.Kind, c.Prev)
	}
	if _, ok := r.Route(VPKey{base.PeerIP, base.PeerAS}, base.Prefix); ok {
		t.Fatal("route should be gone after withdraw")
	}
	// Withdrawing an unknown route is not an error.
	if c := r.Apply(wd); c.Kind != ChangeWithdrawn || c.HasPrev {
		t.Fatalf("withdraw unknown = %v prev=%v", c.Kind, c.Prev)
	}
}

func TestRIBCommunityOrderInsensitive(t *testing.T) {
	r := NewRIB()
	a := ann(t, 1, 1, 100, "10.0.0.0/16", Path{100, 200},
		Communities{MakeCommunity(100, 1), MakeCommunity(100, 2)}, 0)
	r.Apply(a)
	b := a
	b.Time = 2
	b.Communities = Communities{MakeCommunity(100, 2), MakeCommunity(100, 1)}
	if c := r.Apply(b); c.Kind != ChangeDuplicate {
		t.Fatalf("reordered communities = %v; want duplicate", c.Kind)
	}
}

func TestRIBLookupMostSpecific(t *testing.T) {
	r := NewRIB()
	vp := VPKey{PeerIP: 1, PeerAS: 100}
	r.Apply(ann(t, 1, 1, 100, "10.0.0.0/8", Path{100, 1}, nil, 0))
	r.Apply(ann(t, 2, 1, 100, "10.1.0.0/16", Path{100, 2}, nil, 0))
	ip, _ := trie.ParseIP("10.1.2.3")
	p, rt, ok := r.Lookup(vp, ip)
	if !ok || rt.ASPath.Origin() != 2 || p != pfx(t, "10.1.0.0/16") {
		t.Fatalf("Lookup = %v %+v, %v; want /16 route", p, rt, ok)
	}
	ip2, _ := trie.ParseIP("10.2.2.3")
	p, rt, ok = r.Lookup(vp, ip2)
	if !ok || rt.ASPath.Origin() != 1 || p != pfx(t, "10.0.0.0/8") {
		t.Fatalf("Lookup = %v %+v, %v; want /8 route", p, rt, ok)
	}
}

func TestRIBVPsSortedAndFiltered(t *testing.T) {
	r := NewRIB()
	r.Apply(ann(t, 1, 5, 500, "10.0.0.0/8", Path{500, 1}, nil, 0))
	r.Apply(ann(t, 1, 3, 300, "10.0.0.0/8", Path{300, 1}, nil, 0))
	r.Apply(ann(t, 1, 4, 400, "20.0.0.0/8", Path{400, 2}, nil, 0))
	vps := r.VPs()
	if len(vps) != 3 || vps[0].PeerIP != 3 || vps[2].PeerIP != 5 {
		t.Fatalf("VPs = %v", vps)
	}
	ip, _ := trie.ParseIP("10.9.9.9")
	for _, vp := range vps {
		if _, _, ok := r.Lookup(vp, ip); ok != (vp.PeerIP != 4) {
			t.Fatalf("Lookup(%v, 10.9.9.9) found = %v", vp, ok)
		}
	}
}

func TestFilterTooSpecific(t *testing.T) {
	if FilterTooSpecific(pfx(t, "10.0.0.0/24")) {
		t.Error("/24 should pass")
	}
	if !FilterTooSpecific(pfx(t, "10.0.0.0/25")) {
		t.Error("/25 should be filtered")
	}
}

// ribModel is FuzzRIBApply's reference: a plain map per VP and a
// longest-prefix match by linear scan.
type ribModel struct {
	tables map[VPKey]map[trie.Prefix]Route
}

// apply is RIB.Apply's specification.
func (m *ribModel) apply(u Update) Change {
	vp := VPKey{PeerIP: u.PeerIP, PeerAS: u.PeerAS}
	tbl := m.tables[vp]
	if tbl == nil {
		tbl = map[trie.Prefix]Route{}
		m.tables[vp] = tbl
	}
	p := trie.MakePrefix(u.Prefix.Addr, u.Prefix.Len)
	prev, had := tbl[p]
	if u.Type == Withdraw {
		delete(tbl, p)
		return Change{Kind: ChangeWithdrawn, VP: vp, HasPrev: had, Prev: prev}
	}
	cur := Route{
		ASPath:      u.ASPath.Clone(),
		Communities: NormalizeCommunities(u.Communities.Clone()),
		MED:         u.MED, Updated: u.Time,
	}
	tbl[p] = cur
	c := Change{VP: vp, HasPrev: had, Prev: prev, Cur: cur}
	switch {
	case !had:
		c.Kind = ChangeNew
	case !prev.ASPath.Equal(cur.ASPath):
		c.Kind = ChangeASPath
	case !prev.Communities.Equal(cur.Communities):
		c.Kind = ChangeCommunities
	default:
		c.Kind = ChangeDuplicate
	}
	return c
}

// lookup is RIB.Lookup's specification: the longest held prefix
// containing ip.
func (m *ribModel) lookup(vp VPKey, ip uint32) (trie.Prefix, Route, bool) {
	var best trie.Prefix
	found := false
	for p := range m.tables[vp] {
		if p.Contains(ip) && (!found || p.Len > best.Len) {
			best, found = p, true
		}
	}
	return best, m.tables[vp][best], found
}

// sameRoute compares routes by value; nil and empty slices are equal.
func sameRoute(a, b Route) bool {
	return a.ASPath.Equal(b.ASPath) && a.Communities.Equal(b.Communities) &&
		a.MED == b.MED && a.Updated == b.Updated
}

// ribOp encodes one FuzzRIBApply operation: 7 bytes.
func ribOp(vp byte, withdraw bool, addr uint32, plen, path, comms byte) []byte {
	if withdraw {
		vp |= 0x80
	}
	return []byte{vp, byte(addr >> 24), byte(addr >> 16), byte(addr >> 8), plen, path, comms}
}

// FuzzRIBApply holds the RIB to ribModel over random announce/withdraw
// sequences: every Apply's kind, previous and current route, and after it
// Route and Lookup at the update's prefix and at a probe address,
// Prefixes, the prefix lengths the table marks present, and VPs. Sessions share peer IPs, addresses share leading
// bits and lengths span /0 to /32, so prefixes nest and collide; the
// attribute pools hold nil and empty paths and community sets, unsorted
// and duplicated communities. After each Apply the update's slices are
// overwritten, which must not reach the table.
func FuzzRIBApply(f *testing.F) {
	seed := func(ops ...[]byte) { f.Add(bytes.Join(ops, nil)) }
	// A default route, a /8 and a host route nested in one another.
	seed(ribOp(0, false, 0, 0, 1, 0), ribOp(0, false, 0x0a000000, 8, 2, 1), ribOp(0, false, 0x0a0b0c0d, 32, 3, 2))
	// A withdrawal of an unknown route, then an announcement, its
	// withdrawal and a re-announcement.
	seed(ribOp(1, true, 0x0a000000, 8, 0, 0), ribOp(1, false, 0x0a000000, 8, 1, 1), ribOp(1, true, 0x0a000000, 8, 0, 0),
		ribOp(1, false, 0x0a000000, 8, 1, 1))
	// nil and empty: a path or community set going from one to the other
	// is a duplicate.
	seed(ribOp(2, false, 0x0a010000, 16, 1, 0), ribOp(2, false, 0x0a010000, 16, 1, 3), ribOp(2, false, 0x0a010000, 16, 1, 0),
		ribOp(2, false, 0x0a010000, 16, 0, 4), ribOp(2, false, 0x0a010000, 16, 4, 4), ribOp(6, false, 0x0a010000, 16, 1, 3))
	// Unsorted, duplicated communities; a path change; a more-specific.
	seed(ribOp(3, false, 0x0a010000, 16, 1, 1), ribOp(3, false, 0x0a010000, 16, 1, 2), ribOp(3, false, 0x0a010000, 16, 2, 2),
		ribOp(3, false, 0x0a010000, 17, 0, 5))

	paths := []Path{nil, {1, 2, 3}, {1, 4, 3}, {1, 1, 2}, {}}
	comms := []Communities{nil, {MakeCommunity(1, 1)}, {MakeCommunity(1, 2), MakeCommunity(1, 1), MakeCommunity(1, 2)},
		{}, {MakeCommunity(1, 1), MakeCommunity(1, 2)}, {MakeCommunity(9, 9)}}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every op rechecks the whole table, so bound the sequence: the
		// domain above is small enough for 128 ops to revisit prefixes.
		data = data[:min(len(data), 7*128)]
		r, m := NewRIB(), &ribModel{tables: map[VPKey]map[trie.Prefix]Route{}}
		for i := 0; len(data) >= 7; i++ {
			op := data[:7]
			data = data[7:]
			u := Update{
				Time:   int64(i),
				PeerIP: uint32(op[0] & 1), PeerAS: ASN(op[0] >> 1 & 3),
				Prefix: trie.Prefix{Addr: uint32(op[1])<<24 | uint32(op[2]&0x0f)<<16 | uint32(op[3]&0x03)<<8, Len: op[4] % 33},
				MED:    uint32(op[5] >> 4),
			}
			if op[0]&0x80 != 0 {
				u.Type = Withdraw
			} else {
				u.ASPath = paths[int(op[5]&0x0f)%len(paths)].Clone()
				u.Communities = comms[int(op[6])%len(comms)].Clone()
			}
			got, want := r.Apply(u), m.apply(u)
			if got.Kind != want.Kind || got.VP != want.VP || got.HasPrev != want.HasPrev ||
				!sameRoute(got.Prev, want.Prev) || !sameRoute(got.Cur, want.Cur) {
				t.Fatalf("op %d %+v: Apply = %+v, model %+v", i, u, got, want)
			}
			for j := range u.ASPath {
				u.ASPath[j] = 0
			}
			for j := range u.Communities {
				u.Communities[j] = 0
			}

			vp := got.VP
			rt, ok := r.Route(vp, u.Prefix)
			mrt, mok := m.tables[vp][trie.MakePrefix(u.Prefix.Addr, u.Prefix.Len)]
			if ok != mok || !sameRoute(rt, mrt) {
				t.Fatalf("op %d: Route(%v, %v) = %+v %v, model %+v %v", i, vp, u.Prefix, rt, ok, mrt, mok)
			}
			for _, ip := range []uint32{u.Prefix.Addr, u.Prefix.Addr | uint32(op[6])<<4 | uint32(op[5]), uint32(op[6]) << 24} {
				p, rt, ok := r.Lookup(vp, ip)
				mp, mrt, mok := m.lookup(vp, ip)
				if ok != mok || p != mp || !sameRoute(rt, mrt) {
					t.Fatalf("op %d: Lookup(%v, %s) = %v %+v %v, model %v %+v %v",
						i, vp, trie.FormatIP(ip), p, rt, ok, mp, mrt, mok)
				}
			}
			var want2 []trie.Prefix
			var lens uint64
			for p := range m.tables[vp] {
				want2 = append(want2, p)
				lens |= 1 << p.Len
			}
			if got := r.tables[vp].present; got != lens {
				t.Fatalf("op %d: table of %v marks lengths %b present, holds %b", i, vp, got, lens)
			}
			slices.SortFunc(want2, func(a, b trie.Prefix) int {
				if c := cmp.Compare(a.Addr, b.Addr); c != 0 {
					return c
				}
				return cmp.Compare(a.Len, b.Len)
			})
			if got := r.Prefixes(vp); !slices.Equal(got, want2) {
				t.Fatalf("op %d: Prefixes(%v) = %v, model %v", i, vp, got, want2)
			}
		}
		var vps []VPKey
		for vp := range m.tables {
			vps = append(vps, vp)
		}
		slices.SortFunc(vps, func(a, b VPKey) int {
			if c := cmp.Compare(a.PeerIP, b.PeerIP); c != 0 {
				return c
			}
			return cmp.Compare(a.PeerAS, b.PeerAS)
		})
		if got := r.VPs(); !slices.Equal(got, vps) {
			t.Fatalf("VPs = %v, model %v", got, vps)
		}
	})
}

// TestRIBApplyAllocs is RIB.Apply's allocation budget: a duplicate (the
// commonest update, §4.1.4) and a withdrawal allocate nothing, a changed
// AS path or community set allocates its one new slice.
func TestRIBApplyAllocs(t *testing.T) {
	const n = 1000
	r := NewRIB()
	vp := VPKey{PeerIP: 1, PeerAS: 100}
	at := func(i int) trie.Prefix { return trie.MakePrefix(0x0a000000+uint32(i)<<8, 24) }
	for i := 0; i <= n+1; i++ { // AllocsPerRun calls apply n times
		r.Apply(ann(t, 1, 1, 100, at(i).String(), Path{100, 200, 300}, Communities{MakeCommunity(100, 2), MakeCommunity(100, 1)}, 0))
	}
	dup := ann(t, 2, 1, 100, at(0).String(), Path{100, 200, 300}, Communities{MakeCommunity(100, 1), MakeCommunity(100, 2)}, 5)
	paths := [2]Path{{100, 200, 300}, {100, 250, 300}}
	comms := [2]Communities{{MakeCommunity(100, 1)}, {MakeCommunity(100, 1), MakeCommunity(100, 2)}}
	var i int
	for _, tc := range []struct {
		name   string
		budget float64
		apply  func()
	}{
		{"duplicate", 0, func() { r.Apply(dup) }},
		{"withdrawal", 0, func() {
			i++
			r.Apply(Update{PeerIP: vp.PeerIP, PeerAS: vp.PeerAS, Type: Withdraw, Prefix: at(i)})
		}},
		{"withdrawal of an unknown route", 0, func() {
			r.Apply(Update{PeerIP: vp.PeerIP, PeerAS: vp.PeerAS, Type: Withdraw, Prefix: at(n + 2)})
		}},
		{"changed path", 1, func() {
			i++
			u := dup
			u.ASPath = paths[i%2]
			r.Apply(u)
		}},
		{"changed communities", 1, func() {
			i++
			u := dup
			u.Communities = comms[i%2]
			r.Apply(u)
		}},
		{"changed path and communities", 2, func() {
			i++
			u := dup
			u.ASPath, u.Communities = paths[i%2], comms[i%2]
			r.Apply(u)
		}},
	} {
		i = 0
		if got := testing.AllocsPerRun(n-1, tc.apply); got > tc.budget {
			t.Errorf("%s: %v allocations per Apply, budget %v", tc.name, got, tc.budget)
		}
	}
	if _, _, ok := r.Lookup(vp, at(n+1).Addr); !ok {
		t.Fatal("the withdrawals reached past the routes primed for them")
	}
}
