package bgp

import (
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
	if c.Prev == nil || c.Cur == nil {
		t.Fatal("path change should carry prev and cur routes")
	}
	if !c.Prev.ASPath.Equal(base.ASPath) {
		t.Errorf("prev path = %v", c.Prev.ASPath)
	}

	wd := Update{Time: 60, PeerIP: base.PeerIP, PeerAS: base.PeerAS, Type: Withdraw, Prefix: base.Prefix}
	if c := r.Apply(wd); c.Kind != ChangeWithdrawn || c.Prev == nil {
		t.Fatalf("withdraw = %v prev=%v", c.Kind, c.Prev)
	}
	if _, ok := r.Route(VPKey{base.PeerIP, base.PeerAS}, base.Prefix); ok {
		t.Fatal("route should be gone after withdraw")
	}
	// Withdrawing an unknown route is not an error.
	if c := r.Apply(wd); c.Kind != ChangeWithdrawn || c.Prev != nil {
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
	rt, ok := r.Lookup(vp, ip)
	if !ok || rt.ASPath.Origin() != 2 {
		t.Fatalf("Lookup = %+v, %v; want /16 route", rt, ok)
	}
	ip2, _ := trie.ParseIP("10.2.2.3")
	rt, ok = r.Lookup(vp, ip2)
	if !ok || rt.ASPath.Origin() != 1 {
		t.Fatalf("Lookup = %+v, %v; want /8 route", rt, ok)
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
		if _, ok := r.Lookup(vp, ip); ok != (vp.PeerIP != 4) {
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
