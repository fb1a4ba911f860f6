package bordermap

import (
	"math/rand"
	"slices"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/netsim"
	"rrr/internal/traceroute"
	"rrr/internal/trie"
)

func ip(t *testing.T, s string) uint32 {
	t.Helper()
	v, err := trie.ParseIP(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// octetMapper maps first octet to AS; 240.x is IXP 1; 99.x unmapped.
type octetMapper struct{}

func (octetMapper) ASOf(v uint32) (bgp.ASN, bool) {
	f := v >> 24
	if f == 240 || f == 99 || f == 0 {
		return 0, false
	}
	return bgp.ASN(f), true
}

func (octetMapper) IXPOf(v uint32) (int, bool) {
	if v>>24 == 240 {
		return 1, true
	}
	return 0, false
}

func mk(t *testing.T, hops ...string) *traceroute.Traceroute {
	t.Helper()
	tr := &traceroute.Traceroute{Src: ip(t, hops[0]), Dst: ip(t, hops[len(hops)-1])}
	for i, h := range hops {
		hop := traceroute.Hop{TTL: i + 1}
		if h != "*" {
			hop.IP = ip(t, h)
		}
		tr.Hops = append(tr.Hops, hop)
	}
	return tr
}

func TestBorderPathDirect(t *testing.T) {
	tr := mk(t, "1.0.0.1", "1.0.0.2", "2.0.0.1", "2.0.0.2", "3.0.0.1")
	bs := BorderPath(tr, octetMapper{}, nil)
	if len(bs) != 2 {
		t.Fatalf("borders = %d; want 2", len(bs))
	}
	if bs[0].FromAS != 1 || bs[0].ToAS != 2 || bs[0].FarIP != ip(t, "2.0.0.1") {
		t.Errorf("border 0 = %+v", bs[0])
	}
	if bs[1].FromAS != 2 || bs[1].ToAS != 3 || bs[1].NearIP != ip(t, "2.0.0.2") {
		t.Errorf("border 1 = %+v", bs[1])
	}
}

func TestBorderPathIXP(t *testing.T) {
	tr := mk(t, "1.0.0.1", "1.0.0.2", "240.0.0.9", "2.0.0.1")
	bs := BorderPath(tr, octetMapper{}, nil)
	if len(bs) != 1 {
		t.Fatalf("borders = %v; want 1", bs)
	}
	if bs[0].FromAS != 1 || bs[0].ToAS != 2 || bs[0].IXP != 1 || bs[0].FarIP != ip(t, "240.0.0.9") {
		t.Errorf("IXP border = %+v", bs[0])
	}
}

func TestBorderPathSkipsUnresponsiveAndUnmapped(t *testing.T) {
	tr := mk(t, "1.0.0.1", "*", "99.0.0.1", "2.0.0.1")
	bs := BorderPath(tr, octetMapper{}, nil)
	if len(bs) != 1 || bs[0].FromAS != 1 || bs[0].ToAS != 2 {
		t.Fatalf("borders = %+v", bs)
	}
}

func TestBorderPathNoBorderSameAS(t *testing.T) {
	tr := mk(t, "1.0.0.1", "1.0.0.2", "1.0.0.3")
	if bs := BorderPath(tr, octetMapper{}, nil); len(bs) != 0 {
		t.Fatalf("intra-AS trace has borders: %+v", bs)
	}
}

// borderKeys renders a border path as the router keys it crosses, in order.
func borderKeys(bs []BorderHop) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Key()
	}
	return out
}

func TestBorderPathAliasResolution(t *testing.T) {
	oracle := OracleFunc(func(v uint32) (int, bool) {
		// 2.0.0.1 and 2.0.0.7 are the same router.
		if v == ip(t, "2.0.0.1") || v == ip(t, "2.0.0.7") {
			return 42, true
		}
		return 0, false
	})
	a := BorderPath(mk(t, "1.0.0.1", "1.0.0.2", "2.0.0.1"), octetMapper{}, oracle)
	b := BorderPath(mk(t, "1.0.0.9", "1.0.0.8", "2.0.0.7"), octetMapper{}, oracle)
	if !slices.Equal(borderKeys(a), borderKeys(b)) {
		t.Fatalf("alias-equal borders should match: %v vs %v", borderKeys(a), borderKeys(b))
	}
	// Without the oracle they differ by interface.
	a = BorderPath(mk(t, "1.0.0.1", "1.0.0.2", "2.0.0.1"), octetMapper{}, nil)
	b = BorderPath(mk(t, "1.0.0.9", "1.0.0.8", "2.0.0.7"), octetMapper{}, nil)
	if slices.Equal(borderKeys(a), borderKeys(b)) {
		t.Fatal("different interfaces without aliasing should differ")
	}
}

func TestClassify(t *testing.T) {
	asA := bgp.Path{1, 2, 3}
	asB := bgp.Path{1, 4, 3}
	bh1 := []BorderHop{{FromAS: 1, ToAS: 2, Router: 10}}
	bh2 := []BorderHop{{FromAS: 1, ToAS: 2, Router: 11}}
	if c := Classify(asA, asB, bh1, bh1); c != ASChange {
		t.Errorf("AS change = %v", c)
	}
	if c := Classify(asA, asA, bh1, bh2); c != BorderChange {
		t.Errorf("border change = %v", c)
	}
	if c := Classify(asA, asA, bh1, bh1); c != Unchanged {
		t.Errorf("unchanged = %v", c)
	}
}

func TestBorderPathOnSimulatedTraceroutes(t *testing.T) {
	s := netsim.New(netsim.TestConfig())
	stubs := s.StubASes()
	m := s.Mapper()
	oracle := OracleFunc(func(v uint32) (int, bool) {
		r, ok := s.T.RouterForIP(v)
		return int(r), ok
	})
	matched, exact := 0, 0
	for i := 0; i < 8; i++ {
		src := s.T.HostIP(stubs[i], 1)
		dst := s.T.HostIP(stubs[len(stubs)-1-i], 1)
		if src == dst {
			continue
		}
		tr := s.Traceroute(1, src, dst, int64(1000+i))
		bs := BorderPath(tr, m, oracle)
		truth := s.Borders(src, dst)
		if len(bs) == 0 {
			continue // unresponsive hops can hide borders
		}
		// Every inferred border must correspond to a ground-truth crossing
		// (same AS pair in order).
		ti := 0
		for _, b := range bs {
			for ti < len(truth) && (truth[ti].FromAS != b.FromAS || truth[ti].ToAS != b.ToAS) {
				ti++
			}
			if ti == len(truth) {
				t.Fatalf("inferred border %+v not in ground truth %+v", b, truth)
			}
			// The resolved far router must belong to the ToAS; when the
			// true ingress interface responded it is exactly the ingress
			// router, otherwise a deeper router in the same AS stands in
			// (the same substitution real border mapping makes under
			// unresponsive hops).
			if b.Router != 0 {
				if got := s.T.Routers[netsim.RouterID(b.Router)].AS; got != b.ToAS {
					t.Fatalf("far router %d in %s; want %s", b.Router, got, b.ToAS)
				}
				if b.Router == int(truth[ti].Ingress) {
					exact++
				}
			}
			ti++
		}
		matched++
	}
	if matched == 0 {
		t.Fatal("no simulated traces produced borders")
	}
	if exact == 0 {
		t.Fatal("no inferred border matched the exact ingress router")
	}
}

func TestBorderHopKeyFallsBackToInterface(t *testing.T) {
	withRouter := BorderHop{FromAS: 1, ToAS: 2, FarIP: 100, Router: 7}
	without := BorderHop{FromAS: 1, ToAS: 2, FarIP: 100}
	if withRouter.Key() == without.Key() {
		t.Fatal("router-resolved and unresolved keys should differ")
	}
	other := BorderHop{FromAS: 1, ToAS: 2, FarIP: 101}
	if without.Key() == other.Key() {
		t.Fatal("different interfaces should give different fallback keys")
	}
}

// TestBorderIDMatchesKey: the comparable ID and the printed Key agree on
// which crossings are the same, over random crossings drawn from a small
// universe so that equal ones, unresolved routers, and routers equal to a
// negated interface all occur.
func TestBorderIDMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hop := func() BorderHop {
		b := BorderHop{
			FromAS: bgp.ASN(1 + rng.Intn(3)),
			ToAS:   bgp.ASN(1 + rng.Intn(3)),
			FarIP:  uint32(1 + rng.Intn(3)),
			NearIP: uint32(rng.Intn(3)),
			IXP:    rng.Intn(2),
		}
		switch rng.Intn(3) {
		case 0: // unresolved: falls back to the interface
		case 1:
			b.Router = 1 + rng.Intn(3)
		case 2:
			b.Router = -1 - rng.Intn(3)
		}
		return b
	}
	var same, differ int
	for i := 0; i < 20000; i++ {
		a, b := hop(), hop()
		byID, byKey := a.ID() == b.ID(), a.Key() == b.Key()
		if byID != byKey {
			t.Fatalf("%+v vs %+v: ID equal %v, Key equal %v", a, b, byID, byKey)
		}
		if byID {
			same++
		} else {
			differ++
		}
	}
	if same == 0 || differ == 0 {
		t.Fatalf("%d equal and %d different pairs: the draw does not exercise both", same, differ)
	}
}

func TestChangeClassStrings(t *testing.T) {
	if Unchanged.String() != "unchanged" || BorderChange.String() != "border-change" ||
		ASChange.String() != "as-change" {
		t.Fatal("change class strings")
	}
}

func TestBorderLevelChangedWildcard(t *testing.T) {
	a := []BorderHop{{FromAS: 1, ToAS: 2, Router: 5}, {FromAS: 2, ToAS: 3, Router: 9}}
	// The 2→3 crossing is hidden in b: only 1→2 is comparable.
	b := []BorderHop{{FromAS: 1, ToAS: 2, Router: 5}}
	if borderLevelChanged(a, b) {
		t.Fatal("hidden crossing must not count as change")
	}
	b2 := []BorderHop{{FromAS: 1, ToAS: 2, Router: 6}}
	if !borderLevelChanged(a, b2) {
		t.Fatal("router change not detected")
	}
	// A crossing appearing twice (path loops through the pair) compares
	// positionally.
	c1 := []BorderHop{{FromAS: 1, ToAS: 2, Router: 5}, {FromAS: 1, ToAS: 2, Router: 6}}
	c2 := []BorderHop{{FromAS: 1, ToAS: 2, Router: 5}, {FromAS: 1, ToAS: 2, Router: 7}}
	if !borderLevelChanged(c1, c2) {
		t.Fatal("second occurrence change missed")
	}
}
