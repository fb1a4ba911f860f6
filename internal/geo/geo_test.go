package geo

import (
	"testing"

	"rrr/internal/netsim"
)

func routerIPs(s *netsim.Sim, n int) []uint32 {
	var out []uint32
	for i := 1; i < len(s.T.Routers) && len(out) < n; i++ {
		out = append(out, s.T.Routers[i].Loopback)
	}
	return out
}

func TestBuildDBProfiles(t *testing.T) {
	s := netsim.New(netsim.TestConfig())
	ips := routerIPs(s, 200)
	db := BuildDB(s, ips, DBProfile{Name: "crowd", Coverage: 0.5, ExactFrac: 0.93, NearFrac: 0.04}, 7)
	if db.Len() == 0 {
		t.Fatal("empty database")
	}
	if db.Len() > len(ips) {
		t.Fatalf("coverage exceeded input: %d > %d", db.Len(), len(ips))
	}
	// Measure exactness against truth.
	exact, total := 0, 0
	for _, ip := range ips {
		c, ok := db.Lookup(ip)
		if !ok {
			continue
		}
		total++
		r, _ := s.T.RouterForIP(ip)
		if c == s.T.CityOfRouter(r) {
			exact++
		}
	}
	frac := float64(exact) / float64(total)
	if frac < 0.80 || frac > 1.0 {
		t.Fatalf("exact fraction = %.2f; want ≈0.93", frac)
	}
}

func TestLocatorDBFirst(t *testing.T) {
	s := netsim.New(netsim.TestConfig())
	ips := routerIPs(s, 50)
	db := BuildDB(s, ips, DBProfile{Name: "full", Coverage: 1, ExactFrac: 1}, 1)
	l := NewLocator(s, db)
	for _, ip := range ips[:10] {
		city, method, ok := l.Locate(ip, 100)
		if !ok || method != methodDB {
			t.Fatalf("Locate = %v, %v, %v; want DB hit", city, method, ok)
		}
		r, _ := s.T.RouterForIP(ip)
		if city != s.T.CityOfRouter(r) {
			t.Fatalf("DB city %d != truth %d", city, s.T.CityOfRouter(r))
		}
	}
}

func TestLocatorShortestPingFallback(t *testing.T) {
	s := netsim.New(netsim.TestConfig())
	l := NewLocator(s, nil) // no DB: must measure
	located, correct := 0, 0
	for i := 1; i < len(s.T.Routers) && located < 60; i++ {
		r := s.T.Routers[i]
		city, method, ok := l.Locate(r.Loopback, 500)
		if !ok {
			continue
		}
		located++
		if method != methodShortestPing && method != methodCFS {
			t.Fatalf("method = %v", method)
		}
		if city == s.T.CityOfRouter(r.ID) {
			correct++
		}
	}
	if located == 0 {
		t.Fatal("nothing located without a DB")
	}
	// The paper's ping technique located 82% of border IPs; ours should be
	// in the same ballpark on responsive routers.
	if frac := float64(correct) / float64(located); frac < 0.6 {
		t.Fatalf("shortest-ping correctness = %.2f; want >= 0.6", frac)
	}
}

func TestLocatorCaches(t *testing.T) {
	s := netsim.New(netsim.TestConfig())
	ips := routerIPs(s, 5)
	db := BuildDB(s, ips, DBProfile{Name: "full", Coverage: 1, ExactFrac: 1}, 1)
	l := NewLocator(s, db)
	c1, m1, _ := l.Locate(ips[0], 100)
	c2, m2, _ := l.Locate(ips[0], 999999)
	if c1 != c2 || m1 != m2 {
		t.Fatal("cache should make Locate stable")
	}
}

func TestLocateUnknownIP(t *testing.T) {
	s := netsim.New(netsim.TestConfig())
	l := NewLocator(s, nil)
	if _, m, ok := l.Locate(0xdeadbeef, 1); ok || m != methodNone {
		t.Fatalf("unknown IP located: %v %v", m, ok)
	}
}

func TestValidateAndCDF(t *testing.T) {
	s := netsim.New(netsim.TestConfig())
	ips := routerIPs(s, 150)
	truthDB := BuildDB(s, ips, DBProfile{Name: "truth", Coverage: 1, ExactFrac: 1}, 1)
	l := NewLocator(s, truthDB)

	crowd := BuildDB(s, ips, DBProfile{Name: "crowd", Coverage: 0.4, ExactFrac: 0.93, NearFrac: 0.04}, 2)
	general := BuildDB(s, ips, DBProfile{Name: "general", Coverage: 1, ExactFrac: 0.60, NearFrac: 0.22}, 3)

	resCrowd := Validate(l, crowd, ips, 100)
	resGen := Validate(l, general, ips, 100)
	if len(resCrowd) == 0 || len(resGen) == 0 {
		t.Fatal("no validation overlap")
	}
	exactCrowd, _ := CDF(resCrowd, []float64{100, 500})
	exactGen, underGen := CDF(resGen, []float64{100, 500})
	if exactCrowd <= exactGen {
		t.Fatalf("crowd DB should agree more than general: %.2f vs %.2f", exactCrowd, exactGen)
	}
	if underGen[0] > underGen[1] {
		t.Fatal("CDF must be monotone in thresholds")
	}
	if e, u := CDF(nil, []float64{100}); e != 0 || u[0] != 0 {
		t.Fatal("empty CDF should be zero")
	}
}

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{
		methodNone: "none", methodDB: "ipmap-db",
		methodShortestPing: "shortest-ping", methodCFS: "cfs",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
}

func TestLocateIXPMemberInterface(t *testing.T) {
	s := netsim.New(netsim.TestConfig())
	l := NewLocator(s, nil)
	located := false
	for i := 1; i < len(s.T.IXPs); i++ {
		for range s.T.IXPs[i].MemberIPs {
			located = true
		}
		for member, ip := range s.T.IXPs[i].MemberIPs {
			// IXP LAN addresses resolve through membership to the owning
			// AS and then locate like any of its interfaces.
			city, _, ok := l.Locate(ip, 50)
			if !ok {
				continue
			}
			valid := false
			for _, pop := range s.T.ASes[member].PoPs {
				if s.T.PoPs[pop].City == city {
					valid = true
				}
			}
			if !valid {
				t.Fatalf("IXP member %s located in city %d outside its footprint", member, city)
			}
		}
	}
	if !located {
		t.Skip("no IXP members generated")
	}
}

func TestCityDistanceSymmetricZero(t *testing.T) {
	s := netsim.New(netsim.TestConfig())
	for i := range s.T.Cities {
		for j := range s.T.Cities {
			a := cityDistance(s, s.T.Cities[i].ID, s.T.Cities[j].ID)
			b := cityDistance(s, s.T.Cities[j].ID, s.T.Cities[i].ID)
			if a != b {
				t.Fatalf("distance asymmetric: %f vs %f", a, b)
			}
			if i == j && a != 0 {
				t.Fatalf("self distance %f", a)
			}
		}
	}
}
