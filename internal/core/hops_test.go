package core

import (
	"reflect"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/traceroute"
)

// flipMapper is testMapper with one IP whose origin AS can be changed, and
// a generation the test moves by hand.
type flipMapper struct {
	testMapper
	ip  uint32
	as  bgp.ASN
	gen uint64
}

func (m *flipMapper) ASOf(ip uint32) (bgp.ASN, bool) {
	if ip == m.ip {
		return m.as, true
	}
	return m.testMapper.ASOf(ip)
}

func (m *flipMapper) Generation() uint64 { return m.gen }

// TestHopTableGenerationFlip: an answer that changes under a new
// generation reaches the border path of the next traceroute, and one that
// changes without it is (by the contract) not looked up again.
func TestHopTableGenerationFlip(t *testing.T) {
	m := &flipMapper{ip: 3<<24 | 1, as: 3}
	e := NewEngine(DefaultConfig(), m, identityAliases, nil, nil)
	tr := mkTrace(t, 100, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	borders := func() []bordermap.BorderHop {
		return append([]bordermap.BorderHop(nil), e.prepareTrace(tr).borders...)
	}
	direct := func() []bordermap.BorderHop { return bordermap.BorderPath(tr, m, identityAliases) }

	before := borders()
	if want := direct(); !reflect.DeepEqual(before, want) || len(want) != 3 {
		t.Fatalf("border path %+v, direct mapper %+v (want 3 crossings)", before, want)
	}
	m.as = 2 // 3.0.0.1 now maps into AS2: the 2→3 crossing moves a hop on
	if got := borders(); !reflect.DeepEqual(got, before) {
		t.Fatalf("answer changed without a generation, table re-asked: %+v", got)
	}
	m.gen++
	after := borders()
	if want := direct(); !reflect.DeepEqual(after, want) {
		t.Fatalf("after the generation bump: border path %+v, direct mapper %+v", after, want)
	}
	if reflect.DeepEqual(after, before) {
		t.Fatal("the flip did not change the border path; the test proves nothing")
	}
}

// countingServices counts every service call per IP.
type countingServices struct {
	testMapper
	calls map[uint32]int
	gen   uint64
}

func (c *countingServices) ASOf(ip uint32) (bgp.ASN, bool) {
	c.calls[ip]++
	return c.testMapper.ASOf(ip)
}

func (c *countingServices) IXPOf(ip uint32) (int, bool) {
	c.calls[ip]++
	return c.testMapper.IXPOf(ip)
}

func (c *countingServices) IXPMemberOf(ip uint32) (bgp.ASN, bool) {
	c.calls[ip]++
	return c.testMapper.IXPMemberOf(ip)
}

func (c *countingServices) RouterOf(ip uint32) (int, bool) {
	c.calls[ip]++
	return int(ip), true
}

func (c *countingServices) Generation() uint64 { return c.gen }

// TestHopTableAsksOncePerGeneration: over many traceroutes through the
// same hops, the mapper and alias oracle are asked about each distinct IP
// once per generation (IXPOf, then ASOf or IXPMemberOf, then RouterOf for
// an IP that maps), and never about an unresponsive hop.
func TestHopTableAsksOncePerGeneration(t *testing.T) {
	setIXPMember(240<<24|5, 9)
	svc := &countingServices{calls: map[uint32]int{}}
	e := NewEngine(DefaultConfig(), svc, svc, nil, nil)
	traces := []*traceroute.Traceroute{
		mkTrace(t, 100, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9"),
		mkTrace(t, 101, "1.0.0.1", "9.0.0.9", "1.0.0.2", "*", "240.0.0.5", "9.0.0.9"),
		mkTrace(t, 102, "1.0.0.1", "4.0.0.8", "1.0.0.2", "99.0.0.1", "3.0.0.1", "4.0.0.8"),
	}
	// Every call MapHop makes for one IP: IXPOf, the AS or member lookup,
	// and RouterOf when the IP maps (99.x maps to nothing).
	perIP := func(ip uint32) int {
		if ip>>24 == 99 {
			return 2
		}
		return 3
	}
	for gen := 0; gen < 3; gen++ {
		for round := 0; round < 5; round++ {
			for _, tr := range traces {
				e.ObservePublicTrace(tr)
			}
		}
		distinct := 0
		for _, tr := range traces {
			for _, h := range tr.Hops {
				if h.IP == 0 {
					continue
				}
				if got, want := svc.calls[h.IP], perIP(h.IP); got != want {
					t.Fatalf("generation %d: %d service calls for %x, want %d", gen, got, h.IP, want)
				}
			}
		}
		for ip := range svc.calls {
			if ip == 0 {
				t.Fatal("services asked about the unresponsive hop")
			}
			distinct++
		}
		if distinct != 8 {
			t.Fatalf("generation %d: services asked about %d IPs, the traces hold 8", gen, distinct)
		}
		clear(svc.calls)
		svc.gen++
	}
}
