package cluster

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"rrr"
	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/faultfeed"
	"rrr/internal/server"
)

// octetMapper maps AS by first octet (the facade tests' convention).
type octetMapper struct{}

func (octetMapper) ASOf(ip uint32) (bgp.ASN, bool) {
	f := ip >> 24
	if f == 240 || f == 0 {
		return 0, false
	}
	return bgp.ASN(f), true
}

func (octetMapper) IXPOf(ip uint32) (int, bool) { return 0, false }

func prunedIP(t *testing.T, s string) uint32 {
	t.Helper()
	v, err := rrr.ParseIP(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func prunedTrace(t *testing.T, when int64, src, dst string, hops ...string) *rrr.Traceroute {
	t.Helper()
	tr := &rrr.Traceroute{Src: prunedIP(t, src), Dst: prunedIP(t, dst), Time: when}
	for i, h := range hops {
		tr.Hops = append(tr.Hops, rrr.Hop{TTL: i + 1, IP: prunedIP(t, h)})
	}
	return tr
}

func prunedAnnounce(t *testing.T, tm int64, vpIP string, as bgp.ASN, prefix string, path []bgp.ASN) rrr.Update {
	t.Helper()
	p, err := rrr.ParsePrefix(prefix)
	if err != nil {
		t.Fatal(err)
	}
	return rrr.Update{Time: tm, PeerIP: prunedIP(t, vpIP), PeerAS: as, Type: bgp.Announce,
		Prefix: p, ASPath: path}
}

func newPrunedMonitor(t *testing.T) *rrr.Monitor {
	t.Helper()
	aliases := bordermap.OracleFunc(func(v uint32) (int, bool) { return int(v), true })
	m, err := rrr.NewMonitor(rrr.Options{Mapper: octetMapper{}, Aliases: aliases})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// driveCommunityFP replays the same globally-observed BGP feed into a
// monitor that tracks only `track`, then disproves the community signal
// on each tracked pair with an unchanged refresh — the Appendix-B
// false-positive path that prunes the community. Every monitor sees the
// identical feed; only the tracked slice differs, exactly the cluster's
// full-feed/partitioned-corpus split.
func driveCommunityFP(t *testing.T, m *rrr.Monitor, track ...*rrr.Traceroute) {
	t.Helper()
	const w = 900
	m.ObserveBGP(prunedAnnounce(t, 0, "5.0.0.9", 5, "4.0.0.0/8", []bgp.ASN{5, 2, 3, 4}))
	m.ObserveBGP(prunedAnnounce(t, 0, "6.0.0.9", 6, "4.0.0.0/8", []bgp.ASN{6, 3, 4}))
	for _, tr := range track {
		if err := m.Track(tr); err != nil {
			t.Fatal(err)
		}
	}
	m.Advance(3 * w)
	// Same path, new community: a pure community-change signal.
	u := prunedAnnounce(t, 3*w+5, "6.0.0.9", 6, "4.0.0.0/8", []bgp.ASN{6, 3, 4})
	u.Communities = bgp.Communities{bgp.MakeCommunity(3, 7000)}
	m.ObserveBGP(u)
	m.Advance(4 * w)
	for _, tr := range track {
		if !m.Stale(tr.Key()) {
			t.Fatalf("pair %v not community-signaled; pruning scenario is vacuous", tr.Key())
		}
		same := *tr
		same.Time = 4 * w
		if _, err := m.RecordRefresh(&same); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterPrunedCommunitiesMerge is the regression test for the K×
// inflation of prunedCommunities in clustered /v1/stats: every worker
// ingests the full BGP feed, so independent workers prune the *same*
// community via refreshes of their own pairs, and the router's old
// sum-of-counters reported each shared prune decision K times. The merge
// must union the workers' pruned-community ID sets instead.
func TestClusterPrunedCommunitiesMerge(t *testing.T) {
	// Two pairs crossing the same monitored prefix, owned by different
	// workers; both get the same community signal from the shared feed.
	p1 := prunedTrace(t, 0, "1.0.0.1", "4.0.0.9", "1.0.0.2", "2.0.0.1", "3.0.0.1", "4.0.0.9")
	p2 := prunedTrace(t, 0, "7.0.0.1", "4.0.0.9", "7.0.0.2", "2.0.0.5", "3.0.0.5", "4.0.0.9")

	// Single-daemon baseline: one monitor tracking both pairs.
	single := newPrunedMonitor(t)
	driveCommunityFP(t, single, p1, p2)
	if got := single.Counts().PrunedCommunities; got != 1 {
		t.Fatalf("baseline pruned %d communities; want exactly 1", got)
	}
	singleTS := httptest.NewServer(server.New(single, server.Config{}).Handler())
	defer singleTS.Close()

	// K=3 workers: p1 on worker 0, p2 on worker 1, worker 2 idle — all
	// three observing the full feed.
	tracked := [][]*rrr.Traceroute{{p1}, {p2}, nil}
	urls := make([]string, 3)
	for w := 0; w < 3; w++ {
		m := newPrunedMonitor(t)
		driveCommunityFP(t, m, tracked[w]...)
		srv := server.New(m, server.Config{
			Worker: &server.WorkerIdentity{ID: w, Workers: 3, Partitions: 1},
		})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		urls[w] = ts.URL
	}
	rt, err := NewRouter(Options{Workers: urls, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rtTS := httptest.NewServer(rt.Handler())
	defer rtTS.Close()

	// Vacuity guard: at least two workers must have pruned the same
	// community, or a naive sum would coincidentally equal the union and
	// the test would prove nothing.
	naiveSum := 0
	ids := make(map[uint32]int)
	for _, u := range urls {
		var st server.Stats
		if err := json.Unmarshal([]byte(faultfeed.Get(t, u+"/v1/stats")), &st); err != nil {
			t.Fatal(err)
		}
		naiveSum += st.PrunedCommunities
		for _, id := range st.PrunedCommunityIDs {
			ids[id]++
		}
	}
	if len(ids) != 1 {
		t.Fatalf("workers pruned %d distinct communities; want exactly 1 shared", len(ids))
	}
	for id, n := range ids {
		if n < 2 {
			t.Fatalf("community %d pruned by %d workers; want >= 2 (overlap is the bug trigger)", id, n)
		}
	}
	if naiveSum < 2 {
		t.Fatalf("naive sum %d would not have inflated; scenario is vacuous", naiveSum)
	}

	routerStats := faultfeed.Get(t, rtTS.URL+"/v1/stats")
	sides.Diff(t, "GET /v1/stats", faultfeed.Get(t, singleTS.URL+"/v1/stats"), routerStats)
	var merged server.Stats
	if err := json.Unmarshal([]byte(routerStats), &merged); err != nil {
		t.Fatal(err)
	}
	if merged.PrunedCommunities != 1 {
		t.Fatalf("merged prunedCommunities = %d; want 1 (naive sum was %d)", merged.PrunedCommunities, naiveSum)
	}
}
