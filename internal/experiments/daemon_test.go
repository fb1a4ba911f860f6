package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/bordermap"
)

// daemonTestScale keeps the feed small: a few windows, a handful of public
// traces per window.
func daemonTestScale() Scale {
	sc := QuickScale()
	sc.Days = 1
	sc.PublicPerWindow = 5
	return sc
}

func TestDaemonEnvFeeds(t *testing.T) {
	sc := daemonTestScale()
	env := NewDaemonEnv(sc, 0)

	if len(env.Dump) == 0 {
		t.Fatal("no initial table dump")
	}
	if len(env.Corpus) == 0 {
		t.Fatal("empty corpus")
	}
	for _, u := range env.Dump {
		if u.Time != 0 {
			t.Fatalf("dump update at t=%d; table dump must precede the stream", u.Time)
		}
	}

	end := int64(sc.Days) * 86400
	// Drain the BGP feed: time-ordered, bounded by the configured days,
	// then EOF — and EOF is sticky.
	var prev int64
	nUpd := 0
	for {
		u, err := env.Updates.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if u.Time < prev {
			t.Fatalf("update feed went backwards: %d after %d", u.Time, prev)
		}
		if u.Time >= end {
			t.Fatalf("update at t=%d past feed end %d", u.Time, end)
		}
		prev = u.Time
		nUpd++
	}
	if nUpd == 0 {
		t.Fatal("update feed produced nothing")
	}
	if _, err := env.Updates.Read(); err != io.EOF {
		t.Fatalf("second read after EOF = %v", err)
	}

	// The trace feed shares the generator; draining it after the updates
	// still yields this run's traces (they were queued window by window).
	prev = 0
	nTr := 0
	for {
		tr, err := env.Traces.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if tr.Time < prev {
			t.Fatalf("trace feed went backwards: %d after %d", tr.Time, prev)
		}
		if tr.Time >= end {
			t.Fatalf("trace at t=%d past feed end %d", tr.Time, end)
		}
		prev = tr.Time
		nTr++
	}
	if nTr == 0 {
		t.Fatal("trace feed produced nothing")
	}
}

// TestDaemonEnvDeterministic: the same scale and seed reproduce the same
// dump, corpus, and feed — the property snapshot restore relies on.
func TestDaemonEnvDeterministic(t *testing.T) {
	sc := daemonTestScale()
	a, b := NewDaemonEnv(sc, 0), NewDaemonEnv(sc, 0)
	if len(a.Dump) != len(b.Dump) || len(a.Corpus) != len(b.Corpus) {
		t.Fatalf("env sizes differ: dump %d/%d corpus %d/%d",
			len(a.Dump), len(b.Dump), len(a.Corpus), len(b.Corpus))
	}
	for i := range a.Corpus {
		if a.Corpus[i].Key() != b.Corpus[i].Key() {
			t.Fatalf("corpus[%d] keys differ: %v vs %v", i, a.Corpus[i].Key(), b.Corpus[i].Key())
		}
	}
	for i := 0; i < 50; i++ {
		ua, errA := a.Updates.Read()
		ub, errB := b.Updates.Read()
		if (errA != nil) != (errB != nil) {
			t.Fatalf("feed errors diverge at %d: %v vs %v", i, errA, errB)
		}
		if errA != nil {
			break
		}
		if ua.Time != ub.Time || ua.PeerIP != ub.PeerIP || ua.Prefix != ub.Prefix {
			t.Fatalf("update %d differs: %+v vs %+v", i, ua, ub)
		}
	}
}

// TestDaemonEnvServicesUnderFeed: RunPipeline's reader goroutines step the
// simulator while the merge goroutine reads the topology through the
// monitor's services, and an IXP join writes the maps those services read.
// Under -race this fails unless stepping and service reads are
// synchronized.
func TestDaemonEnvServicesUnderFeed(t *testing.T) {
	sc := QuickScale()
	sc.Days = 2
	sc.SimCfg.IXPJoinsPerDay = 40
	env := NewDaemonEnv(sc, 0)
	members, ok := env.Mapper.(bordermap.IXPMembershipResolver)
	if !ok {
		t.Fatal("env.Mapper lost IXPMemberOf; border mapping would stop resolving IXP members")
	}
	gen, ok := env.Mapper.(interface{ Generation() uint64 })
	if !ok {
		t.Fatal("env.Mapper lost Generation; the engine would keep answers an IXP join changes")
	}
	var ips []uint32
	for _, r := range env.Sim.T.Routers[1:] {
		ips = append(ips, r.Interfaces...)
	}

	done := make(chan error, 1)
	go func() {
		for {
			if _, err := env.Updates.Read(); err != nil {
				if err == io.EOF {
					err = nil
				}
				done <- err
				return
			}
		}
	}()
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
		gen.Generation()
		for _, ip := range ips {
			env.Mapper.IXPOf(ip)
			members.IXPMemberOf(ip)
			env.Aliases.RouterOf(ip)
			env.Geo.LocateCity(ip, 0)
		}
	}
}

// TestQuickScaleRIBDumpPinned pins WriteRIBDump of the QuickScale table
// dump plus its first 16 windows of updates (withdrawals and duplicates
// among them) to the bytes the trie-backed RIB wrote, so neither the
// RIB's prefix order nor its routes can drift.
func TestQuickScaleRIBDumpPinned(t *testing.T) {
	const want = "eb4584dd8e10733b32afd98331478cd01c034963bd85701be5e162189f573c5d"
	sc := QuickScale()
	env := NewDaemonEnv(sc, 0)
	rib := bgp.NewRIB()
	for _, u := range env.Dump {
		rib.Apply(u)
	}
	for {
		u, err := env.Updates.Read()
		if err == io.EOF || u.Time >= 16*sc.WindowSec {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rib.Apply(u)
	}
	h := sha256.New()
	if err := bgp.WriteRIBDump(h, rib, 777); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("RIB dump sha256 %s, want %s", got, want)
	}
}
