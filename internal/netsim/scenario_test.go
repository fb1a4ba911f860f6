package netsim_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/events"
	"rrr/internal/experiments"
	"rrr/internal/faultfeed"
	"rrr/internal/netsim"
	"rrr/internal/traceroute"
)

func scenarioScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Days = 2
	sc.PublicPerWindow = 10
	pack := netsim.FullPack()
	sc.Scenario = &pack
	return sc
}

// drainEnv consumes a daemon environment's feeds to EOF, rendering every
// update and trace to a canonical text form, and returns the rendered
// streams plus the encoded ground-truth labels. Sources may be wrapped
// (faultfeed) before draining.
func drainEnv(t *testing.T, env *experiments.DaemonEnv, ff *faultfeed.Config) (string, string, []byte) {
	t.Helper()
	var usrc interface {
		Read() (bgp.Update, error)
	} = env.Updates
	var tsrc interface {
		Read() (*traceroute.Traceroute, error)
	} = env.Traces
	if ff != nil {
		usrc = faultfeed.Updates(usrc, *ff)
		tsrc = faultfeed.Traces(tsrc, *ff)
	}

	var ub strings.Builder
	nu := 0
	for {
		u, err := usrc.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("update read: %v", err)
		}
		fmt.Fprintf(&ub, "%d %d %d %v %s %v %v %d\n",
			u.Time, u.PeerIP, u.PeerAS, u.Type, u.Prefix, u.ASPath, u.Communities, u.MED)
		nu++
	}
	var tb strings.Builder
	nt := 0
	for {
		tr, err := tsrc.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("trace read: %v", err)
		}
		fmt.Fprintf(&tb, "%d %d %v", tr.Time, tr.ProbeID, tr.Key())
		for _, h := range tr.Hops {
			fmt.Fprintf(&tb, " %d/%d/%.3f", h.TTL, h.IP, h.RTT)
		}
		tb.WriteByte('\n')
		nt++
	}
	if nu < 300 {
		t.Fatalf("vacuous run: only %d updates", nu)
	}
	if nt < 50 {
		t.Fatalf("vacuous run: only %d traces", nt)
	}
	var truths []byte
	if env.Scen != nil {
		labels := env.Scen.Truths()
		if len(labels) < 8 {
			t.Fatalf("vacuous run: only %d ground-truth labels", len(labels))
		}
		truths = events.EncodeTruths(labels)
	}
	return ub.String(), tb.String(), truths
}

// TestScenarioDeterminism pins the scenario contract: the same scale, sim
// seed, and pack produce byte-identical update streams, trace streams, and
// encoded ground-truth labels across independent runs.
func TestScenarioDeterminism(t *testing.T) {
	sc := scenarioScale()
	u1, t1, g1 := drainEnv(t, experiments.NewDaemonEnv(sc, 0), nil)
	u2, t2, g2 := drainEnv(t, experiments.NewDaemonEnv(sc, 0), nil)
	if u1 != u2 {
		t.Fatal("update streams differ across identical runs")
	}
	if t1 != t2 {
		t.Fatal("trace streams differ across identical runs")
	}
	if !bytes.Equal(g1, g2) {
		t.Fatal("encoded ground-truth labels differ across identical runs")
	}
}

// TestScenarioDeterminismUnderFaultfeed repeats the regression with the
// feeds wrapped in a duplicating fault injector: the injected schedule is
// itself seeded, so two identically-configured faulty runs must still
// match byte for byte.
func TestScenarioDeterminismUnderFaultfeed(t *testing.T) {
	sc := scenarioScale()
	ff := &faultfeed.Config{Seed: 99, DupProb: 0.05}
	u1, t1, g1 := drainEnv(t, experiments.NewDaemonEnv(sc, 0), ff)
	u2, t2, g2 := drainEnv(t, experiments.NewDaemonEnv(sc, 0), ff)
	if u1 != u2 {
		t.Fatal("faulty update streams differ across identical runs")
	}
	if t1 != t2 {
		t.Fatal("faulty trace streams differ across identical runs")
	}
	if !bytes.Equal(g1, g2) {
		t.Fatal("ground-truth labels differ across identical faulty runs")
	}
}

// TestScenarioPackLeavesBenignStreamIntact verifies the overlay property
// the accuracy harness relies on: enabling a pack adds forged emissions
// but never perturbs the benign substream (scenarios have their own RNG
// and never consume the simulator's).
func TestScenarioPackLeavesBenignStreamIntact(t *testing.T) {
	off := scenarioScale()
	off.Scenario = nil
	on := scenarioScale()

	uOff, _, _ := drainEnv(t, experiments.NewDaemonEnv(off, 0), nil)
	uOn, _, _ := drainEnv(t, experiments.NewDaemonEnv(on, 0), nil)

	benign := strings.Split(strings.TrimSuffix(uOff, "\n"), "\n")
	withPack := strings.Split(strings.TrimSuffix(uOn, "\n"), "\n")
	if len(withPack) <= len(benign) {
		t.Fatalf("pack added no updates: %d vs %d", len(withPack), len(benign))
	}
	set := make(map[string]int, len(withPack))
	for _, line := range withPack {
		set[line]++
	}
	for i, line := range benign {
		if set[line] == 0 {
			t.Fatalf("benign update %d missing from pack-enabled stream: %s", i, line)
		}
		set[line]--
	}
}
