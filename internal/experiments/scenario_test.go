package experiments

import (
	"testing"

	"rrr/internal/events"
	"rrr/internal/netsim"
	"rrr/internal/trie"
)

func mustPrefix(t *testing.T, s string) trie.Prefix {
	t.Helper()
	p, err := trie.ParsePrefix(s)
	if err != nil {
		t.Fatalf("ParsePrefix(%q): %v", s, err)
	}
	return p
}

// TestScenarioAccuracy runs the headline adversarial harness (full pack,
// seed 4242) and floors what protects the paper's science: the classifiers
// must find nearly everything the pack injected without drowning in false
// positives, and the staleness engine's verdict accuracy must not collapse
// under adversarial churn. The reduced scale keeps loose floors; the default
// quick scale is the calibrated run (precision 0.950, recall 1.000,
// degradation 0.002) and holds the tight ones.
func TestScenarioAccuracy(t *testing.T) {
	reduced := QuickScale()
	reduced.Days = 4
	reduced.PublicPerWindow = 20
	for _, tc := range []struct {
		name           string
		scale          Scale
		minTruths      int
		minPrecision   float64
		minRecall      float64
		maxDegradation float64
	}{
		{"reduced", reduced, 10, 0.8, 0.8, 0.1},
		{"quick", QuickScale(), 1, 0.85, 0.9, 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := RunScenarioAccuracy(tc.scale, netsim.FullPack(), 4242)

			if res.TruthCount < tc.minTruths {
				t.Fatalf("vacuous scenario: only %d ground-truth episodes", res.TruthCount)
			}
			if res.EventCount == 0 {
				t.Fatal("detector emitted no events under a full pack")
			}
			if res.Precision < tc.minPrecision {
				t.Errorf("event precision %.3f below floor %v (classes: %+v)", res.Precision, tc.minPrecision, res.Classes)
			}
			if res.Recall < tc.minRecall {
				t.Errorf("event recall %.3f below floor %v (classes: %+v)", res.Recall, tc.minRecall, res.Classes)
			}
			if res.BenignStaleAcc <= 0.5 {
				t.Errorf("benign staleness accuracy %.3f is no better than chance", res.BenignStaleAcc)
			}
			if res.Degradation > tc.maxDegradation {
				t.Errorf("adversarial churn degraded staleness accuracy by %.3f, cap %v (benign %.3f, adversarial %.3f)",
					res.Degradation, tc.maxDegradation, res.BenignStaleAcc, res.AdversarialStaleAcc)
			}
			// Every enabled class should have produced at least one ground-truth
			// episode at this scale except diurnal's long-horizon label.
			seen := map[string]bool{}
			for _, cs := range res.Classes {
				seen[cs.Class] = true
			}
			for _, want := range []string{"hijack-origin", "hijack-moas", "hijack-subprefix", "route-leak", "blackhole", "trace-cycle", "trace-diamond"} {
				if !seen[want] {
					t.Errorf("no score row for class %s: %+v", want, res.Classes)
				}
			}
		})
	}
}

// TestScoreEventsBenignOnlyMatchIsFalsePositive pins the scoring rule the
// edge-case packs depend on: an event explained only by a benign label
// (stable anycast, a self-healed leak) counts against precision.
func TestScoreEventsBenignOnlyMatchIsFalsePositive(t *testing.T) {
	p := mustPrefix(t, "16.1.0.0/16")
	truths := []events.Truth{
		{Class: events.HijackMOAS, Start: 0, End: 86400, Prefix: p, Benign: true},
	}
	evs := []events.Event{
		{Class: events.HijackMOAS, WindowStart: 900, Prefix: p},
	}
	classes, prec, rec := scoreEvents(evs, truths, 900)
	if prec != 0 {
		t.Fatalf("precision %v for a benign-only match, want 0 (%+v)", prec, classes)
	}
	if rec != 0 {
		t.Fatalf("recall %v with no non-benign truths, want 0", rec)
	}
	if len(classes) != 1 || classes[0].FP != 1 || classes[0].TP != 0 {
		t.Fatalf("class rows: %+v", classes)
	}
}

// TestScoreEventsMatching pins TP/FN bookkeeping for the mixed case.
func TestScoreEventsMatching(t *testing.T) {
	p1 := mustPrefix(t, "16.1.0.0/16")
	p2 := mustPrefix(t, "16.2.0.0/16")
	truths := []events.Truth{
		{Class: events.RouteLeak, Start: 900, End: 1800, Prefix: p1, AS: 64512},
		{Class: events.RouteLeak, Start: 90000, End: 90900, Prefix: p2, AS: 64513}, // never detected
	}
	evs := []events.Event{
		{Class: events.RouteLeak, WindowStart: 900, Prefix: p1, AS: 64512},   // TP
		{Class: events.RouteLeak, WindowStart: 45000, Prefix: p1, AS: 64512}, // out of interval: FP
	}
	classes, prec, rec := scoreEvents(evs, truths, 900)
	if len(classes) != 1 {
		t.Fatalf("class rows: %+v", classes)
	}
	cs := classes[0]
	if cs.TP != 1 || cs.FP != 1 || cs.FN != 1 {
		t.Fatalf("tally = %+v, want TP=1 FP=1 FN=1", cs)
	}
	if prec != 0.5 || rec != 0.5 {
		t.Fatalf("prec=%v rec=%v, want 0.5/0.5", prec, rec)
	}
}
