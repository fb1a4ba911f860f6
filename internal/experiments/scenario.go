package experiments

import (
	"sort"

	"rrr/internal/bordermap"
	"rrr/internal/events"
	"rrr/internal/netsim"
	"rrr/internal/traceroute"
)

// ClassScore is one event class's detection score against scenario ground
// truth.
type ClassScore struct {
	Class     string
	Truths    int // non-benign ground-truth episodes of this class
	Events    int // events the detector emitted for this class
	TP        int
	FP        int
	FN        int
	Precision float64
	Recall    float64
}

// ScenarioResult is the adversarial-accuracy report: classifier
// precision/recall per event class against the scenario's ground-truth
// labels, plus the staleness engine's verdict accuracy with the pack off
// (benign) and on (adversarial). Degradation is how much verdict accuracy
// the adversarial churn costs.
type ScenarioResult struct {
	CorpusSize int
	TruthCount int // non-benign ground-truth episodes
	EventCount int

	Classes   []ClassScore
	Precision float64 // micro-averaged over all classes
	Recall    float64

	BenignStaleAcc      float64
	AdversarialStaleAcc float64
	Degradation         float64
}

// scenarioPass is one full run's raw outputs.
type scenarioPass struct {
	corpusSize int
	events     []events.Event
	truths     []events.Truth
	staleAcc   float64
}

// RunScenarioAccuracy runs the scale twice — pack off, then pack on with
// the given scenario seed — and scores both the event classifiers and the
// staleness engine against ground truth. The benign substream is identical
// across the two runs (scenarios never consume the simulator's RNG), so
// the accuracy delta isolates the adversarial injections.
func RunScenarioAccuracy(sc Scale, pack netsim.ScenarioPack, seed int64) *ScenarioResult {
	benign := runScenarioPass(sc, nil, seed)
	adv := runScenarioPass(sc, &pack, seed)

	res := &ScenarioResult{
		CorpusSize:          adv.corpusSize,
		EventCount:          len(adv.events),
		BenignStaleAcc:      benign.staleAcc,
		AdversarialStaleAcc: adv.staleAcc,
		Degradation:         benign.staleAcc - adv.staleAcc,
	}
	res.Classes, res.Precision, res.Recall = scoreEvents(adv.events, adv.truths, sc.WindowSec)
	for _, t := range adv.truths {
		if !t.Benign {
			res.TruthCount++
		}
	}
	return res
}

// runScenarioPass drives one full Lab run with an optional scenario pack,
// tapping the event detector into the record stream the monitor ingests
// and remeasuring every corpus pair each round for staleness ground truth.
func runScenarioPass(sc Scale, pack *netsim.ScenarioPack, seed int64) *scenarioPass {
	sc.Scenario, sc.ScenarioSeed = pack, seed
	lab := NewLab(sc)

	// The dump carries the scenario's legitimate multi-origin baseline
	// (anycast), so the detector's origin sets learn it as the RIB does.
	det := events.NewDetector(events.Config{WindowSec: sc.WindowSec})
	for _, u := range lab.Dump {
		det.Prime(u)
	}
	lab.Tap = det

	lab.BuildCorpus()
	keys := lab.Mon.Tracked()

	windowsPerRound := int(sc.RoundSec / sc.WindowSec)

	sigTimes := make(map[traceroute.Key][]int64)
	verdictRight, verdictTotal := 0, 0

	for w := 0; ; w++ {
		ws, sigs, ok := lab.Window()
		if !ok {
			break
		}
		for _, s := range sigs {
			sigTimes[s.Key] = append(sigTimes[s.Key], s.WindowStart)
		}

		if (w+1)%windowsPerRound != 0 {
			continue
		}
		// Round boundary: remeasure every pair against ground truth and
		// score the monitor's verdict — "signaled during this interval"
		// against "path actually changed since last round".
		now := ws + sc.WindowSec
		intervalStart := now - sc.RoundSec
		for _, k := range keys {
			cls, err := lab.Refresh(k, now)
			if err != nil {
				continue
			}
			verdict := false
			for _, t := range sigTimes[k] {
				if t >= intervalStart && t < now {
					verdict = true
					break
				}
			}
			if verdict == (cls != bordermap.Unchanged) {
				verdictRight++
			}
			verdictTotal++
		}
	}

	out := &scenarioPass{
		corpusSize: len(keys),
		events:     det.Events(),
	}
	if lab.Scen != nil {
		out.truths = lab.Scen.Truths()
	}
	if verdictTotal > 0 {
		out.staleAcc = float64(verdictRight) / float64(verdictTotal)
	}
	return out
}

// scoreEvents matches detector emissions against ground truth per class.
// An event matching any non-benign truth is a true positive; one matching
// nothing, or only benign labels (legitimate anycast MOAS, a self-healed
// leak), is a false positive. Non-benign truths no event matched are false
// negatives.
func scoreEvents(evs []events.Event, truths []events.Truth, windowSec int64) ([]ClassScore, float64, float64) {
	type tally struct{ tp, fp, fn, truths, events int }
	byClass := make(map[events.Class]*tally)
	get := func(c events.Class) *tally {
		t := byClass[c]
		if t == nil {
			t = &tally{}
			byClass[c] = t
		}
		return t
	}
	matched := make([]bool, len(truths))
	for _, ev := range evs {
		t := get(ev.Class)
		t.events++
		hit := false
		for i := range truths {
			if !truths[i].Matches(ev, windowSec) {
				continue
			}
			if truths[i].Benign {
				continue
			}
			hit = true
			matched[i] = true
		}
		if hit {
			t.tp++
		} else {
			t.fp++
		}
	}
	for i := range truths {
		if truths[i].Benign {
			continue
		}
		t := get(truths[i].Class)
		t.truths++
		if !matched[i] {
			t.fn++
		}
	}

	var classes []events.Class
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })

	var out []ClassScore
	sumTP, sumFP, sumFN := 0, 0, 0
	for _, c := range classes {
		t := byClass[c]
		cs := ClassScore{
			Class: c.String(), Truths: t.truths, Events: t.events,
			TP: t.tp, FP: t.fp, FN: t.fn,
		}
		if t.tp+t.fp > 0 {
			cs.Precision = float64(t.tp) / float64(t.tp+t.fp)
		}
		if t.tp+t.fn > 0 {
			cs.Recall = float64(t.tp) / float64(t.tp+t.fn)
		}
		out = append(out, cs)
		sumTP += t.tp
		sumFP += t.fp
		sumFN += t.fn
	}
	prec, rec := 0.0, 0.0
	if sumTP+sumFP > 0 {
		prec = float64(sumTP) / float64(sumTP+sumFP)
	}
	if sumTP+sumFN > 0 {
		rec = float64(sumTP) / float64(sumTP+sumFN)
	}
	return out, prec, rec
}
