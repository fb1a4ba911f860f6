package baselines

import (
	"testing"

	"rrr/internal/traceroute"
)

// synthOracle builds `n` pairs observed every 900 s for `days`. Pair i
// changes paths at the times listed in changes[i] (aligned to 900 s).
func synthOracle(n int, days int, changes map[int][]int64) *Oracle {
	end := int64(days) * 86400
	var tls []*Timeline
	for i := 0; i < n; i++ {
		key := traceroute.Key{Src: uint32(i + 1), Dst: 0xffff}
		tl := &Timeline{Key: key}
		pathID := 0
		ci := 0
		cs := changes[i]
		for t := int64(0); t < end; t += 900 {
			for ci < len(cs) && cs[ci] <= t {
				pathID++
				ci++
			}
			tl.Obs = append(tl.Obs, PathObservation{
				Time:    t,
				PathID:  pathID,
				Borders: []string{borderName(i, pathID)},
			})
		}
		tls = append(tls, tl)
	}
	return NewOracle(tls)
}

func borderName(pair, pathID int) string {
	// Pairs 0 and 1 share border identities so Sibyl patching can link
	// their changes.
	if pair <= 1 {
		return "shared-" + string(rune('a'+pathID))
	}
	return "b" + string(rune('0'+pair)) + "-" + string(rune('a'+pathID))
}

func key(i int) traceroute.Key { return traceroute.Key{Src: uint32(i + 1), Dst: 0xffff} }

func TestTimelineAtAndChanges(t *testing.T) {
	o := synthOracle(1, 2, map[int][]int64{0: {3600, 7200}})
	tl := o.Timelines[key(0)]
	if tl.at(0).PathID != 0 {
		t.Error("initial path id")
	}
	if tl.at(3600).PathID != 1 {
		t.Errorf("At(3600) = %d; want 1", tl.at(3600).PathID)
	}
	if tl.at(1e9).PathID != 2 {
		t.Error("late At should be final path")
	}
	if tl.at(-5).PathID != 0 {
		t.Error("pre-start At should be first obs")
	}
	chs := tl.changes()
	if len(chs) != 2 || chs[0].Time != 3600 || chs[1].Time != 7200 {
		t.Fatalf("changes = %+v", chs)
	}
	if o.TotalChanges(0, 2*86400) != 2 {
		t.Errorf("TotalChanges = %d", o.TotalChanges(0, 2*86400))
	}
	if o.TotalChanges(4000, 2*86400) != 1 {
		t.Errorf("bounded TotalChanges = %d", o.TotalChanges(4000, 2*86400))
	}
}

func TestRoundRobinBudget(t *testing.T) {
	o := synthOracle(10, 1, nil)
	v := newView(o, 0, 1)
	rr := &RoundRobin{}
	// Budget for exactly 3 traceroutes per step.
	got := rr.Step(900, 3*TraceroutePackets, v)
	if len(got) != 3 {
		t.Fatalf("step measured %d; want 3", len(got))
	}
	got2 := rr.Step(1800, 3*TraceroutePackets, v)
	if got2[0] == got[0] {
		t.Fatal("round robin should advance the cursor")
	}
	// Fractional budget accumulates.
	rrf := &RoundRobin{}
	n := 0
	for i := 0; i < 4; i++ {
		n += len(rrf.Step(int64(i)*900, TraceroutePackets/2, v))
	}
	if n != 2 {
		t.Fatalf("fractional carry produced %d measurements; want 2", n)
	}
}

func TestEvaluateRoundRobinDetectsWithBudget(t *testing.T) {
	changes := map[int][]int64{}
	for i := 0; i < 10; i++ {
		changes[i] = []int64{86400 + int64(i)*7200}
	}
	o := synthOracle(10, 5, changes)
	// Generous budget: every pair measured every step.
	res := Evaluate(o, &RoundRobin{}, 0, 5*86400, 3600, 1.0)
	if res.Total != 10 {
		t.Fatalf("total = %d", res.Total)
	}
	if res.Detected != 10 {
		t.Fatalf("high-budget round robin detected %d/10", res.Detected)
	}
	// Tiny budget: detection drops.
	res2 := Evaluate(o, &RoundRobin{}, 0, 5*86400, 3600, 0.00001)
	if res2.Detected >= res.Detected {
		t.Fatalf("tiny budget detected %d; want fewer than %d", res2.Detected, res.Detected)
	}
}

func TestRevertedChangeMissedByPeriodic(t *testing.T) {
	// Path changes and reverts between two measurements: a periodic
	// strategy that misses the interval sees nothing.
	o := synthOracle(1, 2, map[int][]int64{0: {10 * 900, 11 * 900}})
	tl := o.Timelines[key(0)]
	// PathID goes 0 → 1 → 2, so reverts are actually distinct IDs here;
	// craft a true revert manually.
	for i := range tl.Obs {
		if tl.Obs[i].PathID == 2 {
			tl.Obs[i].PathID = 0
			tl.Obs[i].Borders = []string{borderName(0, 0)}
		}
	}
	// One measurement per day: both changes inside one gap.
	res := Evaluate(o, &RoundRobin{}, 0, 2*86400, 86400, 16.0/86400.0)
	if res.Detected != 0 {
		t.Fatalf("reverted change detected %d; want 0 (both changes hidden)", res.Detected)
	}
}

func TestSibylPatchesSharedBorderChanges(t *testing.T) {
	// Pairs 0 and 1 share border identities and change simultaneously;
	// pair 2's change is unrelated.
	changes := map[int][]int64{
		0: {2 * 86400},
		1: {2 * 86400},
		2: {2 * 86400},
	}
	o := synthOracle(3, 5, changes)
	// Budget: one traceroute per step → round robin alone would take 3
	// steps to see everything; Sibyl patches pair 1 when measuring pair 0.
	sib := &Sibyl{}
	res := Evaluate(o, sib, 0, 5*86400, 3600, float64(TraceroutePackets)/3.0/3600.0)
	rr := Evaluate(o, &RoundRobin{}, 0, 5*86400, 3600, float64(TraceroutePackets)/3.0/3600.0)
	if res.Detected < rr.Detected {
		t.Fatalf("sibyl %d < round robin %d", res.Detected, rr.Detected)
	}
	if res.Detected != 3 {
		t.Fatalf("sibyl detected %d/3", res.Detected)
	}
}

func TestDTrackFocusesProbes(t *testing.T) {
	// One volatile pair among many stable ones.
	changes := map[int][]int64{0: {86400, 2 * 86400, 3 * 86400, 4 * 86400}}
	o := synthOracle(20, 5, changes)
	dt := NewDTrack()
	res := Evaluate(o, dt, 0, 5*86400, 3600, 0.001)
	if res.Total != 4 {
		t.Fatalf("total = %d", res.Total)
	}
	if res.Detected == 0 {
		t.Fatal("dtrack detected nothing")
	}
	if dt.rates[key(0)] == 0 {
		t.Fatal("dtrack did not learn the volatile pair's rate")
	}
}

func TestSignalsStrategyAndOptimal(t *testing.T) {
	changes := map[int][]int64{
		0: {2 * 86400},
		1: {3 * 86400},
	}
	o := synthOracle(5, 5, changes)
	feed := SignalFeed{
		key(0): {2*86400 + 600}, // matched signal
		key(3): {4 * 86400},     // false positive
	}
	s := &Signals{Feed: feed}
	res := Evaluate(o, s, 0, 5*86400, 3600, 1)
	if res.Detected != 1 {
		t.Fatalf("signals detected %d; want 1 (pair 1 unsignaled)", res.Detected)
	}
	// The false positive cost a measurement.
	if res.Measurements < 2 {
		t.Fatalf("measurements = %d; want >= 2 (one TP, one FP)", res.Measurements)
	}
	opt := MatchOptimal(o, feed, 1800, 0, 5*86400)
	if opt.Detected != 1 || opt.Total != 2 {
		t.Fatalf("optimal = %d/%d", opt.Detected, opt.Total)
	}
}

func TestDTrackSignalsOutperformsBoth(t *testing.T) {
	changes := map[int][]int64{}
	for i := 0; i < 10; i++ {
		changes[i] = []int64{int64(i+1) * 86400 / 2}
	}
	o := synthOracle(10, 6, changes)
	feed := SignalFeed{}
	// Signals cover the first 5 pairs only.
	for i := 0; i < 5; i++ {
		feed[key(i)] = []int64{changes[i][0] + 300}
	}
	pps := 0.002
	ds := NewDTrackSignals(feed)
	resDS := Evaluate(o, ds, 0, 6*86400, 3600, pps)
	resSig := Evaluate(o, &Signals{Feed: feed}, 0, 6*86400, 3600, pps)
	if resDS.Detected < resSig.Detected {
		t.Fatalf("dtrack+signals %d < signals %d", resDS.Detected, resSig.Detected)
	}
	if resDS.Detected <= 0 {
		t.Fatal("dtrack+signals detected nothing")
	}
}

func TestApproxExp(t *testing.T) {
	cases := []struct{ x, want, tol float64 }{
		{0, 1, 1e-9},
		{-0.5, 0.6065, 0.01},
		{-1, 0.3679, 0.01},
		{-10, 0, 0.001},
	}
	for _, c := range cases {
		if got := approxExp(c.x); got < c.want-c.tol || got > c.want+c.tol {
			t.Errorf("approxExp(%f) = %f; want %f±%f", c.x, got, c.want, c.tol)
		}
	}
}

func TestViewMeasureUpdatesState(t *testing.T) {
	o := synthOracle(2, 2, map[int][]int64{0: {3600}})
	v := newView(o, 0, 1)
	prev, cur := v.Measure(key(0), 7200)
	if prev.PathID != 0 || cur.PathID != 1 {
		t.Fatalf("measure = %d -> %d", prev.PathID, cur.PathID)
	}
	if v.lastSeen[key(0)].PathID != 1 || v.lastTime[key(0)] != 7200 {
		t.Fatal("view state not updated")
	}
	if v.PacketsSpent != TraceroutePackets {
		t.Fatalf("packets = %f", v.PacketsSpent)
	}
}

func TestProbeChangedOnlyWhenChanged(t *testing.T) {
	o := synthOracle(1, 2, map[int][]int64{0: {3600}})
	v := newView(o, 0, 1)
	if v.probeChanged(key(0), 1800) {
		t.Fatal("probe detected change before it happened")
	}
	// After the change, repeated probes eventually detect (p=1/2 each).
	hit := false
	for i := int64(0); i < 20; i++ {
		if v.probeChanged(key(0), 7200+i) {
			hit = true
			break
		}
	}
	if !hit {
		t.Fatal("probe never detected a real change")
	}
}

func TestEvaluateSignalsMatched(t *testing.T) {
	changes := map[int][]int64{
		0: {2 * 86400},
		1: {3 * 86400},
	}
	o := synthOracle(4, 5, changes)
	feed := SignalFeed{
		key(0): {2*86400 + 600},    // true positive near the change
		key(2): {86400, 4 * 86400}, // false positives
	}
	// Generous budget: both signal batches measurable.
	r := EvaluateSignalsMatched(o, feed, 1800, 0, 5*86400, 3600, 1)
	if r.Total != 2 {
		t.Fatalf("total = %d", r.Total)
	}
	if r.Detected != 1 {
		t.Fatalf("detected = %d; want 1", r.Detected)
	}
	if r.Measurements < 3 {
		t.Fatalf("measurements = %d; want >= 3 (1 TP + 2 FP)", r.Measurements)
	}
	// Zero budget detects nothing.
	r0 := EvaluateSignalsMatched(o, feed, 1800, 0, 5*86400, 3600, 0)
	if r0.Detected != 0 || r0.Measurements != 0 {
		t.Fatalf("zero budget: %+v", r0)
	}
}

// TestFractionNeverExceedsOne pins the run boundary: Total counts changes
// in [start, end), and no strategy may credit a change outside it. Every
// pair here also changes exactly at end, which the last step (now == end)
// measures; crediting it would push the fraction above 1. Signals fire at
// end too, inside every matching window.
func TestFractionNeverExceedsOne(t *testing.T) {
	const start, end, step = 0, 86400, 3600
	changes := map[int][]int64{
		0: {3600, end}, // pairs 0 and 1 share borders: Sibyl patches
		1: {end},
		2: {43200, end},
	}
	o := synthOracle(3, 2, changes)
	feed := SignalFeed{
		key(0): {3600, end},
		key(1): {end},
		key(2): {43200, end},
	}
	for _, tc := range []struct {
		name string
		run  func() Result
	}{
		{"round-robin", func() Result { return Evaluate(o, &RoundRobin{}, start, end, step, 1) }},
		{"sibyl", func() Result { return Evaluate(o, &Sibyl{}, start, end, step, 1) }},
		{"dtrack", func() Result { return Evaluate(o, NewDTrack(), start, end, step, 1) }},
		{"signals", func() Result { return EvaluateSignalsMatched(o, feed, 1800, start, end, step, 1) }},
		{"signals strategy", func() Result { return Evaluate(o, &Signals{Feed: feed}, start, end, step, 1) }},
		{"dtrack+signals", func() Result { return Evaluate(o, NewDTrackSignals(feed), start, end, step, 1) }},
		{"optimal-signals", func() Result { return MatchOptimal(o, feed, 1800, start, end) }},
	} {
		r := tc.run()
		if r.Total != 2 {
			t.Fatalf("%s: total = %d; want the 2 changes inside [start, end)", tc.name, r.Total)
		}
		if f := r.Fraction(); f > 1 {
			t.Errorf("%s: fraction %.3f (%d/%d) exceeds 1", tc.name, f, r.Detected, r.Total)
		}
	}
}
