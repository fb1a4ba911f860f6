package anomaly

import (
	"math"
	"math/rand"
	"testing"
)

// The bitmap detector as it stood before it was bounded (unbounded hist and
// scores slices resliced at 4x defaultMaxHistory, heap bitmaps, breakpoints
// in a map), kept verbatim as the reference the bounded detector must match
// bit for bit: signals are content-addressed and digested, so a score that
// differs in its last ulp is a different signal stream.

// refBitmapDetector implements the assumption-free anomaly bitmap detector:
// the series is SAX-discretized, bigram frequency bitmaps are computed over
// a lag window (the past) and a lead window (the recent values), and the
// anomaly score is the squared distance between the normalized bitmaps. A
// window is flagged when its score exceeds an adaptive threshold (mean + k·σ
// of past scores).
type refBitmapDetector struct {
	// Alphabet is the SAX alphabet size; 4 if zero (the paper's reference
	// implementation default).
	Alphabet int
	// Lead is the lead-window length; 8 if zero.
	Lead int
	// Lag is the lag-window length; 32 if zero.
	Lag int
	// Sigmas is the adaptive threshold multiplier; 3 if zero.
	Sigmas float64

	hist      []float64
	scores    []float64
	lastScore float64

	allSame bool
	sameVal float64
	started bool
}

// newRefBitmap returns a detector with reference defaults.
func newRefBitmap() *refBitmapDetector { return &refBitmapDetector{} }

func (d *refBitmapDetector) alphabet() int {
	if d.Alphabet == 0 {
		return 4
	}
	return d.Alphabet
}

func (d *refBitmapDetector) lead() int {
	if d.Lead == 0 {
		return 8
	}
	return d.Lead
}

func (d *refBitmapDetector) lag() int {
	if d.Lag == 0 {
		return 32
	}
	return d.Lag
}

func (d *refBitmapDetector) sigmas() float64 {
	if d.Sigmas == 0 {
		return 3
	}
	return d.Sigmas
}

// Ready reports whether enough history has accumulated.
func (d *refBitmapDetector) Ready() bool {
	need := d.lead() + 4
	if need < MinObservations {
		need = MinObservations
	}
	return len(d.hist) >= need
}

// Score returns the bitmap distance of the most recent Add.
func (d *refBitmapDetector) Score() float64 { return d.lastScore }

// Add appends v and reports whether it is an outlier. Flagged values are
// removed from history to preserve stationarity.
func (d *refBitmapDetector) Add(v float64) bool {
	if !d.started {
		d.started, d.allSame, d.sameVal = true, true, v
	} else if v != d.sameVal {
		d.allSame = false
	}
	if d.allSame && len(d.hist) >= MinObservations {
		// Constant series: zero score, never an outlier, O(1).
		d.hist = append(d.hist, v)
		d.scores = append(d.scores, 0)
		d.lastScore = 0
		if len(d.hist) > 4*defaultMaxHistory {
			d.hist = d.hist[len(d.hist)-2*defaultMaxHistory:]
			d.scores = d.scores[len(d.scores)-2*defaultMaxHistory:]
		}
		return false
	}
	d.hist = append(d.hist, v)
	if len(d.hist) < d.lead()+4 || len(d.hist) < MinObservations {
		d.lastScore = 0
		return false
	}
	lead := d.hist[len(d.hist)-d.lead():]
	lagStart := len(d.hist) - d.lead() - d.lag()
	if lagStart < 0 {
		lagStart = 0
	}
	lag := d.hist[lagStart : len(d.hist)-d.lead()]
	d.lastScore = refBitmapDistance(lag, lead, d.alphabet())

	outlier := false
	if len(d.scores) >= MinObservations {
		m, s := meanStd(d.scores)
		if d.lastScore > m+d.sigmas()*s && d.lastScore > 1e-12 {
			outlier = true
		}
	}
	if outlier {
		// Remove the offending value so persistent shifts keep flagging.
		d.hist = d.hist[:len(d.hist)-1]
		return true
	}
	d.scores = append(d.scores, d.lastScore)
	if len(d.scores) > 4*defaultMaxHistory {
		d.scores = d.scores[len(d.scores)-2*defaultMaxHistory:]
	}
	if len(d.hist) > 4*defaultMaxHistory {
		d.hist = d.hist[len(d.hist)-2*defaultMaxHistory:]
	}
	return false
}

// refBitmapDistance computes the squared distance between the normalized
// bigram frequency bitmaps of the SAX words of the two windows. Values are
// z-normalized with the *lag* window's statistics so that a level shift in
// the lead window pushes its values into extreme symbols instead of
// re-centering the discretization around the shift.
func refBitmapDistance(lag, lead []float64, alphabet int) float64 {
	if len(lag) == 0 || len(lead) == 0 {
		return 0
	}
	m, s := meanStd(lag)
	if s == 0 {
		// Constant lag window: any deviation in the lead window is scaled
		// against a nominal spread so different values land in extreme
		// symbols while identical values score zero.
		allEqual := true
		for _, v := range lead {
			if v != m {
				allEqual = false
				break
			}
		}
		if allEqual {
			return 0
		}
		s = math.Max(1e-9, math.Abs(m)*1e-6)
	}
	sym := func(v float64) int { return refSaxSymbol((v-m)/s, alphabet) }
	lagBM := refBigramBitmap(lag, sym, alphabet)
	leadBM := refBigramBitmap(lead, sym, alphabet)
	var dist float64
	for i := range lagBM {
		diff := lagBM[i] - leadBM[i]
		dist += diff * diff
	}
	return dist
}

// refGaussianBreakpoints per SAX for alphabet sizes 2..8.
var refGaussianBreakpoints = map[int][]float64{
	2: {0},
	3: {-0.43, 0.43},
	4: {-0.67, 0, 0.67},
	5: {-0.84, -0.25, 0.25, 0.84},
	6: {-0.97, -0.43, 0, 0.43, 0.97},
	7: {-1.07, -0.57, -0.18, 0.18, 0.57, 1.07},
	8: {-1.15, -0.67, -0.32, 0, 0.32, 0.67, 1.15},
}

func refSaxSymbol(z float64, alphabet int) int {
	bps, ok := refGaussianBreakpoints[alphabet]
	if !ok {
		bps = refGaussianBreakpoints[4]
		alphabet = 4
	}
	for i, bp := range bps {
		if z < bp {
			return i
		}
	}
	return alphabet - 1
}

func refBigramBitmap(window []float64, sym func(float64) int, alphabet int) []float64 {
	bm := make([]float64, alphabet*alphabet)
	if len(window) < 2 {
		return bm
	}
	var total float64
	for i := 1; i < len(window); i++ {
		a, b := sym(window[i-1]), sym(window[i])
		bm[a*alphabet+b]++
		total++
	}
	if total > 0 {
		// Normalize to a probability distribution so window lengths do not
		// bias the distance.
		for i := range bm {
			bm[i] /= total
		}
	}
	return bm
}

// bitmapPair drives the bounded detector and the reference in lockstep.
type bitmapPair struct {
	got  *BitmapDetector
	want *refBitmapDetector
	step int
	// outliers and scored count what the comparison actually covered.
	outliers, scored int
}

func newBitmapPair(alphabet, lead, lag int) *bitmapPair {
	return &bitmapPair{
		got:  &BitmapDetector{Alphabet: int16(alphabet), Lead: int16(lead), Lag: int16(lag)},
		want: &refBitmapDetector{Alphabet: alphabet, Lead: lead, Lag: lag},
	}
}

// add feeds v to both, fails on the first divergence in verdict, score
// bits or readiness, and returns the verdict.
func (p *bitmapPair) add(t testing.TB, v float64) bool {
	t.Helper()
	got, want := p.got.Add(v), p.want.Add(v)
	gs, ws := p.got.Score(), p.want.Score()
	if got != want || math.Float64bits(gs) != math.Float64bits(ws) || p.got.Ready() != p.want.Ready() {
		t.Fatalf("step %d (v=%v): Add=%v Score=%x Ready=%v, reference Add=%v Score=%x Ready=%v",
			p.step, v, got, math.Float64bits(gs), p.got.Ready(), want, math.Float64bits(ws), p.want.Ready())
	}
	p.step++
	if got {
		p.outliers++
	}
	if gs > 0 {
		p.scored++
	}
	return got
}

func TestBitmapMatchesReferenceTable(t *testing.T) {
	const long = 4*defaultMaxHistory*3 + 57 // the trim fires several times
	cases := []struct {
		name   string
		series func(i int, r *rand.Rand) float64
	}{
		{"constant", func(int, *rand.Rand) float64 { return 0.75 }},
		{"constant then step", func(i int, _ *rand.Rand) float64 {
			if i < 300 {
				return 1
			}
			return 0.5
		}},
		{"step inside warm-up", func(i int, _ *rand.Rand) float64 {
			if i < 7 {
				return 1
			}
			return 2
		}},
		{"constant noisy constant", func(i int, r *rand.Rand) float64 {
			if i >= 150 && i < 650 {
				return float64(r.Intn(5)) / 4
			}
			return 1
		}},
		{"noisy throughout", func(_ int, r *rand.Rand) float64 { return r.NormFloat64() }},
		{"sawtooth", func(i int, _ *rand.Rand) float64 { return float64(i % 7) }},
		{"rare dips", func(i int, _ *rand.Rand) float64 { return boolTo(i%97 != 0) }},
		{"drift", func(i int, _ *rand.Rand) float64 { return float64(i) / 100 }},
		{"alternating levels", func(i int, _ *rand.Rand) float64 { return boolTo((i/60)%2 == 0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := newBitmapPair(0, 0, 0)
			r := rand.New(rand.NewSource(7))
			for i := 0; i < long; i++ {
				p.add(t, c.series(i, r))
			}
		})
	}

	t.Run("constant 500", func(t *testing.T) {
		p := newBitmapPair(0, 0, 0)
		for i := 0; i < 500; i++ {
			p.add(t, 3)
		}
		if h := p.got.h; h != nil {
			t.Fatalf("a series that never moved holds %d values and %d scores", cap(h.win), cap(h.scores))
		}
	})

	// One outlier at every position from MinObservations on, then a tail
	// long enough for the detector to recover and for a trim to fire.
	t.Run("outlier at every position", func(t *testing.T) {
		for pos := MinObservations; pos < 4*defaultMaxHistory+40; pos++ {
			p := newBitmapPair(0, 0, 0)
			for i := 0; i < pos+2*defaultMaxHistory; i++ {
				v := 1.0
				if i == pos {
					v = 9
				}
				p.add(t, v)
			}
		}
	})

	// Non-default shapes: short windows, a lead long enough that warm-up
	// exceeds MinObservations, a value window wider than what a trim keeps,
	// one-value lead and lag windows (a bigram needs two values, so these
	// never take the flat fast path), every declared alphabet and an
	// undeclared one. Each also holds levels flat across the fast path's
	// boundary, and Settled is held to its contract throughout.
	shapes := []struct{ alphabet, lead, lag int }{
		{0, 4, 8}, {0, 30, 32}, {0, 100, 150}, {0, 8, 2},
		{0, 1, 0}, {0, 0, 1}, {0, 1, 1}, {0, 2, 2},
		{2, 0, 0}, {3, 0, 0}, {5, 0, 0}, {6, 0, 0}, {7, 0, 0}, {8, 0, 0}, {99, 0, 0},
	}
	for _, sh := range shapes {
		for _, constantFor := range []int{0, 10, 25, 500} {
			p := newBitmapPair(sh.alphabet, sh.lead, sh.lag)
			r := rand.New(rand.NewSource(int64(sh.alphabet*1000 + sh.lead + constantFor)))
			for i := 0; i < long; i++ {
				v := 2.0
				if i >= constantFor && r.Intn(4) == 0 {
					v = float64(r.Intn(6))
				}
				checkSettledStep(t, p, v)
			}
		}
		p := newBitmapPair(sh.alphabet, sh.lead, sh.lag)
		for _, v := range flatHolds(rand.New(rand.NewSource(int64(sh.lead*100+sh.lag))), p.got.lead()+p.got.lag(), long) {
			checkSettledStep(t, p, v)
		}
	}
}

// flatLevels are the levels flatHolds holds; 0.1 and 2/7 are inexact in
// binary, so a lag window's mean of them need not equal the level.
var flatLevels = []float64{0, 1.0 / 3, 0.1, 2.0 / 7, 1}

// flatHolds returns n values that hold a level for w-1, w or w+1 windows
// (w = Lead+Lag), then spike, over and over: the flat fast path turns on
// exactly at a run of w equal values, so every hold ends on one side of
// that boundary or the other.
func flatHolds(r *rand.Rand, w, n int) []float64 {
	out := make([]float64, 0, n)
	for len(out) < n {
		level := flatLevels[r.Intn(len(flatLevels))]
		for i := w - 1 + r.Intn(3); i > 0 && len(out) < n; i-- {
			out = append(out, level)
		}
		for i := 1 + r.Intn(2); i > 0 && len(out) < n; i-- {
			out = append(out, float64(r.Intn(40))/7)
		}
	}
	return out
}

func boolTo(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// randomSeeds is how many randomSeries there are.
const randomSeeds = 2500

// randomSeries is one of randomSeeds seeded series in four families. The
// first 2000 cycle through three: shaped like the monitored ratios (long
// constant stretches, level shifts, bursts of noise, isolated spikes —
// after the first shift these mostly flag, by the stationarity rule),
// noisy from the first value (so the histories grow and both trims fire),
// and Gaussian with a slowly changing spread. The rest hold levels flat
// around the fast path's boundary (flatHolds).
func randomSeries(seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	n := 50 + r.Intn(1200)
	if seed >= 2000 {
		return flatHolds(r, 8+32, n)
	}
	out := make([]float64, 0, n)
	level := float64(r.Intn(4)) / 3
	noisy := seed%3 == 1
	spread := 1.0
	for i := 0; i < n; i++ {
		var v float64
		switch seed % 3 {
		case 0, 1:
			if seed%3 == 0 {
				switch r.Intn(400) {
				case 0:
					level = float64(r.Intn(12)) / 11
				case 1, 2:
					noisy = !noisy
				}
			}
			v = level
			switch {
			case r.Intn(150) == 0:
				v = float64(r.Intn(40))
			case noisy:
				v += float64(r.Intn(3)-1) / 7
			}
		case 2:
			if r.Intn(200) == 0 {
				spread = 0.1 + 3*r.Float64()
			}
			v = spread * r.NormFloat64()
		}
		out = append(out, v)
	}
	return out
}

// TestBitmapMatchesReferenceRandom holds the detector to the reference over
// every randomSeries.
func TestBitmapMatchesReferenceRandom(t *testing.T) {
	steps, outliers, scored, kept := 0, 0, 0, 0
	for seed := int64(0); seed < randomSeeds; seed++ {
		p := newBitmapPair(0, 0, 0)
		for _, v := range randomSeries(seed) {
			p.add(t, v)
		}
		steps, outliers, scored = steps+p.step, outliers+p.outliers, scored+p.scored
		kept += len(p.want.scores)
	}
	t.Logf("%d steps: %d with a non-zero score, %d outliers, %d scores still held at the end", steps, scored, outliers, kept)
	if scored < steps/2 || outliers < steps/100 || outliers > steps*3/4 {
		t.Errorf("the generated series do not exercise both verdicts")
	}
}

// TestBitmapSettled holds Settled to its contract over every randomSeries:
// whenever Settled(v) holds, Add(v) flags nothing, scores zero and leaves
// Settled(v) true. (TestBitmapMatchesReferenceRandom holds the same steps
// to the reference.)
func TestBitmapSettled(t *testing.T) {
	settled, moved := 0, 0
	for seed := int64(0); seed < randomSeeds; seed++ {
		d := NewBitmap()
		for _, v := range randomSeries(seed) {
			settledStep(t, d, v, d.Add)
			if d.Settled(v) {
				settled++
				if !d.allSame {
					moved++
				}
			}
		}
	}
	t.Logf("Settled(v) held after %d of the Add(v) steps, %d of them after the series moved", settled, moved)
	if moved < 10000 {
		t.Errorf("Settled held after a move only %d times; the series do not reach the fast path", moved)
	}
}

// checkSettledStep feeds v through p and fails if Settled(v) held before
// the step but the step broke its contract.
func checkSettledStep(t testing.TB, p *bitmapPair, v float64) {
	t.Helper()
	settledStep(t, p.got, v, func(v float64) bool { return p.add(t, v) })
}

// settledStep feeds v through add, which steps d, and fails if Settled(v)
// held before the step but the step broke its contract.
func settledStep(t testing.TB, d *BitmapDetector, v float64, add func(float64) bool) {
	t.Helper()
	settled := d.Settled(v)
	outlier := add(v)
	if settled && (outlier || d.Score() != 0 || !d.Settled(v)) {
		t.Fatalf("v=%v: Settled held, then Add=%v Score=%v Settled=%v", v, outlier, d.Score(), d.Settled(v))
	}
}

// TestSaxSymbolMatchesReference pins the array-backed breakpoint lookup to
// the map-backed one, including the fall-back for undeclared alphabets.
func TestSaxSymbolMatchesReference(t *testing.T) {
	for _, alphabet := range []int{2, 3, 4, 5, 6, 7, 8, 0, 1, 9, 99, -3} {
		for z := -2.0; z <= 2.0; z += 0.01 {
			if got, want := saxSymbol(z, alphabet), refSaxSymbol(z, alphabet); got != want {
				t.Fatalf("saxSymbol(%v, %d) = %d, reference %d", z, alphabet, got, want)
			}
		}
		for _, bp := range refGaussianBreakpoints[alphabet] {
			for _, z := range []float64{bp, math.Nextafter(bp, -1), math.Nextafter(bp, 1)} {
				if got, want := saxSymbol(z, alphabet), refSaxSymbol(z, alphabet); got != want {
					t.Fatalf("saxSymbol(%v, %d) = %d, reference %d", z, alphabet, got, want)
				}
			}
		}
	}
}

// TestBitmapClone: a clone taken anywhere in a randomSeries answers the
// rest of the series as a detector fed the whole series does, and so does
// the original after another clone of it was fed a history of its own.
func TestBitmapClone(t *testing.T) {
	for seed := int64(0); seed < randomSeeds; seed += 10 {
		series := randomSeries(seed)
		for _, i := range []int{len(series) / 3, 2 * len(series) / 3} {
			d, ref := NewBitmap(), NewBitmap()
			for _, v := range series[:i] {
				d.Add(v)
				ref.Add(v)
			}
			other := d.Clone()
			r := rand.New(rand.NewSource(seed))
			for k := 0; k < 200; k++ {
				other.Add(r.NormFloat64())
			}
			c := d.Clone()
			for k, v := range series[i:] {
				want := ref.Add(v)
				if c.Add(v) != want || d.Add(v) != want || c.Score() != ref.Score() || d.Score() != ref.Score() {
					t.Fatalf("seed %d: clone taken at step %d diverges %d steps later", seed, i, k)
				}
			}
		}
	}
}

// refChooseWindowMin is ChooseWindowMin as it stood before it required
// ascending times: every rung counts every time into the last 20 windows.
// It is the reference the walk-back must match on ascending input.
func refChooseWindowMin(times []int64, now int64, ladder []int64, minPer int) (int64, bool) {
	if len(ladder) == 0 {
		ladder = windowLadder
	}
	if minPer < 1 {
		minPer = 1
	}
ladderLoop:
	for _, w := range ladder {
		endIdx := now / w
		startIdx := endIdx - MinObservations
		if startIdx < 0 {
			continue
		}
		var filled [MinObservations]int
		for _, t := range times {
			idx := t / w
			if idx >= startIdx && idx < endIdx {
				filled[idx-startIdx]++
			}
		}
		for _, f := range filled {
			if f < minPer {
				continue ladderLoop
			}
		}
		return w, true
	}
	return 0, false
}
