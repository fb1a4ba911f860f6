package anomaly

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func feedConstant(d Detector, v float64, n int) {
	for i := 0; i < n; i++ {
		d.Add(v)
	}
}

func TestZScoreFlagsSpike(t *testing.T) {
	d := NewZScore()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		if d.Add(1.0 + 0.01*rng.NormFloat64()) {
			t.Fatalf("false positive at %d", i)
		}
	}
	if !d.Add(0.2) {
		t.Fatal("spike not flagged")
	}
	if d.Score() <= 3.5 {
		t.Errorf("score = %f; want > 3.5", d.Score())
	}
}

func TestZScoreNotReadyBeforeMinObservations(t *testing.T) {
	d := NewZScore()
	for i := 0; i < MinObservations-1; i++ {
		if d.Add(float64(i * 1000)) { // wild values, but not ready yet
			t.Fatalf("flagged before ready at %d", i)
		}
	}
	if d.Ready() {
		t.Error("should not be ready at MinObservations-1")
	}
	d.Add(5)
	if !d.Ready() {
		t.Error("should be ready at MinObservations")
	}
}

func TestZScoreConstantHistoryDegenerate(t *testing.T) {
	d := NewZScore()
	feedConstant(d, 1.0, 30)
	if d.Add(1.0) {
		t.Error("same value should not be an outlier")
	}
	if !d.Add(0.9) {
		t.Error("any deviation from constant history should flag")
	}
	// Finite by contract: Inf would fail JSON encoding of signals.
	if d.Score() != degenerateScore {
		t.Errorf("score = %v; want degenerateScore", d.Score())
	}
}

func TestZScoreStationarityPreserved(t *testing.T) {
	// After a persistent level shift, every shifted window keeps flagging
	// because flagged values are excluded from history (§4.1.2).
	d := NewZScore()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		d.Add(1.0 + 0.01*rng.NormFloat64())
	}
	flags := 0
	for i := 0; i < 10; i++ {
		if d.Add(0.3 + 0.01*rng.NormFloat64()) {
			flags++
		}
	}
	if flags != 10 {
		t.Errorf("persistent shift flagged %d/10 windows; want 10", flags)
	}
}

func TestZScoreMADZeroFallback(t *testing.T) {
	// History where >50% of values are identical makes MAD zero but the
	// mean absolute deviation nonzero.
	d := NewZScore()
	for i := 0; i < 30; i++ {
		v := 1.0
		if i%4 == 0 {
			v = 1.1
		}
		d.Add(v)
	}
	if d.Add(1.05) {
		t.Error("in-range value flagged under MAD fallback")
	}
	if !d.Add(9.0) {
		t.Error("far value not flagged under MAD fallback")
	}
}

func TestBitmapFlagsRegimeChange(t *testing.T) {
	d := NewBitmap()
	rng := rand.New(rand.NewSource(3))
	falsePositives := 0
	for i := 0; i < 80; i++ {
		if d.Add(1.0 + 0.02*rng.NormFloat64()) {
			falsePositives++
		}
	}
	// A statistical detector on noise may rarely flag, but the steady
	// series must stay overwhelmingly clean.
	if falsePositives > 3 {
		t.Fatalf("%d false positives on steady series; want <= 3", falsePositives)
	}
	flagged := 0
	for i := 0; i < 8; i++ {
		if d.Add(0.0 + 0.02*rng.NormFloat64()) {
			flagged++
		}
	}
	if flagged == 0 {
		t.Error("regime change not flagged within lead window")
	}
}

func TestBitmapNotReadyEarly(t *testing.T) {
	d := NewBitmap()
	if d.Ready() {
		t.Error("fresh detector should not be ready")
	}
	for i := 0; i < MinObservations+20; i++ {
		d.Add(float64(i % 3))
	}
	if !d.Ready() {
		t.Error("detector should be ready after warmup")
	}
}

func TestBitmapConstantSeriesNeverFlags(t *testing.T) {
	d := NewBitmap()
	for i := 0; i < 200; i++ {
		if d.Add(5.0) {
			t.Fatalf("constant series flagged at %d", i)
		}
	}
}

func TestBitmapDistanceProperties(t *testing.T) {
	a := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	if d := bitmapDistance(a, a, 4); d != 0 {
		t.Errorf("identical windows distance = %f; want 0", d)
	}
	b := []float64{1, 5, 1, 5, 1, 5, 1, 5}
	c := []float64{1, 1, 1, 1, 5, 5, 5, 5}
	if d := bitmapDistance(b, c, 4); d <= 0 {
		t.Errorf("different shapes distance = %f; want > 0", d)
	}
	if d := bitmapDistance(nil, a, 4); d != 0 {
		t.Errorf("empty window distance = %f; want 0", d)
	}
}

func TestSaxSymbolBoundaries(t *testing.T) {
	if saxSymbol(-2, 4) != 0 || saxSymbol(2, 4) != 3 {
		t.Error("extremes map to first/last symbols")
	}
	if saxSymbol(0.0, 4) != 2 {
		// 0 is not < 0 breakpoint, so it falls in the third bucket.
		t.Errorf("saxSymbol(0) = %d; want 2", saxSymbol(0.0, 4))
	}
	// Unknown alphabet falls back to 4.
	if saxSymbol(0.0, 99) != 2 {
		t.Error("fallback alphabet broken")
	}
}

func TestMedianAndMAD(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %f", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %f", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %f", m)
	}
	if mad := medianAbsDev([]float64{1, 1, 1, 10}, 1); mad != 0 {
		t.Errorf("mad = %f; want 0", mad)
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 || math.Abs(s-2) > 1e-9 {
		t.Errorf("meanStd = %f, %f; want 5, 2", m, s)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Error("empty meanStd should be 0,0")
	}
}

func TestWindowedSeriesAggregation(t *testing.T) {
	var added []float64
	rec := &recordingDetector{onAdd: func(v float64) bool { added = append(added, v); return false }}
	s := &WindowedSeries{WindowSec: 900, Det: rec}
	s.Observe(0, 1)
	s.Observe(100, 3)
	s.Observe(950, 10) // closes window 0 with mean 2
	if len(added) != 1 || added[0] != 2 {
		t.Fatalf("added = %v; want [2]", added)
	}
	s.AdvanceTo(3 * 900) // closes window 1 (value 10); windows 2 missing
	if len(added) != 2 || added[1] != 10 {
		t.Fatalf("added = %v; want [2 10]", added)
	}
	s.AdvanceTo(10 * 900) // all missing: nothing added
	if len(added) != 2 {
		t.Fatalf("missing windows were fed to detector: %v", added)
	}
}

func TestWindowedSeriesSumAggAndOutlier(t *testing.T) {
	z := NewZScore()
	s := &WindowedSeries{WindowSec: 900, Det: z, Agg: func(sum float64, n int) float64 { return sum }}
	// 30 windows, 3 observations each summing to 3.
	for w := int64(0); w < 30; w++ {
		for k := int64(0); k < 3; k++ {
			s.Observe(w*900+k*10, 1)
		}
	}
	// Outlier window: sum = 30.
	for k := int64(0); k < 30; k++ {
		s.Observe(30*900+k, 1)
	}
	outs := s.AdvanceTo(31 * 900)
	if len(outs) != 1 {
		t.Fatalf("outliers = %v; want 1", outs)
	}
	if outs[0].WindowStart != 30*900 || outs[0].Value != 30 {
		t.Errorf("outlier = %+v", outs[0])
	}
}

type recordingDetector struct {
	onAdd func(float64) bool
	last  float64
}

func (r *recordingDetector) Add(v float64) bool { r.last = v; return r.onAdd(v) }
func (r *recordingDetector) Score() float64     { return 0 }
func (r *recordingDetector) Ready() bool        { return true }

func TestChooseWindow(t *testing.T) {
	// One observation every 900 s for 20+ windows → chooses 900.
	var times []int64
	for i := int64(0); i < 25; i++ {
		times = append(times, i*900+10)
	}
	now := int64(25 * 900)
	w, ok := ChooseWindowMin(times, now, nil, 1)
	if !ok || w != 900 {
		t.Fatalf("ChooseWindowMin = %d,%v; want 900", w, ok)
	}
	// One observation every hour → 900 fails, 3600 works.
	times = nil
	for i := int64(0); i < 30; i++ {
		times = append(times, i*3600+17)
	}
	now = 30 * 3600
	w, ok = ChooseWindowMin(times, now, nil, 1)
	if !ok || w != 3600 {
		t.Fatalf("ChooseWindowMin hourly = %d,%v; want 3600", w, ok)
	}
	// Too sparse for any ladder entry → not monitorable.
	times = []int64{0, 1000000}
	if _, ok := ChooseWindowMin(times, 2000000, nil, 1); ok {
		t.Error("sparse series should not be monitorable")
	}
}

func BenchmarkZScoreAdd(b *testing.B) {
	d := NewZScore()
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Add(vals[i&1023])
	}
}

// BenchmarkBitmapAddConstant is the quiet monitor: a series that never
// moves, which is what almost every §4.1.2/§4.1.4 series is in almost every
// window.
func BenchmarkBitmapAddConstant(b *testing.B) {
	d := NewBitmap()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Add(1)
	}
}

// BenchmarkBitmapAddNoisy scores every window against a full score history.
func BenchmarkBitmapAddNoisy(b *testing.B) {
	d := NewBitmap()
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Add(vals[i&1023])
	}
}

// Property: ChooseWindowMin returns a window satisfying its own contract.
func TestQuickChooseWindowSound(t *testing.T) {
	f := func(gaps []uint16, minPer8 uint8) bool {
		minPer := int(minPer8%3) + 1
		var times []int64
		t := int64(0)
		for _, g := range gaps {
			t += int64(g%2000) + 1
			times = append(times, t)
		}
		now := t + 1
		w, ok := ChooseWindowMin(times, now, nil, minPer)
		if !ok {
			return true
		}
		endIdx := now / w
		startIdx := endIdx - MinObservations
		if startIdx < 0 {
			return false
		}
		counts := make(map[int64]int)
		for _, tt := range times {
			counts[tt/w]++
		}
		for idx := startIdx; idx < endIdx; idx++ {
			if counts[idx] < minPer {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the z-score detector never flags a value equal to its
// (constant) history, regardless of history length.
func TestQuickZScoreConstantNeverFlags(t *testing.T) {
	f := func(v float64, n uint8) bool {
		if v != v { // NaN
			return true
		}
		d := NewZScore()
		for i := 0; i < int(n%120)+1; i++ {
			if d.Add(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWindowedSeriesFirstLast(t *testing.T) {
	s := &WindowedSeries{WindowSec: 900, Det: NewZScore()}
	if _, ok := s.First(); ok {
		t.Fatal("First before any window")
	}
	s.Observe(10, 2)
	s.AdvanceTo(900) // closes window 0 with value 2
	if v, ok := s.First(); !ok || v != 2 {
		t.Fatalf("First = %v,%v", v, ok)
	}
	s.Observe(1000, 4)
	s.AdvanceTo(1800)
	if v, ok := s.Last(); !ok || v != 4 {
		t.Fatalf("Last = %v,%v", v, ok)
	}
	if v, _ := s.First(); v != 2 {
		t.Fatal("First drifted")
	}
}

func TestBitmapScoreAccessor(t *testing.T) {
	d := NewBitmap()
	for i := 0; i < 40; i++ {
		d.Add(1)
	}
	if d.Score() != 0 {
		t.Fatalf("constant series score = %f", d.Score())
	}
	d.Add(0)
	if d.Score() <= 0 {
		t.Fatal("deviation should produce a positive score")
	}
}
