package anomaly

import (
	"math"
	"testing"
)

// scenarioSeries builds fuzz seeds shaped like the series adversarial
// scenario packs drive through the detectors: a long constant baseline
// (the degenerate MAD=0 regime) broken by hijack-style spikes, a diurnal
// square wave, and a self-healing excursion that returns to baseline.
func scenarioSeries() [][]byte {
	constantThenSpike := make([]byte, 0, MinObservations+4)
	for i := 0; i < MinObservations+1; i++ {
		constantThenSpike = append(constantThenSpike, 0x10)
	}
	constantThenSpike = append(constantThenSpike, 0x7f, 0x10, 0x10)

	diurnal := make([]byte, 0, 96)
	for day := 0; day < 4; day++ {
		for slot := 0; slot < 24; slot++ {
			v := byte(0x08)
			if slot == 12 {
				v = 0x60 // the daily churn slot
			}
			diurnal = append(diurnal, v)
		}
	}

	selfHeal := make([]byte, 0, MinObservations+6)
	for i := 0; i < MinObservations; i++ {
		selfHeal = append(selfHeal, 0x20)
	}
	selfHeal = append(selfHeal, 0x21, 0x5a, 0x20, 0x20, 0x20)

	return [][]byte{constantThenSpike, diurnal, selfHeal, {0x10}, nil}
}

// FuzzZScoreDegenerate drives arbitrary byte-derived series through the
// modified-z detector, pinning the degenerate constant-history contract:
// Add never panics, Score is never NaN or negative, an outlier verdict
// always carries a positive score, and DegenerateScore appears only once
// the detector is ready.
func FuzzZScoreDegenerate(f *testing.F) {
	for _, seed := range scenarioSeries() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		d := NewZScore()
		for i, b := range data {
			v := float64(int8(b))
			out := d.Add(v)
			s := d.Score()
			if math.IsNaN(s) || s < 0 {
				t.Fatalf("step %d (v=%v): score %v", i, v, s)
			}
			if out && !(s > 0) {
				t.Fatalf("step %d (v=%v): outlier verdict with score %v", i, v, s)
			}
			if out && len(d.hist) < MinObservations {
				t.Fatalf("step %d: outlier before MinObservations history", i)
			}
			if s == DegenerateScore && !out {
				t.Fatalf("step %d: degenerate score without outlier verdict", i)
			}
		}
	})
}

// FuzzBitmapDetector pins the same no-panic/no-NaN contract for the
// bitmap detector over the identical seed corpora, and holds every verdict
// and every score bit to the unbounded reference implementation.
func FuzzBitmapDetector(f *testing.F) {
	for _, seed := range scenarioSeries() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<11 {
			data = data[:1<<11]
		}
		p := newBitmapPair(0, 0, 0)
		for i, b := range data {
			p.add(t, float64(int8(b)))
			if s := p.got.Score(); math.IsNaN(s) || s < 0 {
				t.Fatalf("step %d: score %v", i, s)
			}
		}
	})
}
