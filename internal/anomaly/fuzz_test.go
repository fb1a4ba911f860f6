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
// always carries a positive score, and degenerateScore appears only once
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
			if s == degenerateScore && !out {
				t.Fatalf("step %d: degenerate score without outlier verdict", i)
			}
		}
	})
}

// FuzzBitmapDetector pins the same no-panic/no-NaN contract for the
// bitmap detector over the identical seed corpora, holds every verdict
// and every score bit to the unbounded reference implementation, and holds
// Settled to its contract at every step.
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
			checkSettledStep(t, p, float64(int8(b)))
			if s := p.got.Score(); math.IsNaN(s) || s < 0 {
				t.Fatalf("step %d: score %v", i, s)
			}
		}
	})
}

// fuzzLadders are the ladders FuzzChooseWindowMin picks from: the default,
// a PublicLadder-style custom ladder whose rungs share a divisor smaller
// than its shortest rung, a single rung, and rungs out of size order.
var fuzzLadders = [][]int64{nil, {600, 1500, 3000}, {900}, {7, 86400, 60}}

// chooseWindowInput turns fuzz arguments into ChooseWindowMin's: ascending
// times from start by the 16-bit gaps packed in data, and now as an offset
// from the newest time.
func chooseWindowInput(data []byte, start, nowOff int64, ladderSel, minPer8 uint8) ([]int64, int64, []int64, int) {
	start %= 1 << 40
	if len(data) > 1<<13 {
		data = data[:1<<13]
	}
	times := make([]int64, 0, len(data)/2)
	t := start
	for i := 0; i+1 < len(data); i += 2 {
		t += int64(data[i])<<8 | int64(data[i+1])
		times = append(times, t)
	}
	return times, t + nowOff%(1<<24), fuzzLadders[int(ladderSel)%len(fuzzLadders)], int(minPer8 % 4)
}

// gapBytes packs gaps for chooseWindowInput, n times each.
func gapBytes(gap uint16, n int) []byte {
	out := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		out = append(out, byte(gap>>8), byte(gap))
	}
	return out
}

// FuzzChooseWindowMin holds the walk-back window choice to the full-scan
// reference over ascending times: the same window, or the same "no".
func FuzzChooseWindowMin(f *testing.F) {
	dense := gapBytes(300, 200)   // activates on the shortest rung
	hourly := gapBytes(1800, 100) // 900 s falls short, longer rungs hold
	burst := append(gapBytes(450, 80), gapBytes(0, 300)...)
	holey := append(append(gapBytes(300, 60), gapBytes(9000, 1)...), gapBytes(300, 60)...)
	for minPer := uint8(0); minPer < 4; minPer++ {
		f.Add(dense, int64(10000), int64(1), uint8(0), minPer)
		f.Add(hourly, int64(0), int64(0), uint8(0), minPer)
		f.Add(dense, int64(-50000), int64(3), uint8(1), minPer)      // negative times
		f.Add(burst, int64(5000), int64(0), uint8(1), minPer)        // times in the current window
		f.Add(dense, int64(100000), int64(-70000), uint8(0), minPer) // now before the first time
		f.Add(holey, int64(20000), int64(900), uint8(2), minPer)
		f.Add(hourly, int64(7), int64(86400), uint8(3), minPer)
	}
	f.Add([]byte(nil), int64(0), int64(1<<20), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, start, nowOff int64, ladderSel, minPer8 uint8) {
		times, now, ladder, minPer := chooseWindowInput(data, start, nowOff, ladderSel, minPer8)
		gw, gok := ChooseWindowMin(times, now, ladder, minPer)
		ww, wok := refChooseWindowMin(times, now, ladder, minPer)
		if gw != ww || gok != wok {
			t.Fatalf("%d times from %v, now %d, ladder %v, minPer %d: got %d,%v; the full scan says %d,%v",
				len(times), times[:min(1, len(times))], now, ladder, minPer, gw, gok, ww, wok)
		}
	})
}
