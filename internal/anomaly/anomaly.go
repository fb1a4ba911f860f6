// Package anomaly implements the two univariate time-series outlier
// detectors the paper uses to turn monitored ratios into staleness
// prediction signals: the assumption-free Bitmap detector of Wei et al.
// (SSDBM 2005), used on BGP-derived series (§4.1.2), and the modified
// z-score of Iglewicz & Hoaglin (1993), used on the noisier
// traceroute-derived series (§4.2.1).
//
// Both detectors are online: values arrive one per time window. Both follow
// the paper's stationarity rule (§4.1.2): windows flagged as outliers are
// removed from the detector's history so a persistent level shift keeps
// registering as an outlier instead of becoming the new normal. Missing
// windows are never outliers and leave the history untouched.
package anomaly

import (
	"math"
	"sort"
)

// MinObservations is the minimum number of history windows required before
// a detector will flag anything; 20 is "widely considered as the minimum
// recommended number of observations for robust outlier detection" (§4.2.1).
const MinObservations = 20

// Detector is an online outlier detector over one univariate series.
type Detector interface {
	// Add appends the next window's value and reports whether that window
	// is an outlier. Implementations must not let flagged values pollute
	// their history (stationarity preservation).
	Add(v float64) bool
	// Score returns the outlier score of the most recent Add; larger means
	// more anomalous. The scale is detector specific, but scores are
	// always finite (signals travel through JSON, which rejects NaN/Inf);
	// degenerateScore marks the unbounded any-change-is-an-outlier case.
	Score() float64
	// Ready reports whether enough history has accumulated to flag.
	Ready() bool
}

// --- Modified z-score (Iglewicz & Hoaglin) ---

// ZScoreDetector flags values whose modified z-score based on the median and
// MAD of the history exceeds Threshold. The conventional cutoff is 3.5.
type ZScoreDetector struct {
	// Threshold is the |modified z| cutoff; 3.5 if zero.
	Threshold float64
	// MaxHistory bounds the history length; 0 means defaultMaxHistory.
	MaxHistory int

	hist  []float64
	score float64

	// allSame fast path: most monitored series sit at a constant value
	// for long stretches; tracking that avoids O(n log n) median work.
	allSame bool
	sameVal float64
}

// defaultMaxHistory bounds detector history so long-running series adapt to
// slow drift while staying robust to outliers.
const defaultMaxHistory = 96

const zScoreConsistency = 0.6745 // E[MAD]/σ for the normal distribution

// degenerateScore is the score assigned when a constant history makes any
// differing value an outlier (zero MAD and zero mean absolute deviation).
// It is a finite stand-in for +Inf: it sorts above every real score, and —
// unlike Inf — survives encoding/json, which rejects non-finite floats
// (an Inf score silently truncated API verdict bodies and failed snapshot
// writes).
const degenerateScore = math.MaxFloat64

// NewZScore returns a detector with the conventional 3.5 cutoff.
func NewZScore() *ZScoreDetector { return &ZScoreDetector{} }

func (d *ZScoreDetector) threshold() float64 {
	if d.Threshold == 0 {
		return 3.5
	}
	return d.Threshold
}

func (d *ZScoreDetector) maxHistory() int {
	if d.MaxHistory == 0 {
		return defaultMaxHistory
	}
	return d.MaxHistory
}

// Ready reports whether the detector has MinObservations of history.
func (d *ZScoreDetector) Ready() bool { return len(d.hist) >= MinObservations }

// Score returns the |modified z| of the last added value.
func (d *ZScoreDetector) Score() float64 { return d.score }

// Add appends v and reports whether it is an outlier. Outliers are not
// added to the history.
func (d *ZScoreDetector) Add(v float64) bool {
	if !d.Ready() {
		if len(d.hist) == 0 {
			d.allSame, d.sameVal = true, v
		} else if v != d.sameVal {
			d.allSame = false
		}
		d.hist = append(d.hist, v)
		d.score = 0
		return false
	}
	if d.allSame && v == d.sameVal {
		d.score = 0
		d.push(v)
		return false
	}
	med := median(d.hist)
	mad := medianAbsDev(d.hist, med)
	if mad == 0 {
		// Iglewicz–Hoaglin fallback: use the mean absolute deviation.
		meanAD := meanAbsDev(d.hist, med)
		if meanAD == 0 {
			// Degenerate constant history: any different value is an
			// outlier once ready.
			if v != med {
				d.score = degenerateScore
				return true
			}
			d.score = 0
			d.push(v)
			return false
		}
		d.score = math.Abs(v-med) / (1.253314 * meanAD)
	} else {
		d.score = zScoreConsistency * math.Abs(v-med) / mad
	}
	if d.score > d.threshold() {
		return true
	}
	d.push(v)
	return false
}

func (d *ZScoreDetector) push(v float64) {
	if v != d.sameVal {
		d.allSame = false
	}
	d.hist = append(d.hist, v)
	if max := d.maxHistory(); len(d.hist) > max {
		d.hist = d.hist[len(d.hist)-max:]
	}
}

// --- Bitmap detector (Wei et al.) ---

// BitmapDetector implements the assumption-free anomaly bitmap detector:
// the series is SAX-discretized, bigram frequency bitmaps are computed over
// a lag window (the past) and a lead window (the recent values), and the
// anomaly score is the squared distance between the normalized bitmaps. A
// window is flagged when its score exceeds an adaptive threshold (mean + k·σ
// of past scores).
//
// The outlier-free history is conceptually unbounded up to a 4×→2×
// defaultMaxHistory trim, but Add only ever reads its length and its last
// Lead+Lag values, so that is all the detector stores; the score history,
// which the adaptive threshold does read in full, lives in one buffer that
// grows on demand to at most historyCap+1 scores. A series that has never
// moved stores neither: every value equals sameVal and every score is
// zero, so two counters stand in for both, and the detector allocates
// nothing. A series that moved and then held one value long enough to
// fill both windows scores zero without discretizing anything: both
// bitmaps are the single bigram (v, v).
//
// The zero value is a detector with the reference defaults; it is small
// enough (48 bytes) for a series to hold it by value.
type BitmapDetector struct {
	// Sigmas is the adaptive threshold multiplier; 3 if zero.
	Sigmas float64
	// Alphabet is the SAX alphabet size; 4 if zero (the paper's reference
	// implementation default).
	Alphabet int16
	// Lead is the lead-window length; 8 if zero.
	Lead int16
	// Lag is the lag-window length; 32 if zero.
	Lag int16

	allSame bool
	started bool

	lastScore float64
	sameVal   float64
	// n is the history length. While allSame holds, nScores counts the
	// zero scores (after the one non-zero score constantScore can give,
	// if it gave one); afterwards it is unused. Neither passes
	// historyCap+1.
	n       int32
	nScores int32
	// h holds the value window and the score history; nil while allSame
	// holds, unless the constant regime scored non-zero.
	h *bitmapHistory
}

// bitmapHistory is the stored history of a detector. win holds the most
// recent values (at least min(n, Lead+Lag) of them, contiguous, newest
// last), and run is the length of the history's trailing run of equal
// values, saturating at math.MaxInt32 (every decision reads it against
// Lead+Lag). scores is the score history, grown on demand up to
// historyCap+1 scores. While the detector's allSame holds, win is nil, run
// is unused and scores holds the one non-zero score constantScore gave.
type bitmapHistory struct {
	win    []float64
	scores []float64
	run    int32
}

// historyCap is where the value and score histories are trimmed, and
// historyKeep what a trim keeps: the adaptive threshold is taken over
// between two and four defaultMaxHistory windows of scores.
const (
	historyCap  = 4 * defaultMaxHistory
	historyKeep = 2 * defaultMaxHistory
)

func (d *BitmapDetector) alphabet() int {
	if d.Alphabet == 0 {
		return 4
	}
	return int(d.Alphabet)
}

func (d *BitmapDetector) lead() int {
	if d.Lead == 0 {
		return 8
	}
	return int(d.Lead)
}

func (d *BitmapDetector) lag() int {
	if d.Lag == 0 {
		return 32
	}
	return int(d.Lag)
}

func (d *BitmapDetector) sigmas() float64 {
	if d.Sigmas == 0 {
		return 3
	}
	return d.Sigmas
}

// warmup is the history length below which nothing is scored.
func (d *BitmapDetector) warmup() int {
	need := d.lead() + 4
	if need < MinObservations {
		need = MinObservations
	}
	return need
}

// Ready reports whether enough history has accumulated.
func (d *BitmapDetector) Ready() bool { return int(d.n) >= d.warmup() }

// Score returns the bitmap distance of the most recent Add.
func (d *BitmapDetector) Score() float64 { return d.lastScore }

// Add appends v and reports whether it is an outlier. Flagged values are
// removed from history to preserve stationarity.
func (d *BitmapDetector) Add(v float64) bool {
	if !d.started {
		d.started, d.allSame, d.sameVal = true, true, v
	} else if d.allSame && v != d.sameVal {
		d.allSame = false
		d.materialize()
	}
	if d.allSame {
		// Constant series: never an outlier, O(1). A window is scored once
		// the history, this value included, is past warm-up. From
		// MinObservations on nothing is compared and the score is zero; a
		// window scored at exactly MinObservations compares its lag and
		// lead windows like any other (constantScore).
		d.n++
		d.lastScore = 0
		switch {
		case d.n == MinObservations && int(d.n) >= d.warmup():
			if d.lastScore = d.constantScore(v); d.lastScore != 0 {
				d.h = &bitmapHistory{scores: []float64{d.lastScore}}
			} else {
				d.nScores++
			}
		case d.n > MinObservations:
			d.nScores++
		}
		if d.n > historyCap {
			d.n, d.nScores, d.h = historyKeep, historyKeep, nil
		}
		return false
	}
	h := d.h
	run := h.run
	d.push(v)
	if int(d.n) < d.warmup() {
		d.lastScore = 0
		return false
	}
	if d.flat(int(h.run), len(h.win)) {
		d.lastScore = 0
	} else {
		lead := h.win[len(h.win)-d.lead():]
		lagStart := len(h.win) - d.lead() - d.lag()
		if lagStart < 0 {
			lagStart = 0
		}
		lag := h.win[lagStart : len(h.win)-d.lead()]
		d.lastScore = bitmapDistance(lag, lead, d.alphabet())
	}

	// The cheap half of the test first: a (near-)zero score is never an
	// outlier, whatever the threshold.
	if d.lastScore > 1e-12 && len(h.scores) >= MinObservations {
		m, s := meanStd(h.scores)
		if d.lastScore > m+d.sigmas()*s {
			// Remove the offending value so persistent shifts keep flagging.
			h.win = h.win[:len(h.win)-1]
			d.n--
			h.run = run
			return true
		}
	}
	h.scores = extendScores(h.scores, 1)
	h.scores[len(h.scores)-1] = d.lastScore
	if len(h.scores) > historyCap {
		h.scores = h.scores[:copy(h.scores, h.scores[len(h.scores)-historyKeep:])]
	}
	if d.n > historyCap {
		d.n = historyKeep
		if len(h.win) > historyKeep {
			h.win = h.win[:copy(h.win, h.win[len(h.win)-historyKeep:])]
		}
	}
	return false
}

// flat reports whether, with a trailing run of run equal values in a value
// window of length w, the lag and lead windows hold that one value and at
// least two of it each. Both bitmaps are then the single bigram (v, v), so
// the score is exactly what bitmapDistance returns for them: zero, whatever
// the lag window's mean rounds to.
func (d *BitmapDetector) flat(run, w int) bool {
	lead := d.lead()
	lag := w - lead
	if lag > d.lag() {
		lag = d.lag()
	}
	return lead >= 2 && lag >= 2 && run >= lead+lag
}

// Settled reports whether the next Add(v) is a zero-score step that flags
// nothing and after which Settled(v) still holds: a caller that knows its
// series will stay at v may defer those steps and replay them later, one
// Add(v) per deferred value, with the same result.
func (d *BitmapDetector) Settled(v float64) bool {
	if !d.started {
		return false
	}
	if d.allSame {
		// Only a window scored at exactly MinObservations can score
		// non-zero (constantScore), and not when both of its windows can
		// hold a bigram.
		return v == d.sameVal && (d.n >= MinObservations || d.flat(MinObservations, MinObservations))
	}
	h := d.h
	if int(d.n)+1 < d.warmup() || h.win[len(h.win)-1] != v {
		return false
	}
	w := len(h.win) + 1
	if len(h.win) == cap(h.win) {
		w = cap(h.win) / 2
	}
	return d.flat(int(h.run)+1, w)
}

// Clone returns an independent detector in the same state: it answers
// every later sequence of Adds exactly as d would.
func (d *BitmapDetector) Clone() BitmapDetector {
	c := *d
	if d.h != nil {
		c.h = &bitmapHistory{win: cloneFloats(d.h.win), scores: cloneFloats(d.h.scores), run: d.h.run}
	}
	return c
}

// cloneFloats copies xs into a buffer of the same length and capacity:
// push slides win at its capacity.
func cloneFloats(xs []float64) []float64 {
	if xs == nil {
		return nil
	}
	out := make([]float64, len(xs), cap(xs))
	copy(out, xs)
	return out
}

// extendScores lengthens a score history by n zero scores. Its buffer
// grows by doubling from 16 scores, never past the historyCap+1 a history
// reaches before Add trims it, so a detector that has just left the
// constant regime holds only the scores it has.
func extendScores(s []float64, n int) []float64 {
	l := len(s) + n
	if l > cap(s) {
		c := max(min(max(2*cap(s), 16), historyCap+1), l)
		s = append(make([]float64, 0, c), s...)
	}
	s = s[:l]
	clear(s[l-n:])
	return s
}

// materialize leaves the constant regime: the value window and the score
// history the counters stood for are written out, the window into a buffer
// sized once for the detector's lifetime.
func (d *BitmapDetector) materialize() {
	if d.h == nil {
		d.h = &bitmapHistory{}
	}
	h := d.h
	w := d.lead() + d.lag()
	k := min(int(d.n), w)
	h.win = make([]float64, k, 2*w)
	for i := range h.win {
		h.win[i] = d.sameVal
	}
	// The zero scores after the constant regime's one non-zero score.
	h.scores = extendScores(h.scores, int(d.nScores))
	d.nScores = 0
	h.run = int32(k)
}

// constantScore is the score of the window a constant series at v takes at
// exactly MinObservations values: the bitmap distance between its lag and
// lead windows. It is zero unless one window is too short to hold a bigram
// and the lag window's mean of v rounds away from v.
func (d *BitmapDetector) constantScore(v float64) float64 {
	var hist [MinObservations]float64
	for i := range hist {
		hist[i] = v
	}
	lead := MinObservations - d.lead()
	lagStart := lead - d.lag()
	if lagStart < 0 {
		lagStart = 0
	}
	return bitmapDistance(hist[lagStart:lead], hist[lead:], d.alphabet())
}

// push appends v to the history. win slides inside its buffer: when full,
// the newest Lead+Lag-1 values move to the front, so the lag and lead
// windows are always contiguous slices of it.
func (d *BitmapDetector) push(v float64) {
	h := d.h
	if h.win[len(h.win)-1] == v {
		if h.run < math.MaxInt32 {
			h.run++
		}
	} else {
		h.run = 1
	}
	if len(h.win) == cap(h.win) {
		keep := cap(h.win)/2 - 1
		h.win = h.win[:copy(h.win, h.win[len(h.win)-keep:])]
	}
	h.win = append(h.win, v)
	d.n++
}

// maxAlphabet is the largest SAX alphabet with declared breakpoints.
const maxAlphabet = 8

// bitmapDistance computes the squared distance between the normalized
// bigram frequency bitmaps of the SAX words of the two windows. Values are
// z-normalized with the *lag* window's statistics so that a level shift in
// the lead window pushes its values into extreme symbols instead of
// re-centering the discretization around the shift.
func bitmapDistance(lag, lead []float64, alphabet int) float64 {
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
	alphabet = saxAlphabet(alphabet)
	var lagBM, leadBM [maxAlphabet * maxAlphabet]float64
	bigramBitmap(lagBM[:alphabet*alphabet], lag, m, s, alphabet)
	bigramBitmap(leadBM[:alphabet*alphabet], lead, m, s, alphabet)
	var dist float64
	for i := 0; i < alphabet*alphabet; i++ {
		diff := lagBM[i] - leadBM[i]
		dist += diff * diff
	}
	return dist
}

// gaussianBreakpoints per SAX, indexed by alphabet size (2..maxAlphabet).
var gaussianBreakpoints = [maxAlphabet + 1][]float64{
	2: {0},
	3: {-0.43, 0.43},
	4: {-0.67, 0, 0.67},
	5: {-0.84, -0.25, 0.25, 0.84},
	6: {-0.97, -0.43, 0, 0.43, 0.97},
	7: {-1.07, -0.57, -0.18, 0.18, 0.57, 1.07},
	8: {-1.15, -0.67, -0.32, 0, 0.32, 0.67, 1.15},
}

// saxAlphabet is the alphabet size actually in use: sizes without declared
// breakpoints fall back to 4.
func saxAlphabet(alphabet int) int {
	if alphabet < 2 || alphabet > maxAlphabet {
		return 4
	}
	return alphabet
}

func saxSymbol(z float64, alphabet int) int {
	bps := gaussianBreakpoints[saxAlphabet(alphabet)]
	for i, bp := range bps {
		if z < bp {
			return i
		}
	}
	return len(bps)
}

// bigramBitmap fills bm (zeroed, len alphabet²) with the normalized bigram
// frequencies of the window's SAX word under the given normalization.
func bigramBitmap(bm, window []float64, m, s float64, alphabet int) {
	if len(window) < 2 {
		return
	}
	var total float64
	a := saxSymbol((window[0]-m)/s, alphabet)
	for _, v := range window[1:] {
		b := saxSymbol((v-m)/s, alphabet)
		bm[a*alphabet+b]++
		total++
		a = b
	}
	// Normalize to a probability distribution so window lengths do not
	// bias the distance.
	for i := range bm {
		bm[i] /= total
	}
}

// --- small statistics helpers ---

func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	tmp := make([]float64, n)
	copy(tmp, xs)
	sort.Float64s(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

func medianAbsDev(xs []float64, med float64) float64 {
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return median(devs)
}

func meanAbsDev(xs []float64, med float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Abs(x - med)
	}
	return sum / float64(len(xs))
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}
