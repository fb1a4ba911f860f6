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
	// DegenerateScore marks the unbounded any-change-is-an-outlier case.
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
	// MaxHistory bounds the history length; 0 means DefaultMaxHistory.
	MaxHistory int

	hist  []float64
	score float64

	// allSame fast path: most monitored series sit at a constant value
	// for long stretches; tracking that avoids O(n log n) median work.
	allSame bool
	sameVal float64
}

// DefaultMaxHistory bounds detector history so long-running series adapt to
// slow drift while staying robust to outliers.
const DefaultMaxHistory = 96

const zScoreConsistency = 0.6745 // E[MAD]/σ for the normal distribution

// DegenerateScore is the score assigned when a constant history makes any
// differing value an outlier (zero MAD and zero mean absolute deviation).
// It is a finite stand-in for +Inf: it sorts above every real score, and —
// unlike Inf — survives encoding/json, which rejects non-finite floats
// (an Inf score silently truncated API verdict bodies and failed snapshot
// writes).
const DegenerateScore = math.MaxFloat64

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
		return DefaultMaxHistory
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
				d.score = DegenerateScore
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
// DefaultMaxHistory trim, but Add only ever reads its length and its last
// Lead+Lag values, so that is all the detector stores; the score history,
// which the adaptive threshold does read in full, lives in one buffer of
// fixed capacity. A series that has never moved stores neither: every value
// equals sameVal and every score is zero, so two counters stand in for both.
type BitmapDetector struct {
	// Alphabet is the SAX alphabet size; 4 if zero (the paper's reference
	// implementation default).
	Alphabet int
	// Lead is the lead-window length; 8 if zero.
	Lead int
	// Lag is the lag-window length; 32 if zero.
	Lag int
	// Sigmas is the adaptive threshold multiplier; 3 if zero.
	Sigmas float64

	// n is the history length and win its most recent values (at least
	// min(n, Lead+Lag) of them, contiguous, newest last). scores is the
	// score history. While allSame holds both slices are nil and nScores
	// counts the zero scores; afterwards nScores is unused.
	n         int
	win       []float64
	scores    []float64
	nScores   int
	lastScore float64

	allSame bool
	sameVal float64
	started bool
}

// historyCap is where the value and score histories are trimmed, and
// historyKeep what a trim keeps: the adaptive threshold is taken over
// between two and four DefaultMaxHistory windows of scores.
const (
	historyCap  = 4 * DefaultMaxHistory
	historyKeep = 2 * DefaultMaxHistory
)

// NewBitmap returns a detector with reference defaults.
func NewBitmap() *BitmapDetector { return &BitmapDetector{} }

func (d *BitmapDetector) alphabet() int {
	if d.Alphabet == 0 {
		return 4
	}
	return d.Alphabet
}

func (d *BitmapDetector) lead() int {
	if d.Lead == 0 {
		return 8
	}
	return d.Lead
}

func (d *BitmapDetector) lag() int {
	if d.Lag == 0 {
		return 32
	}
	return d.Lag
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
func (d *BitmapDetector) Ready() bool { return d.n >= d.warmup() }

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
		// Constant series: zero score, never an outlier, O(1). A window is
		// scored (as zero) once the history, this value included, is past
		// warm-up; from MinObservations on the lead window no longer
		// matters because nothing is compared.
		d.n++
		d.lastScore = 0
		if d.n > MinObservations || d.n >= d.warmup() {
			d.nScores++
		}
		if d.n > historyCap {
			d.n, d.nScores = historyKeep, historyKeep
		}
		return false
	}
	d.push(v)
	if d.n < d.warmup() {
		d.lastScore = 0
		return false
	}
	lead := d.win[len(d.win)-d.lead():]
	lagStart := len(d.win) - d.lead() - d.lag()
	if lagStart < 0 {
		lagStart = 0
	}
	lag := d.win[lagStart : len(d.win)-d.lead()]
	d.lastScore = bitmapDistance(lag, lead, d.alphabet())

	// The cheap half of the test first: a (near-)zero score is never an
	// outlier, whatever the threshold.
	if d.lastScore > 1e-12 && len(d.scores) >= MinObservations {
		m, s := meanStd(d.scores)
		if d.lastScore > m+d.sigmas()*s {
			// Remove the offending value so persistent shifts keep flagging.
			d.win = d.win[:len(d.win)-1]
			d.n--
			return true
		}
	}
	d.scores = append(d.scores, d.lastScore)
	if len(d.scores) > historyCap {
		d.scores = d.scores[:copy(d.scores, d.scores[len(d.scores)-historyKeep:])]
	}
	if d.n > historyCap {
		d.n = historyKeep
		if len(d.win) > d.n {
			d.win = d.win[:copy(d.win, d.win[len(d.win)-d.n:])]
		}
	}
	return false
}

// materialize leaves the constant regime: the value window and the score
// history the counters stood for are written out, each into a buffer sized
// once for the detector's lifetime.
func (d *BitmapDetector) materialize() {
	w := d.lead() + d.lag()
	k := d.n
	if k > w {
		k = w
	}
	d.win = make([]float64, k, 2*w)
	for i := range d.win {
		d.win[i] = d.sameVal
	}
	d.scores = make([]float64, d.nScores, historyCap+1)
	d.nScores = 0
}

// push appends v to the history. win slides inside its buffer: when full,
// the newest Lead+Lag-1 values move to the front, so the lag and lead
// windows are always contiguous slices of it.
func (d *BitmapDetector) push(v float64) {
	if len(d.win) == cap(d.win) {
		keep := cap(d.win)/2 - 1
		d.win = d.win[:copy(d.win, d.win[len(d.win)-keep:])]
	}
	d.win = append(d.win, v)
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

// Median exposes the median for callers that need summary statistics.
func Median(xs []float64) float64 { return median(xs) }

// MeanStd exposes mean and standard deviation.
func MeanStd(xs []float64) (float64, float64) { return meanStd(xs) }
