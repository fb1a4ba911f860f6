package anomaly

// WindowedSeries buckets raw observations into fixed-duration time windows,
// feeds the per-window aggregate to an outlier detector as each window
// closes, and reports flagged windows. Empty windows are treated as missing
// values: they are skipped, never flagged (paper §4.1.2: "If P^intersect is
// empty, we consider the value as missing and not as an outlier").
type WindowedSeries struct {
	// WindowSec is the window duration in seconds (15 minutes = 900 in the
	// paper's BGP pipeline).
	WindowSec int64
	// Det is the outlier detector fed with one aggregate per non-empty
	// window.
	Det Detector
	// Agg chooses how multiple observations in one window combine;
	// aggMean if nil.
	Agg func(sum float64, n int) float64

	started bool
	curIdx  int64
	curSum  float64
	curN    int

	first, last       float64
	hasFirst, hasLast bool
}

// First returns the first completed non-empty window's aggregate: the
// series' baseline value for §4.3.2 revocation checks.
func (s *WindowedSeries) First() (float64, bool) { return s.first, s.hasFirst }

// Last returns the most recent completed non-empty window's aggregate.
func (s *WindowedSeries) Last() (float64, bool) { return s.last, s.hasLast }

// aggMean averages the observations in a window.
func aggMean(sum float64, n int) float64 { return sum / float64(n) }

// Outlier describes a flagged window.
type Outlier struct {
	// WindowStart is the start time (seconds) of the flagged window.
	WindowStart int64
	// Value is the aggregate that was flagged.
	Value float64
	// Score is the detector's outlier score.
	Score float64
}

// Observe adds an observation at time t and returns any outliers produced
// by windows that closed as a result. Observations must arrive in
// non-decreasing time order; out-of-order points are folded into the
// current window.
func (s *WindowedSeries) Observe(t int64, v float64) []Outlier {
	idx := t / s.WindowSec
	var out []Outlier
	if !s.started {
		s.started = true
		s.curIdx = idx
	}
	if idx > s.curIdx {
		out = s.flushTo(idx)
	}
	s.curSum += v
	s.curN++
	return out
}

// AdvanceTo closes all windows strictly before time t without adding an
// observation, returning any outliers from the closed windows.
func (s *WindowedSeries) AdvanceTo(t int64) []Outlier {
	if !s.started {
		return nil
	}
	idx := t / s.WindowSec
	if idx <= s.curIdx {
		return nil
	}
	return s.flushTo(idx)
}

// flushTo closes windows up to (but not including) idx. Only the current
// window can hold data; the gap windows between curIdx and idx are missing
// and are skipped entirely.
func (s *WindowedSeries) flushTo(idx int64) []Outlier {
	var out []Outlier
	if s.curN > 0 {
		agg := s.Agg
		if agg == nil {
			agg = aggMean
		}
		v := agg(s.curSum, s.curN)
		if !s.hasFirst {
			s.first, s.hasFirst = v, true
		}
		s.last, s.hasLast = v, true
		if s.Det.Add(v) {
			out = append(out, Outlier{
				WindowStart: s.curIdx * s.WindowSec,
				Value:       v,
				Score:       s.Det.Score(),
			})
		}
	}
	s.curIdx = idx
	s.curSum, s.curN = 0, 0
	return out
}

// Ready reports whether the underlying detector has enough history.
func (s *WindowedSeries) Ready() bool { return s.Det.Ready() }

// windowLadder is the set of candidate window durations used to auto-size
// traceroute-derived series (§4.2.1): minimum 15 minutes (the BGP window),
// maximum 24 hours (bounding accumulation to 20 days of data). Every rung
// is a multiple of 900 s, which the core engine relies on to decide a
// "no" once per 900-s bucket.
var windowLadder = []int64{900, 1800, 3600, 7200, 14400, 28800, 43200, 86400}

// ChooseWindowMin selects the smallest window duration from ladder such
// that the most recent 20 consecutive windows ending at `now` each contain
// at least minPer of the given observation timestamps (minPer < 1 is
// treated as 1). It returns false when even the largest window cannot
// produce 20 consecutive populated windows, in which case the subpath is
// not considered for staleness inference (§4.2.1). Requiring more than one
// observation per window keeps the per-window ratio from degenerating into
// single-coin-flip noise.
//
// times must be in non-decreasing order. Per rung, the check walks back
// from the newest time, so it stops at the first window that falls short
// instead of counting every buffered time; the answer depends only on the
// multiset of times.
func ChooseWindowMin(times []int64, now int64, ladder []int64, minPer int) (int64, bool) {
	if len(ladder) == 0 {
		ladder = windowLadder
	}
	if minPer < 1 {
		minPer = 1
	}
	for _, w := range ladder {
		endIdx := now / w
		startIdx := endIdx - MinObservations
		if startIdx >= 0 && windowsFilled(times, w, startIdx, endIdx, minPer) {
			return w, true
		}
	}
	return 0, false
}

// windowsFilled reports whether every w-second window with index in
// [startIdx, endIdx) holds at least minPer (≥ 1) of the ascending times.
// Truncated division keeps t/w non-decreasing in t, so the times of one
// window are contiguous and a window with no time shows as a jump.
func windowsFilled(times []int64, w, startIdx, endIdx int64, minPer int) bool {
	j := len(times) - 1
	for j >= 0 && times[j]/w >= endIdx {
		j--
	}
	for idx := endIdx - 1; idx >= startIdx; idx-- {
		n := 0
		for ; j >= 0 && times[j]/w == idx; j-- {
			n++
		}
		if n < minPer {
			return false
		}
	}
	return true
}
