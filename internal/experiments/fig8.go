package experiments

import (
	"strings"

	"rrr/internal/baselines"
	"rrr/internal/bordermap"
	"rrr/internal/traceroute"
)

// Fig8Result carries the budget sweep of §5.3/§6.1: the fraction of
// border-level changes each approach detects at each average per-path
// probing rate.
type Fig8Result struct {
	// PPS is the x-axis: average probing packets per second per path.
	PPS []float64
	// Fractions per strategy, indexed like PPS.
	RoundRobin    []float64
	Sibyl         []float64
	DTrack        []float64
	Signals       []float64
	DTrackSignals []float64
	// Optimal is budget-independent: the signals' coverage bound, the
	// fraction of changes with a matched signal.
	Optimal float64
	// TotalChanges in the pseudo-ground-truth.
	TotalChanges int
}

// RunFig8 builds a DTRACK-style pseudo-ground-truth (dense measurements of
// every monitored pair), runs the monitor over the same period to produce a
// signal feed, and emulates every approach across the probing-budget sweep.
func RunFig8(sc Scale, pairs int, ppsSweep []float64) *Fig8Result {
	lab := NewLab(sc)
	lab.BuildCorpus()
	keys := lab.Mon.Tracked()
	if pairs > 0 && len(keys) > pairs {
		keys = keys[:pairs]
	}

	pathIDs := make(map[string]int)
	idOf := func(borders []bordermap.BorderHop) (int, []string) {
		var sb strings.Builder
		keysList := make([]string, 0, len(borders))
		for _, b := range borders {
			k := b.Key()
			keysList = append(keysList, k)
			sb.WriteString(k)
			sb.WriteByte('|')
		}
		s := sb.String()
		id, ok := pathIDs[s]
		if !ok {
			id = len(pathIDs) + 1
			pathIDs[s] = id
		}
		return id, keysList
	}

	timelines := make(map[traceroute.Key]*baselines.Timeline, len(keys))
	for _, k := range keys {
		timelines[k] = &baselines.Timeline{Key: k}
	}

	feed := baselines.SignalFeed{}
	start, end := int64(0), int64(sc.Days)*86400/sc.WindowSec*sc.WindowSec

	for {
		ws, sigs, ok := lab.Window()
		if !ok {
			break
		}
		for _, s := range sigs {
			if _, monitored := timelines[s.Key]; monitored {
				feed[s.Key] = append(feed[s.Key], s.WindowStart)
			}
		}
		// Dense ground-truth measurement of every pair (the 67 pps
		// PlanetLab pseudo-ground-truth of §5.3).
		now := ws + sc.WindowSec
		for _, k := range keys {
			en, err := lab.MeasurePair(k, now)
			if err != nil {
				continue
			}
			id, borderKeys := idOf(en.Borders)
			timelines[k].Obs = append(timelines[k].Obs, baselines.PathObservation{
				Time: now, PathID: id, Borders: borderKeys,
			})
		}
	}

	var tls []*baselines.Timeline
	for _, k := range keys {
		if len(timelines[k].Obs) > 0 {
			tls = append(tls, timelines[k])
		}
	}
	oracle := baselines.NewOracle(tls)

	res := &Fig8Result{TotalChanges: oracle.TotalChanges(start, end)}
	opt := baselines.MatchOptimal(oracle, feed, 1800, start, end)
	res.Optimal = opt.Fraction()

	step := sc.WindowSec
	for _, pps := range ppsSweep {
		res.PPS = append(res.PPS, pps)
		rr := baselines.Evaluate(oracle, &baselines.RoundRobin{}, start, end, step, pps)
		res.RoundRobin = append(res.RoundRobin, rr.Fraction())
		sib := baselines.Evaluate(oracle, &baselines.Sibyl{}, start, end, step, pps)
		res.Sibyl = append(res.Sibyl, sib.Fraction())
		dt := baselines.Evaluate(oracle, baselines.NewDTrack(), start, end, step, pps)
		res.DTrack = append(res.DTrack, dt.Fraction())
		sig := baselines.EvaluateSignalsMatched(oracle, feed, 1800, start, end, step, pps)
		res.Signals = append(res.Signals, sig.Fraction())
		ds := baselines.Evaluate(oracle, baselines.NewDTrackSignals(feed), start, end, step, pps)
		res.DTrackSignals = append(res.DTrackSignals, ds.Fraction())
	}
	return res
}
