package experiments

import (
	"sort"

	"rrr/internal/bgp"
	"rrr/internal/bordermap"
	"rrr/internal/core"
	"rrr/internal/traceroute"
)

// DiamondsResult carries §5.4's load-balancing analysis: the distribution
// of staleness prediction signals per interdomain segment for load-balanced
// (diamond) versus non-load-balanced segments (Fig 9), and the per-segment
// precision distributions (Fig 10).
type DiamondsResult struct {
	LBSegments    int
	NonLBSegments int
	// Fraction of segments of each kind with at least one signal.
	LBFlaggedFrac    float64
	NonLBFlaggedFrac float64
	// Per-segment signal counts (sorted) for the Fig 9 CDFs.
	LBSignalCounts    []int
	NonLBSignalCounts []int
	// Per-segment precision values (sorted) for the Fig 10 CDFs, and their
	// medians.
	LBPrecision     []float64
	NonLBPrecision  []float64
	LBMedianPrec    float64
	NonLBMedianPrec float64
}

// RunDiamonds executes §5.4: run the traceroute-based techniques over a
// period and compare signal behaviour on segments crossing interdomain
// diamonds against ordinary segments.
func RunDiamonds(sc Scale) *DiamondsResult {
	lab := NewLab(sc)
	lab.BuildCorpus()
	keys := lab.Mon.Tracked()

	lbPairs := make(map[[2]bgp.ASN]bool)
	for _, p := range lab.Sim.InterdomainLBPairs() {
		lbPairs[p] = true
		lbPairs[[2]bgp.ASN{p[1], p[0]}] = true
	}

	// Segment = ordered AS pair crossed by some corpus traceroute.
	type segStat struct {
		lb      bool
		signals int
		tp      int
	}
	segs := make(map[[2]bgp.ASN]*segStat)
	segOf := func(pair [2]bgp.ASN) *segStat {
		st := segs[pair]
		if st == nil {
			st = &segStat{lb: lbPairs[pair]}
			segs[pair] = st
		}
		return st
	}
	for _, k := range keys {
		en, _ := lab.Mon.Entry(k)
		for _, b := range en.Borders {
			segOf([2]bgp.ASN{b.FromAS, b.ToAS})
		}
	}

	windowsPerRound := int(sc.RoundSec / sc.WindowSec)

	type pendingSig struct {
		pair [2]bgp.ASN
		key  traceroute.Key
	}
	var pending []pendingSig

	for w := 0; ; w++ {
		ws, sigs, ok := lab.Window()
		if !ok {
			break
		}
		for _, s := range sigs {
			// §5.4 evaluates the traceroute-based techniques.
			if s.Technique != core.TechTraceSubpath && s.Technique != core.TechTraceBorder {
				continue
			}
			en, ok := lab.Mon.Entry(s.Key)
			if !ok {
				continue
			}
			for _, bi := range s.Borders {
				if bi >= len(en.Borders) {
					continue
				}
				b := en.Borders[bi]
				pair := [2]bgp.ASN{b.FromAS, b.ToAS}
				segOf(pair).signals++
				pending = append(pending, pendingSig{pair: pair, key: s.Key})
			}
		}
		if (w+1)%windowsPerRound != 0 {
			continue
		}
		// Round: refresh every pair (calibrating, as §5.4's shared
		// retrospective run does) and resolve pending signals against the
		// segments that changed.
		now := ws + sc.WindowSec
		changedPairs := make(map[traceroute.Key]map[[2]bgp.ASN]bool)
		for _, k := range keys {
			en, _ := lab.Mon.Entry(k)
			if _, err := lab.Refresh(k, now); err != nil {
				continue
			}
			fresh, _ := lab.Mon.Entry(k)
			if diff := changedSegments(en.Borders, fresh.Borders); len(diff) > 0 {
				changedPairs[k] = diff
			}
		}
		for _, ps := range pending {
			if changedPairs[ps.key][ps.pair] {
				segs[ps.pair].tp++
			}
		}
		pending = pending[:0]
	}

	res := &DiamondsResult{}
	for _, st := range segs {
		if st.lb {
			res.LBSegments++
			res.LBSignalCounts = append(res.LBSignalCounts, st.signals)
			if st.signals > 0 {
				res.LBFlaggedFrac++
				res.LBPrecision = append(res.LBPrecision, float64(st.tp)/float64(st.signals))
			}
		} else {
			res.NonLBSegments++
			res.NonLBSignalCounts = append(res.NonLBSignalCounts, st.signals)
			if st.signals > 0 {
				res.NonLBFlaggedFrac++
				res.NonLBPrecision = append(res.NonLBPrecision, float64(st.tp)/float64(st.signals))
			}
		}
	}
	if res.LBSegments > 0 {
		res.LBFlaggedFrac /= float64(res.LBSegments)
	}
	if res.NonLBSegments > 0 {
		res.NonLBFlaggedFrac /= float64(res.NonLBSegments)
	}
	sort.Ints(res.LBSignalCounts)
	sort.Ints(res.NonLBSignalCounts)
	sort.Float64s(res.LBPrecision)
	sort.Float64s(res.NonLBPrecision)
	res.LBMedianPrec = medianF(res.LBPrecision)
	res.NonLBMedianPrec = medianF(res.NonLBPrecision)
	return res
}

// changedSegments returns the AS pairs whose border router changed between
// two measurements (visible in both).
func changedSegments(old, new []bordermap.BorderHop) map[[2]bgp.ASN]bool {
	byPair := func(bs []bordermap.BorderHop) map[[2]bgp.ASN]string {
		out := make(map[[2]bgp.ASN]string, len(bs))
		for _, b := range bs {
			out[[2]bgp.ASN{b.FromAS, b.ToAS}] += b.Key() + "|"
		}
		return out
	}
	om, nm := byPair(old), byPair(new)
	out := make(map[[2]bgp.ASN]bool)
	for pair, ok := range om {
		if nk, visible := nm[pair]; visible && nk != ok {
			out[pair] = true
		}
	}
	for pair := range nm {
		if _, wasVisible := om[pair]; !wasVisible {
			out[pair] = true // new crossing appeared
		}
	}
	return out
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
