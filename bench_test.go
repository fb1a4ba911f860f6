package rrr_test

// One benchmark per table and figure of the paper's evaluation. Each bench
// drives the corresponding experiment runner at a reduced scale and reports
// the headline quantities as custom metrics; cmd/rrrbench runs the full
// paper-style output. Heavyweight runs are computed once and shared across
// the benches that read different quantities from the same experiment
// (Table 2 and Figs 1/6/13 all come from the retrospective run, as in the
// paper).

import (
	"sync"
	"testing"

	"rrr"
	"rrr/internal/experiments"
)

func benchScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Days = 5
	return sc
}

var (
	retroOnce sync.Once
	retroRes  *experiments.RetroResult

	diamondOnce sync.Once
	diamondRes  *experiments.DiamondsResult

	censusOnce sync.Once
	censusRes  *experiments.CensusResult
)

func retro() *experiments.RetroResult {
	retroOnce.Do(func() { retroRes = experiments.RunRetrospective(benchScale()) })
	return retroRes
}

func diamonds() *experiments.DiamondsResult {
	diamondOnce.Do(func() { diamondRes = experiments.RunDiamonds(benchScale()) })
	return diamondRes
}

func census() *experiments.CensusResult {
	censusOnce.Do(func() { censusRes = experiments.RunCensus(benchScale()) })
	return censusRes
}

// BenchmarkFig1PathChanges regenerates Fig 1: the fraction of corpus paths
// whose border-level and AS-level forms differ from the initial measurement
// over time.
func BenchmarkFig1PathChanges(b *testing.B) {
	var r *experiments.RetroResult
	for i := 0; i < b.N; i++ {
		r = retro()
	}
	if n := len(r.Fig1Border); n > 0 {
		b.ReportMetric(r.Fig1Border[n-1], "final-border-frac")
		b.ReportMetric(r.Fig1AS[n-1], "final-as-frac")
	}
}

// BenchmarkTable2PrecisionCoverage regenerates Table 2: per-technique signal
// counts, precision, and coverage for the retrospective evaluation.
func BenchmarkTable2PrecisionCoverage(b *testing.B) {
	var r *experiments.RetroResult
	for i := 0; i < b.N; i++ {
		r = retro()
	}
	b.ReportMetric(r.AllTechniques.Precision, "precision")
	b.ReportMetric(r.AllTechniques.CovAll, "coverage")
	b.ReportMetric(float64(r.AllTechniques.Signals), "signals")
}

// BenchmarkFig6PrecisionCoverageOverTime regenerates Fig 6: daily precision
// and coverage series.
func BenchmarkFig6PrecisionCoverageOverTime(b *testing.B) {
	var r *experiments.RetroResult
	for i := 0; i < b.N; i++ {
		r = retro()
	}
	if n := len(r.Fig6Precision); n > 0 {
		b.ReportMetric(r.Fig6Precision[n-1], "final-day-precision")
		b.ReportMetric(r.Fig6Coverage[n-1], "final-day-coverage")
	}
}

// BenchmarkFig7LiveEvaluation regenerates Fig 7: refresh precision under
// signal-driven versus random selection with a fixed daily budget.
func BenchmarkFig7LiveEvaluation(b *testing.B) {
	sc := benchScale()
	sc.Days = 4
	var r *experiments.LiveResult
	for i := 0; i < b.N; i++ {
		r = experiments.RunLive(sc, 40)
	}
	b.ReportMetric(safeDiv(float64(r.SignalChanged), float64(r.SignalRefreshes)), "signal-precision")
	b.ReportMetric(safeDiv(float64(r.RandomChanged), float64(r.RandomRefreshes)), "random-precision")
}

// BenchmarkFig8BudgetSweep regenerates Fig 8: fraction of changes detected
// by signals, DTRACK, Sibyl, round-robin, and DTRACK+SIGNALS across probing
// budgets.
func BenchmarkFig8BudgetSweep(b *testing.B) {
	sc := benchScale()
	sc.Days = 4
	var r *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig8(sc, 150, []float64{0.0005, 0.002, 0.01})
	}
	last := len(r.PPS) - 1
	b.ReportMetric(r.Signals[0], "signals-lowbudget")
	b.ReportMetric(r.DTrack[0], "dtrack-lowbudget")
	b.ReportMetric(r.DTrackSignals[last], "dtrack+signals-high")
	b.ReportMetric(r.Optimal, "optimal")
}

// BenchmarkFig9LoadBalancedSignals regenerates Fig 9: signals per
// load-balanced versus non-load-balanced interdomain segment.
func BenchmarkFig9LoadBalancedSignals(b *testing.B) {
	var r *experiments.DiamondsResult
	for i := 0; i < b.N; i++ {
		r = diamonds()
	}
	b.ReportMetric(r.LBFlaggedFrac, "lb-flagged-frac")
	b.ReportMetric(r.NonLBFlaggedFrac, "nonlb-flagged-frac")
}

// BenchmarkFig10LoadBalancedPrecision regenerates Fig 10: per-segment
// precision for load-balanced versus non-load-balanced segments.
func BenchmarkFig10LoadBalancedPrecision(b *testing.B) {
	var r *experiments.DiamondsResult
	for i := 0; i < b.N; i++ {
		r = diamonds()
	}
	b.ReportMetric(r.LBMedianPrec, "lb-median-precision")
	b.ReportMetric(r.NonLBMedianPrec, "nonlb-median-precision")
}

// BenchmarkFig11ArchivalReuse regenerates Fig 11: fresh/stale/unknown
// classification of an accumulating archive plus UDM reuse.
func BenchmarkFig11ArchivalReuse(b *testing.B) {
	sc := benchScale()
	sc.Days = 4
	var r *experiments.ArchivalResult
	for i := 0; i < b.N; i++ {
		r = experiments.RunArchival(sc, 400)
	}
	if n := len(r.Fresh); n > 0 {
		total := r.Fresh[n-1] + r.Stale[n-1] + r.DeadProbe[n-1] + r.Unknown[n-1]
		b.ReportMetric(safeDiv(float64(r.Fresh[n-1]), float64(total)), "final-fresh-frac")
	}
	b.ReportMetric(r.UDMSatisfiableFrac, "udm-satisfiable")
}

// BenchmarkFig12GeolocationValidation regenerates Fig 12: the shortest-ping
// pipeline validated against three reference databases.
func BenchmarkFig12GeolocationValidation(b *testing.B) {
	var r *experiments.GeoValidationResult
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r = experiments.RunGeoValidation(sc)
	}
	b.ReportMetric(r.Crowd.Exact, "crowd-exact")
	b.ReportMetric(r.General.Exact, "general-exact")
	b.ReportMetric(r.LocateRate, "located-frac")
}

// BenchmarkFig13CommunityPruning regenerates Fig 13: communities producing
// false positives get pruned over time.
func BenchmarkFig13CommunityPruning(b *testing.B) {
	var r *experiments.RetroResult
	for i := 0; i < b.N; i++ {
		r = retro()
	}
	if n := len(r.Fig13FPComms); n > 0 {
		b.ReportMetric(float64(r.Fig13FPComms[n-1]), "final-day-fp-comms")
	}
}

// BenchmarkFig14BorderIPSharing regenerates Fig 14: AS pairs per border IP.
func BenchmarkFig14BorderIPSharing(b *testing.B) {
	var r *experiments.CensusResult
	for i := 0; i < b.N; i++ {
		r = census()
	}
	b.ReportMetric(r.FracUsedByOver10Pairs, "frac-over-10-pairs")
	b.ReportMetric(float64(r.BorderIPs), "border-ips")
}

// BenchmarkFig15BorderIPVisibility regenerates Fig 15: paths per border IP,
// changed versus unchanged.
func BenchmarkFig15BorderIPVisibility(b *testing.B) {
	var r *experiments.CensusResult
	for i := 0; i < b.N; i++ {
		r = census()
	}
	b.ReportMetric(r.FracChangedInOver10, "changed-in-10+paths")
	b.ReportMetric(r.FracUnchangedInOver10, "unchanged-in-10+paths")
}

// BenchmarkFig16IPlane regenerates Fig 16: iPlane spliced-path staleness
// with and without signal pruning.
func BenchmarkFig16IPlane(b *testing.B) {
	sc := benchScale()
	sc.Days = 4
	var r *experiments.IPlaneResult
	for i := 0; i < b.N; i++ {
		r = experiments.RunIPlane(sc)
	}
	if n := len(r.InvalidUnpruned); n > 0 {
		b.ReportMetric(r.InvalidUnpruned[n-1], "invalid-unpruned")
		b.ReportMetric(r.InvalidPruned[n-1], "invalid-pruned")
		b.ReportMetric(r.RetainedValid[n-1], "retained-valid")
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// BenchmarkAblationTechniques quantifies each technique's contribution by
// rerunning the retrospective evaluation with one technique disabled at a
// time (the design-choice ablation DESIGN.md calls out; the paper's Table 2
// "unique" columns report the same effect from a single run).
func BenchmarkAblationTechniques(b *testing.B) {
	full := retro()
	techs := map[string]rrr.Technique{
		"no-aspath":  rrr.TechBGPASPath,
		"no-burst":   rrr.TechBGPBurst,
		"no-subpath": rrr.TechTraceSubpath,
	}
	for i := 0; i < b.N; i++ {
		for name, tech := range techs {
			sc := benchScale()
			sc.Days = 3
			sc.Disabled = []rrr.Technique{tech}
			r := experiments.RunRetrospective(sc)
			b.ReportMetric(r.AllTechniques.CovAll, name+"-coverage")
		}
	}
	b.ReportMetric(full.AllTechniques.CovAll, "full-coverage")
}
