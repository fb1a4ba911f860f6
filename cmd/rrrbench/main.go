// Command rrrbench regenerates every table and figure of the paper's
// evaluation against the built-in Internet simulator and prints them in the
// paper's layout. Use -scale quick for a fast pass or -scale paper for the
// full-size run.
//
//	rrrbench -scale quick            # all experiments, small
//	rrrbench -scale paper -only table2,fig8
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"

	"rrr/internal/experiments"
	"rrr/internal/netsim"
)

// experimentNames is every name -only accepts.
var experimentNames = []string{
	"fig1", "table2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
	"fig12", "fig13", "fig14", "fig15", "fig16", "scenariobench",
}

func main() {
	scale := flag.String("scale", "quick", "experiment scale: quick or paper")
	days := flag.Int("days", 0, "override experiment duration in days")
	seed := flag.Int64("seed", 0, "override simulation seed (0 keeps the scale default)")
	only := flag.String("only", "", "comma-separated experiment list ("+strings.Join(experimentNames, ",")+")")
	scenarioSeed := flag.Int64("scenario-seed", 4242, "episode-schedule seed for -only scenariobench")
	flag.Parse()

	sc, err := experiments.ScaleByName(*scale, *days, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if !slices.Contains(experimentNames, name) {
				fmt.Fprintf(os.Stderr, "unknown -only entry %q (valid: %s)\n", name, strings.Join(experimentNames, ","))
				os.Exit(2)
			}
			want[name] = true
		}
	}
	fmt.Printf("GOMAXPROCS=%d (NumCPU=%d)\n", runtime.GOMAXPROCS(0), runtime.NumCPU())

	run := func(names ...string) bool {
		if len(want) == 0 {
			return true
		}
		for _, n := range names {
			if want[n] {
				return true
			}
		}
		return false
	}

	if run("fig1", "table2", "fig6", "fig13") {
		r := experiments.RunRetrospective(sc)
		if run("fig1") {
			printFig1(r)
		}
		if run("table2") {
			printTable2(r)
		}
		if run("fig6") {
			printFig6(r)
		}
		if run("fig13") {
			printFig13(r)
		}
	}
	if run("fig7") {
		printFig7(experiments.RunLive(sc, 60))
	}
	if run("fig8") {
		sweep := []float64{0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02}
		printFig8(experiments.RunFig8(sc, 200, sweep))
	}
	if run("fig9", "fig10") {
		d := experiments.RunDiamonds(sc)
		if run("fig9") {
			printFig9(d)
		}
		if run("fig10") {
			printFig10(d)
		}
	}
	if run("fig11") {
		printFig11(experiments.RunArchival(sc, 600))
	}
	if run("fig12") {
		printFig12(experiments.RunGeoValidation(sc))
	}
	if run("fig14", "fig15") {
		c := experiments.RunCensus(sc)
		if run("fig14") {
			printFig14(c)
		}
		if run("fig15") {
			printFig15(c)
		}
	}
	if run("fig16") {
		printFig16(experiments.RunIPlane(sc))
	}
	// The adversarial-pack run is not one of the paper's figures: it only
	// runs when asked for by name.
	if want["scenariobench"] {
		printScenarioBench(experiments.RunScenarioAccuracy(sc, netsim.FullPack(), *scenarioSeed), *scenarioSeed)
	}
}

func printScenarioBench(r *experiments.ScenarioResult, seed int64) {
	fmt.Println("\n=== Scenario bench: event classifiers vs pack ground truth ===")
	fmt.Printf("corpus=%d pairs, seed=%d, truths=%d, events=%d\n",
		r.CorpusSize, seed, r.TruthCount, r.EventCount)
	fmt.Printf("%-18s %-7s %-7s %-4s %-4s %-4s %-10s %-8s\n",
		"class", "truths", "events", "TP", "FP", "FN", "precision", "recall")
	for _, cs := range r.Classes {
		fmt.Printf("%-18s %-7d %-7d %-4d %-4d %-4d %-10.3f %-8.3f\n",
			cs.Class, cs.Truths, cs.Events, cs.TP, cs.FP, cs.FN, cs.Precision, cs.Recall)
	}
	fmt.Printf("overall: precision=%.3f recall=%.3f\n", r.Precision, r.Recall)
	fmt.Printf("staleness verdict accuracy: benign=%.3f adversarial=%.3f degradation=%.3f\n",
		r.BenignStaleAcc, r.AdversarialStaleAcc, r.Degradation)
}

func printFig1(r *experiments.RetroResult) {
	fmt.Println("\n=== Figure 1: fraction of paths changed vs initial traceroute ===")
	fmt.Printf("%-8s %-12s %-12s\n", "day", "border+AS", "AS-level")
	for i := range r.Fig1Day {
		fmt.Printf("%-8.1f %-12.3f %-12.3f\n", r.Fig1Day[i], r.Fig1Border[i], r.Fig1AS[i])
	}
}

func printTable2(r *experiments.RetroResult) {
	fmt.Println("\n=== Table 2: precision and coverage per technique (retrospective) ===")
	fmt.Printf("corpus=%d pairs, %d rounds, changes=%d (AS %d, border %d)\n",
		r.CorpusSize, r.Rounds, r.TotalChanges, r.ASChanges, r.BorderChanges)
	fmt.Printf("%-22s %8s %6s | %6s %6s | %6s %6s | %6s %6s\n",
		"Technique", "Signals", "Prec", "CovAll", "Uniq", "CovAS", "Uniq", "CovBrd", "Uniq")
	row := func(t experiments.Table2Row) {
		fmt.Printf("%-22s %8d %6.2f | %6.2f %6.2f | %6.2f %6.2f | %6.2f %6.2f\n",
			t.Technique, t.Signals, t.Precision,
			t.CovAll, t.CovAllUnique, t.CovAS, t.CovASUnique, t.CovBorder, t.CovBorderUnique)
	}
	for _, t := range r.Table2 {
		row(t)
	}
	fmt.Println(strings.Repeat("-", 92))
	row(r.BGPTotal)
	row(r.TraceTotal)
	row(r.AllTechniques)
	fmt.Printf("(All-techniques Uniq column reports coverage restricted to monitorable changes)\n")
}

func printFig6(r *experiments.RetroResult) {
	fmt.Println("\n=== Figure 6: daily precision (a) and coverage (b) ===")
	fmt.Printf("%-6s %-10s %-10s %-14s\n", "day", "precision", "coverage", "cov(monitored)")
	for i := range r.Fig6Day {
		fmt.Printf("%-6.0f %-10.2f %-10.2f %-14.2f\n",
			r.Fig6Day[i], r.Fig6Precision[i], r.Fig6Coverage[i], r.Fig6CovMonitorable[i])
	}
}

func printFig7(r *experiments.LiveResult) {
	fmt.Println("\n=== Figure 7: live evaluation (signal vs random refresh) ===")
	fmt.Printf("corpus=%d pairs\n", r.CorpusSize)
	fmt.Printf("%-6s %-12s %-12s %-14s\n", "day", "sig-prec", "rand-prec", "sig-coverage")
	for i := range r.Day {
		fmt.Printf("%-6.0f %-12.2f %-12.2f %-14.2f\n",
			r.Day[i], r.SignalPrecision[i], r.RandomPrecision[i], r.SignalCoverage[i])
	}
	fmt.Printf("totals: signal %d/%d, random %d/%d\n",
		r.SignalChanged, r.SignalRefreshes, r.RandomChanged, r.RandomRefreshes)
}

func printFig8(r *experiments.Fig8Result) {
	fmt.Println("\n=== Figure 8: changes detected vs probing budget ===")
	fmt.Printf("ground truth: %d border-level changes; optimal signals = %.2f\n",
		r.TotalChanges, r.Optimal)
	fmt.Printf("%-10s %-10s %-8s %-8s %-9s %-14s\n",
		"pps/path", "roundrobin", "sibyl", "dtrack", "signals", "dtrack+signals")
	for i := range r.PPS {
		fmt.Printf("%-10.4f %-10.2f %-8.2f %-8.2f %-9.2f %-14.2f\n",
			r.PPS[i], r.RoundRobin[i], r.Sibyl[i], r.DTrack[i], r.Signals[i], r.DTrackSignals[i])
	}
}

func printFig9(d *experiments.DiamondsResult) {
	fmt.Println("\n=== Figure 9: signals per load-balanced vs non-LB segment ===")
	fmt.Printf("segments: %d load-balanced, %d non-load-balanced\n", d.LBSegments, d.NonLBSegments)
	fmt.Printf("flagged fraction: LB %.3f vs non-LB %.3f\n", d.LBFlaggedFrac, d.NonLBFlaggedFrac)
	fmt.Printf("signal-count distribution (LB): %v\n", tailInts(d.LBSignalCounts, 10))
	fmt.Printf("signal-count distribution (non-LB): %v\n", tailInts(d.NonLBSignalCounts, 10))
}

func printFig10(d *experiments.DiamondsResult) {
	fmt.Println("\n=== Figure 10: per-segment precision, LB vs non-LB ===")
	fmt.Printf("median precision: LB %.2f vs non-LB %.2f\n", d.LBMedianPrec, d.NonLBMedianPrec)
}

func printFig11(r *experiments.ArchivalResult) {
	fmt.Println("\n=== Figure 11: archival traceroute reuse ===")
	fmt.Printf("%-6s %-8s %-8s %-10s %-8s\n", "day", "fresh", "stale", "deadprobe", "unknown")
	for i := range r.Day {
		fmt.Printf("%-6.0f %-8d %-8d %-10d %-8d\n",
			r.Day[i], r.Fresh[i], r.Stale[i], r.DeadProbe[i], r.Unknown[i])
	}
	fmt.Printf("archive=%d traceroutes; UDM satisfiable=%.1f%%, avoidable=%.1f%%\n",
		r.ArchiveSize, 100*r.UDMSatisfiableFrac, 100*r.UDMAvoidableFrac)
}

func printFig12(r *experiments.GeoValidationResult) {
	fmt.Println("\n=== Figure 12: geolocation validation vs three databases ===")
	fmt.Printf("pipeline located %d addresses (%.0f%%)\n", r.Located, 100*r.LocateRate)
	fmt.Printf("%-18s %-8s %-8s %-8s %-8s\n", "database", "overlap", "exact", "<100km", "<500km")
	for _, db := range []struct {
		Name     string
		Overlap  int
		Exact    float64
		Under100 float64
		Under500 float64
	}{r.Crowd, r.RouterDB, r.General} {
		fmt.Printf("%-18s %-8d %-8.2f %-8.2f %-8.2f\n",
			db.Name, db.Overlap, db.Exact, db.Under100, db.Under500)
	}
}

func printFig13(r *experiments.RetroResult) {
	fmt.Println("\n=== Figure 13: communities generating false positives per day ===")
	for day, n := range r.Fig13FPComms {
		fmt.Printf("day %-3d fp-communities %d\n", day, n)
	}
}

func printFig14(c *experiments.CensusResult) {
	fmt.Println("\n=== Figure 14: AS pairs per border IP ===")
	fmt.Printf("border IPs: %d; used by >10 AS pairs: %.1f%%\n",
		c.BorderIPs, 100*c.FracUsedByOver10Pairs)
	fmt.Printf("distribution (sorted tail): %v\n", tailInts(c.ASPairsPerIP, 12))
}

func printFig15(c *experiments.CensusResult) {
	fmt.Println("\n=== Figure 15: paths per border IP, changed vs unchanged ===")
	fmt.Printf("changed border IPs in >=10 paths: %.1f%%\n", 100*c.FracChangedInOver10)
	fmt.Printf("unchanged border IPs in >=10 paths: %.1f%%\n", 100*c.FracUnchangedInOver10)
}

func printFig16(r *experiments.IPlaneResult) {
	fmt.Println("\n=== Figure 16: iPlane splicing with staleness pruning ===")
	fmt.Printf("%-6s %-18s %-16s %-16s\n", "day", "invalid-unpruned", "invalid-pruned", "retained-valid")
	for i := range r.Day {
		fmt.Printf("%-6.0f %-18.2f %-16.2f %-16.2f\n",
			r.Day[i], r.InvalidUnpruned[i], r.InvalidPruned[i], r.RetainedValid[i])
	}
	fmt.Printf("predictions evaluated: %d\n", r.Predictions)
}

func tailInts(xs []int, n int) []int {
	if len(xs) <= n {
		return xs
	}
	return xs[len(xs)-n:]
}
