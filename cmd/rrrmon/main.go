// Command rrrmon runs the full staleness-monitoring pipeline against the
// built-in Internet simulator and streams its decisions: staleness
// prediction signals as they fire, per-window summaries, and (optionally)
// budgeted refresh rounds with calibration.
//
//	rrrmon -days 3 -budget 20 -v
//
// It demonstrates the exact integration a real deployment uses: prime the
// Monitor with a table dump, stream BGP updates and public traceroutes,
// close windows, act on signals, and refresh through PlanRefresh and
// RecordRefresh.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"rrr"
	"rrr/internal/experiments"
)

func main() {
	days := flag.Int("days", 2, "virtual days to run")
	budget := flag.Int("budget", 20, "daily refresh budget (0 disables refreshing)")
	verbose := flag.Bool("v", false, "print every signal")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	sc := experiments.QuickScale()
	sc.Days = *days
	sc.SimCfg.Seed = *seed
	lab := experiments.NewLab(sc)
	n := lab.BuildCorpus()
	fmt.Printf("corpus: %d traceroutes; VPs: %d; topology: %d ASes, %d links\n",
		n, len(lab.Sim.VPs()), len(lab.Sim.T.ASList), len(lab.Sim.T.Links)-1)

	mon := lab.Mon
	rng := rand.New(rand.NewSource(*seed))
	windowsPerDay := int(86400 / sc.WindowSec)
	daySignals := 0
	dayRefreshed, dayChanged := 0, 0

	for w := 0; ; w++ {
		ws, sigs, ok := lab.Window()
		if !ok {
			break
		}
		daySignals += len(sigs)
		if *verbose {
			for _, s := range sigs {
				fmt.Printf("  w%04d %s\n", w, s)
			}
		}

		if (w+1)%windowsPerDay != 0 {
			continue
		}
		day := (w + 1) / windowsPerDay
		if *budget > 0 {
			for _, k := range mon.PlanRefresh(*budget, rng) {
				cls, err := lab.Refresh(k, ws+sc.WindowSec)
				if err != nil {
					fmt.Fprintf(os.Stderr, "refresh %s: %v\n", k, err)
					continue
				}
				dayRefreshed++
				if cls != rrr.Unchanged {
					dayChanged++
				}
			}
		}
		prec := 0.0
		if dayRefreshed > 0 {
			prec = float64(dayChanged) / float64(dayRefreshed)
		}
		revoked, _ := mon.RevocationStats()
		fmt.Printf("day %d: %4d signals, %4d flagged pairs, refreshed %d (precision %.2f), revoked %d, pruned-communities %d\n",
			day, daySignals, len(mon.StaleKeys()), dayRefreshed, prec, revoked, mon.PrunedCommunities())
		daySignals, dayRefreshed, dayChanged = 0, 0, 0
	}

	counts := mon.SignalCounts()
	fmt.Println("\nper-technique signal totals:")
	for t := rrr.Technique(0); int(t) < len(counts); t++ {
		fmt.Printf("  %-22s %d\n", t, counts[t])
	}
}
