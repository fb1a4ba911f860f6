// Corpusmaintainer: keep a traceroute corpus fresh under a strict probing
// budget (the paper's headline use case, §4.3). The example runs against
// the built-in Internet simulator: it maintains a probe→anchor corpus for
// several virtual days, spending a small daily refresh budget only on pairs
// the staleness prediction signals flag, and reports how the corpus
// freshness compares to leaving it alone.
//
//	go run ./examples/corpusmaintainer -days 3 -budget 25
package main

import (
	"flag"
	"fmt"
	"math/rand"

	"rrr"
	"rrr/internal/corpus"
	"rrr/internal/experiments"
)

func main() {
	days := flag.Int("days", 3, "virtual days")
	budget := flag.Int("budget", 25, "refresh traceroutes per day")
	flag.Parse()

	sc := experiments.QuickScale()
	sc.Days = *days
	lab := experiments.NewLab(sc)
	mon := lab.Mon
	n := lab.BuildCorpus()
	fmt.Printf("maintaining %d traceroutes with a budget of %d refreshes/day\n", n, *budget)

	// A frozen copy of the initial corpus shows what no maintenance looks
	// like.
	initial := make(map[rrr.Key]*rrr.Entry)
	for _, k := range mon.Tracked() {
		initial[k], _ = mon.Entry(k)
	}

	rng := rand.New(rand.NewSource(7))
	windowsPerDay := int(86400 / sc.WindowSec)
	spent := 0

	for w := 0; ; w++ {
		ws, _, ok := lab.Window()
		if !ok {
			break
		}
		if (w+1)%windowsPerDay != 0 {
			continue
		}
		now := ws + sc.WindowSec
		// Spend the day's budget on signal-flagged pairs (§4.3.1 planning:
		// calibrated TPR ordering with Table 1 bootstrap).
		refreshed, found := 0, 0
		for _, k := range mon.PlanRefresh(*budget, rng) {
			cls, err := lab.Refresh(k, now)
			if err != nil {
				continue
			}
			refreshed++
			spent++
			if cls != rrr.Unchanged {
				found++
			}
		}

		// Audit corpus freshness against ground truth (free in the
		// simulator; a real deployment cannot do this, which is the point
		// of the signals).
		staleMaintained, staleFrozen := 0, 0
		for _, k := range mon.Tracked() {
			en, _ := mon.Entry(k)
			truth, err := lab.MeasurePair(k, now)
			if err != nil {
				continue
			}
			if corpus.ClassifyEntry(en, truth) != rrr.Unchanged {
				staleMaintained++
			}
			if corpus.ClassifyEntry(initial[k], truth) != rrr.Unchanged {
				staleFrozen++
			}
		}
		fmt.Printf("day %d: refreshed %2d (%2d changed) | stale now: maintained=%3d frozen=%3d of %d\n",
			(w+1)/windowsPerDay, refreshed, found, staleMaintained, staleFrozen, n)
	}
	fmt.Printf("total probes spent: %d (vs %d for daily full remeasurement)\n",
		spent, n*sc.Days)
}
