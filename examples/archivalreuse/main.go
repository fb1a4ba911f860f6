// Archivalreuse: decide which traceroutes in a growing archive are still
// safe to reuse (§6.2). The example accumulates an archive of public
// traceroutes from the simulator's measurement platform, tracks every one
// of them in the Monitor, and answers "measurement requests" from the
// archive when a fresh entry exists — the reuse that preserves probing
// budgets. It prints the Fig 11 run, experiments.RunArchival.
//
//	go run ./examples/archivalreuse -days 3
package main

import (
	"flag"
	"fmt"

	"rrr/internal/experiments"
)

func main() {
	days := flag.Int("days", 3, "virtual days")
	perDay := flag.Int("archive-per-day", 300, "archived traceroutes per day")
	flag.Parse()

	sc := experiments.QuickScale()
	sc.Days = *days
	r := experiments.RunArchival(sc, *perDay)

	for i, day := range r.Day {
		fmt.Printf("day %.0f: archive=%4d  fresh=%4d stale=%4d dead-probe=%4d unknown=%4d\n",
			day, r.Fresh[i]+r.Stale[i]+r.DeadProbe[i]+r.Unknown[i], r.Fresh[i], r.Stale[i], r.DeadProbe[i], r.Unknown[i])
	}
	// A request for (source AS, destination /16) is answered by any fresh
	// archived traceroute matching it.
	fmt.Printf("\n%.0f%% of sampled measurement requests answered from the archive (%.0f%% once answered requests stop feeding the signals)\n",
		100*r.UDMSatisfiableFrac, 100*r.UDMAvoidableFrac)
	fmt.Println("each answered request preserves probing budget and reduces platform load")
}
