package experiments

import (
	"math/rand"

	"rrr/internal/bordermap"
	"rrr/internal/traceroute"
)

// LiveResult carries Fig 7's two series: refresh precision under
// signal-driven versus random selection, and the fraction of changes found
// by random refreshes that signals had flagged.
type LiveResult struct {
	CorpusSize int
	Day        []float64
	// Fig 7a: precision of refresh traceroutes.
	SignalPrecision []float64
	RandomPrecision []float64
	// Fig 7b: coverage of random-discovered changes by signals.
	SignalCoverage []float64
	// Totals.
	SignalRefreshes, SignalChanged int
	RandomRefreshes, RandomChanged int
}

// RunLive executes the §5.2 live evaluation: a large topology-campaign
// corpus, a daily refresh budget spent twice — once by signal planning
// (§4.3.1), once at random — and per-day precision/coverage accounting.
func RunLive(sc Scale, dailyBudget int) *LiveResult {
	lab := NewLab(sc)
	rng := rand.New(rand.NewSource(sc.SimCfg.Seed + 77))

	// Initial corpus: a #5051-style day of campaign traceroutes, one per
	// (probe, destination) pair sampled across all prefixes.
	asns := lab.Sim.StubASes()
	seen := make(map[traceroute.Key]bool)
	for _, probe := range lab.Plat.Probes {
		for i := 0; i < 24; i++ {
			dstAS := asns[rng.Intn(len(asns))]
			dst := lab.Sim.T.HostIP(dstAS, 1+rng.Intn(8))
			tr := lab.Sim.Traceroute(probe.ID, probe.IP, dst, 0)
			if seen[tr.Key()] {
				continue
			}
			seen[tr.Key()] = true
			_ = lab.Mon.Track(tr) // AS-loop traces are discarded (Appendix A)
		}
	}
	keys := lab.Mon.Tracked()
	res := &LiveResult{CorpusSize: len(keys)}

	windowsPerDay := int(86400 / sc.WindowSec)

	// Per-pair flag state since last refresh (for Fig 7b).
	flagged := make(map[traceroute.Key]bool)

	dayStats := struct {
		sigN, sigC, rndN, rndC, rndFlagged int
	}{}

	for w := 0; ; w++ {
		ws, sigs, ok := lab.Window()
		if !ok {
			break
		}
		for _, s := range sigs {
			flagged[s.Key] = true
		}

		if (w+1)%windowsPerDay != 0 {
			continue
		}
		now := ws + sc.WindowSec

		// Signal-driven refreshes.
		for _, k := range lab.Mon.PlanRefresh(dailyBudget, rng) {
			cls, err := lab.Refresh(k, now)
			if err != nil {
				continue
			}
			dayStats.sigN++
			if cls != bordermap.Unchanged {
				dayStats.sigC++
			}
			flagged[k] = false
		}

		// Random refreshes (same budget).
		for i := 0; i < dailyBudget && len(keys) > 0; i++ {
			k := keys[rng.Intn(len(keys))]
			cls, err := lab.Refresh(k, now)
			if err != nil {
				continue
			}
			dayStats.rndN++
			if cls != bordermap.Unchanged {
				dayStats.rndC++
				if flagged[k] {
					dayStats.rndFlagged++
				}
			}
			flagged[k] = false
		}

		day := float64(now) / 86400
		res.Day = append(res.Day, day)
		res.SignalPrecision = append(res.SignalPrecision, safeFrac(dayStats.sigC, dayStats.sigN))
		res.RandomPrecision = append(res.RandomPrecision, safeFrac(dayStats.rndC, dayStats.rndN))
		res.SignalCoverage = append(res.SignalCoverage, safeFrac(dayStats.rndFlagged, dayStats.rndC))
		res.SignalRefreshes += dayStats.sigN
		res.SignalChanged += dayStats.sigC
		res.RandomRefreshes += dayStats.rndN
		res.RandomChanged += dayStats.rndC
		dayStats.sigN, dayStats.sigC, dayStats.rndN, dayStats.rndC, dayStats.rndFlagged = 0, 0, 0, 0, 0
	}
	return res
}

func safeFrac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
