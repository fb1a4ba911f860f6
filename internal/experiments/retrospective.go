package experiments

import (
	"rrr/internal/bordermap"
	"rrr/internal/core"
	"rrr/internal/corpus"
	"rrr/internal/traceroute"
)

// Table2Row mirrors one row of the paper's Table 2.
type Table2Row struct {
	Technique string
	Signals   int
	Precision float64
	// Coverage of all changes / AS-level changes / border-level changes,
	// individual and unique.
	CovAll, CovAllUnique       float64
	CovAS, CovASUnique         float64
	CovBorder, CovBorderUnique float64
}

// RetroResult carries everything the retrospective evaluation reports:
// Fig 1, Table 2, Fig 6a/6b, and Fig 13.
type RetroResult struct {
	CorpusSize int
	Rounds     int

	// Fig 1: fraction of paths differing from their initial measurement.
	Fig1Day    []float64
	Fig1AS     []float64
	Fig1Border []float64

	// Table 2 rows per technique plus BGP/traceroute/all totals.
	Table2        []Table2Row
	BGPTotal      Table2Row
	TraceTotal    Table2Row
	AllTechniques Table2Row

	// Fig 6: daily precision and coverage.
	Fig6Day            []float64
	Fig6Precision      []float64
	Fig6Coverage       []float64
	Fig6CovMonitorable []float64

	// Fig 13: daily number of distinct communities producing false
	// positives.
	Fig13FPComms []int

	// Change census.
	TotalChanges, ASChanges, BorderChanges int
}

type sigRec struct {
	time int64
	tech core.Technique
}

// RunRetrospective executes the §5.1 retrospective evaluation.
func RunRetrospective(sc Scale) *RetroResult {
	lab := NewLab(sc)
	lab.BuildCorpus()

	keys := lab.Mon.Tracked()
	res := &RetroResult{CorpusSize: len(keys)}

	// Keep the initial entries for Fig 1.
	initial := make(map[traceroute.Key]*corpus.Entry, len(keys))
	for _, k := range keys {
		initial[k], _ = lab.Mon.Entry(k)
	}

	windowsPerRound := int(sc.RoundSec / sc.WindowSec)
	res.Rounds = sc.Days * 86400 / int(sc.WindowSec) / windowsPerRound

	// Signal log per pair per round interval.
	sigLog := make(map[traceroute.Key][]sigRec)
	// changed[class][pair][round]
	changed := make(map[traceroute.Key]map[int]bordermap.ChangeClass)
	for _, k := range keys {
		changed[k] = make(map[int]bordermap.ChangeClass)
	}
	monitorable := make(map[traceroute.Key]bool, len(keys))
	for _, k := range keys {
		monitorable[k] = len(lab.Mon.Potential(k)) > 0
	}

	// Daily community-FP tracking (Fig 13).
	dayFPComms := make([]map[uint32]bool, sc.Days+1)
	for i := range dayFPComms {
		dayFPComms[i] = make(map[uint32]bool)
	}

	round := 0
	for w := 0; ; w++ {
		ws, sigs, ok := lab.Window()
		if !ok {
			break
		}
		for _, s := range sigs {
			sigLog[s.Key] = append(sigLog[s.Key], sigRec{time: s.WindowStart, tech: s.Technique})
		}

		if (w+1)%windowsPerRound != 0 {
			continue
		}
		// Round boundary: remeasure every pair against ground truth. Every
		// round refreshes the pair, so calibration learns from every
		// remeasurement and monitors whose scope moved re-anchor (leaving
		// them on a stale IP path would make them scream forever).
		now := ws + sc.WindowSec
		for _, k := range keys {
			// Read before the refresh clears them: communities with false
			// signals feed Fig 13.
			active := lab.Mon.ActiveSignals(k)
			cls, err := lab.Refresh(k, now)
			if err != nil {
				continue
			}
			if cls == bordermap.Unchanged {
				day := min(int(now/86400), len(dayFPComms)-1)
				for _, s := range active {
					if s.Technique == core.TechBGPCommunity && s.Comm != 0 {
						dayFPComms[day][uint32(s.Comm)] = true
					}
				}
				continue
			}
			changed[k][round] = cls
		}
		// Fig 1: daily comparison against the initial corpus.
		if now%86400 < sc.RoundSec {
			var asFrac, borderFrac float64
			for _, k := range keys {
				fresh, err := lab.MeasurePair(k, now)
				if err != nil {
					continue
				}
				switch corpus.ClassifyEntry(initial[k], fresh) {
				case bordermap.ASChange:
					asFrac++
					borderFrac++ // border-or-AS granularity counts both
				case bordermap.BorderChange:
					borderFrac++
				}
			}
			n := float64(len(keys))
			res.Fig1Day = append(res.Fig1Day, float64(now)/86400)
			res.Fig1AS = append(res.Fig1AS, asFrac/n)
			res.Fig1Border = append(res.Fig1Border, borderFrac/n)
		}
		round++
	}

	res.compile(sc, keys, sigLog, changed, monitorable, dayFPComms)
	return res
}

// compile turns the raw logs into Table 2, Fig 6, and Fig 13.
func (res *RetroResult) compile(sc Scale, keys []traceroute.Key,
	sigLog map[traceroute.Key][]sigRec,
	changed map[traceroute.Key]map[int]bordermap.ChangeClass,
	monitorable map[traceroute.Key]bool,
	dayFPComms []map[uint32]bool) {

	roundOf := func(t int64) int { return int(t / sc.RoundSec) }
	techs := []core.Technique{
		core.TechBGPASPath, core.TechBGPCommunity, core.TechBGPBurst,
		core.TechIXPMembership, core.TechTraceSubpath, core.TechTraceBorder,
	}

	type cnt struct{ sig, tp int }
	perTech := make(map[core.Technique]*cnt)
	for _, t := range techs {
		perTech[t] = &cnt{}
	}
	allSig, allTP := 0, 0
	bgpSig, bgpTP := 0, 0
	trSig, trTP := 0, 0

	// Daily precision accounting for Fig 6a.
	nDays := sc.Days + 1
	dayTP := make([]int, nDays)
	daySig := make([]int, nDays)

	// Per (pair, round) technique coverage sets.
	type prKey struct {
		k traceroute.Key
		r int
	}
	covered := make(map[prKey]map[core.Technique]bool)

	for k, sigs := range sigLog {
		for _, s := range sigs {
			r := roundOf(s.time)
			correct := pairChangedNear(changed[k], r)
			perTech[s.tech].sig++
			allSig++
			if s.tech.IsBGP() {
				bgpSig++
			} else {
				trSig++
			}
			if correct {
				perTech[s.tech].tp++
				allTP++
				if s.tech.IsBGP() {
					bgpTP++
				} else {
					trTP++
				}
			}
			day := int(s.time / 86400)
			if day < nDays {
				daySig[day]++
				if correct {
					dayTP[day]++
				}
			}
			for _, rr := range []int{r, r + 1} {
				pk := prKey{k: k, r: rr}
				if covered[pk] == nil {
					covered[pk] = make(map[core.Technique]bool)
				}
				covered[pk][s.tech] = true
			}
		}
	}

	// Change census + coverage.
	type covCnt struct{ all, as, border int }
	indiv := make(map[core.Technique]*covCnt)
	uniq := make(map[core.Technique]*covCnt)
	for _, t := range techs {
		indiv[t] = &covCnt{}
		uniq[t] = &covCnt{}
	}
	var anyCov covCnt
	var bgpCov, trCov covCnt
	var total, asTotal, borderTotal int
	totalMon, covMon := 0, 0

	dayChanges := make([]int, nDays)
	dayCovered := make([]int, nDays)

	for _, k := range keys {
		for r, cls := range changed[k] {
			total++
			isAS := cls == bordermap.ASChange
			if isAS {
				asTotal++
			} else {
				borderTotal++
			}
			day := (r * int(sc.RoundSec)) / 86400
			if day < nDays {
				dayChanges[day]++
			}
			set := covered[prKey{k: k, r: r}]
			if monitorable[k] {
				totalMon++
				if len(set) > 0 {
					covMon++
				}
			}
			if len(set) > 0 {
				anyCov.all++
				if isAS {
					anyCov.as++
				} else {
					anyCov.border++
				}
				if day < nDays {
					dayCovered[day]++
				}
			}
			anyBGP, anyTrace := false, false
			for t := range set {
				if t.IsBGP() {
					anyBGP = true
				} else {
					anyTrace = true
				}
			}
			if anyBGP {
				bgpCov.all++
				if isAS {
					bgpCov.as++
				} else {
					bgpCov.border++
				}
			}
			if anyTrace {
				trCov.all++
				if isAS {
					trCov.as++
				} else {
					trCov.border++
				}
			}
			for _, t := range techs {
				if !set[t] {
					continue
				}
				indiv[t].all++
				if isAS {
					indiv[t].as++
				} else {
					indiv[t].border++
				}
				if len(set) == 1 {
					uniq[t].all++
					if isAS {
						uniq[t].as++
					} else {
						uniq[t].border++
					}
				}
			}
		}
	}
	res.TotalChanges, res.ASChanges, res.BorderChanges = total, asTotal, borderTotal

	frac := func(n, d int) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	mkRow := func(name string, sig, tp int, cov, covU *covCnt) Table2Row {
		return Table2Row{
			Technique: name, Signals: sig, Precision: frac(tp, sig),
			CovAll: frac(cov.all, total), CovAllUnique: frac(covU.all, total),
			CovAS: frac(cov.as, asTotal), CovASUnique: frac(covU.as, asTotal),
			CovBorder: frac(cov.border, borderTotal), CovBorderUnique: frac(covU.border, borderTotal),
		}
	}
	for _, t := range techs {
		res.Table2 = append(res.Table2,
			mkRow(t.String(), perTech[t].sig, perTech[t].tp, indiv[t], uniq[t]))
	}
	zero := &covCnt{}
	res.BGPTotal = mkRow("BGP Total", bgpSig, bgpTP, &bgpCov, zero)
	res.TraceTotal = mkRow("Traceroute total", trSig, trTP, &trCov, zero)
	res.AllTechniques = mkRow("All techniques", allSig, allTP, &anyCov, zero)
	if totalMon > 0 {
		res.AllTechniques.CovAllUnique = frac(covMon, totalMon) // monitorable coverage
	}

	for day := 0; day < nDays; day++ {
		if daySig[day] == 0 && dayChanges[day] == 0 {
			continue
		}
		res.Fig6Day = append(res.Fig6Day, float64(day))
		res.Fig6Precision = append(res.Fig6Precision, frac(dayTP[day], daySig[day]))
		res.Fig6Coverage = append(res.Fig6Coverage, frac(dayCovered[day], dayChanges[day]))
		res.Fig6CovMonitorable = append(res.Fig6CovMonitorable, frac(covMon, totalMon))
		res.Fig13FPComms = append(res.Fig13FPComms, len(dayFPComms[day]))
	}
}

func pairChangedNear(m map[int]bordermap.ChangeClass, r int) bool {
	if _, ok := m[r]; ok {
		return true
	}
	if _, ok := m[r+1]; ok {
		return true
	}
	if _, ok := m[r-1]; ok {
		return true
	}
	return false
}
