package experiments

import (
	"testing"

	"rrr/internal/core"
	"rrr/internal/netsim"
)

// The experiment tests assert the qualitative shapes the paper reports, at
// a scale small enough for CI. EXPERIMENTS.md records the full-size runs.

func tinyScale() Scale {
	sc := QuickScale()
	sc.Days = 4
	return sc
}

// bandSeeds are the simulator seeds the result bands aggregate over. One
// quick-scale run is too noisy to band: changing nothing but which public
// traceroutes the feed samples moved seed 1's Table 2 subpath row from 40
// signals at precision 1.00 to 182 at 0.24, and its all-techniques
// precision from 0.90 to 0.79. Per-seed checks keep only the shape the
// paper states; the numeric bands hold the mean (or pooled total) over the
// seeds. Each band was proven live by tightening it until it failed; the
// test logs show the values it was measured against.
var bandSeeds = []int64{1, 2, 3}

// quickAt is `rrrbench -scale quick -seed seed`, the runs the bands were
// measured on.
func quickAt(seed int64) Scale {
	sc := QuickScale()
	sc.SimCfg.Seed = seed
	return sc
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func TestRetrospectiveShape(t *testing.T) {
	var prec, cov []float64
	contributing := map[string]bool{}
	goodDays, days := 0, 0
	for _, seed := range bandSeeds {
		r := RunRetrospective(quickAt(seed))
		t.Logf("seed %d: all techniques %d signals, precision %.3f, coverage %.3f; daily precision %.2f",
			seed, r.AllTechniques.Signals, r.AllTechniques.Precision, r.AllTechniques.CovAll, r.Fig6Precision)
		if r.CorpusSize < 100 {
			t.Fatalf("seed %d: corpus too small: %d", seed, r.CorpusSize)
		}
		if r.TotalChanges == 0 {
			t.Fatalf("seed %d: no ground-truth changes", seed)
		}
		if r.BorderChanges == 0 || r.ASChanges == 0 {
			t.Fatalf("seed %d: change mix degenerate: AS=%d border=%d", seed, r.ASChanges, r.BorderChanges)
		}
		if r.AllTechniques.Precision < 0.6 {
			t.Errorf("seed %d: combined precision %.2f < 0.6", seed, r.AllTechniques.Precision)
		}
		prec = append(prec, r.AllTechniques.Precision)
		cov = append(cov, r.AllTechniques.CovAll)
		for _, row := range r.Table2 {
			if row.Signals > 0 {
				contributing[row.Technique] = true
			}
		}
		// Fig 1: changes accumulate; the final fraction exceeds the first
		// and stays well below 1 (most paths remain fresh, §2).
		if n := len(r.Fig1Border); n >= 2 {
			if r.Fig1Border[n-1] <= 0 {
				t.Errorf("seed %d: no accumulated changes in Fig 1", seed)
			}
			if r.Fig1Border[n-1] > 0.8 {
				t.Errorf("seed %d: implausible change fraction %.2f", seed, r.Fig1Border[n-1])
			}
		}
		for _, p := range r.Fig6Precision {
			days++
			if p >= 0.5 {
				goodDays++
			}
		}
	}
	// Table 2's headline: the combination is precise, and it is needed for
	// coverage. Measured means: precision 0.895, coverage 0.238.
	if m := mean(prec); m < 0.75 {
		t.Errorf("mean combined precision %.3f over seeds %v, band >= 0.75", m, bandSeeds)
	}
	if m := mean(cov); m < 0.15 || m > 0.35 {
		t.Errorf("mean combined coverage %.3f over seeds %v, band [0.15, 0.35]", m, bandSeeds)
	}
	if len(contributing) < 4 {
		t.Errorf("only %d techniques produced signals: %v", len(contributing), contributing)
	}
	// Fig 6: signals without any changes nearby are rare; daily precision
	// reaches coin-flip on at least half of all seed-days (measured 15/18).
	if goodDays*2 < days {
		t.Errorf("daily precision >= 0.5 on only %d of %d seed-days", goodDays, days)
	}
}

func TestLiveShape(t *testing.T) {
	var sigN, sigC, rndN, rndC int
	for _, seed := range bandSeeds {
		r := RunLive(quickAt(seed), 60)
		if r.CorpusSize == 0 || r.SignalRefreshes == 0 || r.RandomRefreshes == 0 {
			t.Fatalf("seed %d: live run degenerate: %+v", seed, r)
		}
		t.Logf("seed %d: signal-chosen refreshes %d/%d changed, random %d/%d",
			seed, r.SignalChanged, r.SignalRefreshes, r.RandomChanged, r.RandomRefreshes)
		// Fig 7a's headline: signal-driven refreshes reveal changes far
		// more often than random ones.
		if safeFrac(r.SignalChanged, r.SignalRefreshes) <= safeFrac(r.RandomChanged, r.RandomRefreshes) {
			t.Errorf("seed %d: signal precision does not beat random", seed)
		}
		sigN, sigC = sigN+r.SignalRefreshes, sigC+r.SignalChanged
		rndN, rndC = rndN+r.RandomRefreshes, rndC+r.RandomChanged
	}
	// Pooled over the seeds: measured 650/1007 = 0.645 against 185/1080 =
	// 0.171.
	sigPrec, rndPrec := safeFrac(sigC, sigN), safeFrac(rndC, rndN)
	if sigPrec < 0.45 {
		t.Errorf("pooled signal-chosen refresh precision %.3f, band >= 0.45", sigPrec)
	}
	if rndPrec > 0.3 {
		t.Errorf("pooled random refresh precision %.3f, band <= 0.3", rndPrec)
	}
	if sigPrec < 2.5*rndPrec {
		t.Errorf("signal-chosen precision %.3f is not 2.5x random %.3f", sigPrec, rndPrec)
	}
}

func TestFig8Shape(t *testing.T) {
	// rrrbench's Fig 8 run, at the two ends of its budget sweep.
	var sigLow, dtLow, sigHigh, dtHigh []float64
	for _, seed := range bandSeeds {
		r := RunFig8(quickAt(seed), 200, []float64{0.0002, 0.02})
		if r.TotalChanges == 0 {
			t.Fatalf("seed %d: no ground-truth changes", seed)
		}
		t.Logf("seed %d: signals %.3f vs dtrack %.3f at the lowest budget, %.3f vs %.3f at the highest",
			seed, r.Signals[0], r.DTrack[0], r.Signals[1], r.DTrack[1])
		// More budget detects at least as much, for every strategy.
		for name, ys := range map[string][]float64{
			"roundrobin": r.RoundRobin, "sibyl": r.Sibyl,
			"dtrack": r.DTrack, "signals": r.Signals, "ds": r.DTrackSignals,
		} {
			if ys[1] < ys[0]-0.05 {
				t.Errorf("seed %d: %s not budget-monotone: %v", seed, name, ys)
			}
		}
		// DTRACK+SIGNALS dominates signals alone at high budget (§6.1), and
		// signals cannot exceed their coverage bound.
		if r.DTrackSignals[1] < r.Signals[1] {
			t.Errorf("seed %d: dtrack+signals %.2f < signals %.2f at high budget",
				seed, r.DTrackSignals[1], r.Signals[1])
		}
		for _, y := range r.Signals {
			if y > r.Optimal+0.01 {
				t.Errorf("seed %d: signals %.2f exceed optimal bound %.2f", seed, y, r.Optimal)
			}
		}
		sigLow, dtLow = append(sigLow, r.Signals[0]), append(dtLow, r.DTrack[0])
		sigHigh, dtHigh = append(sigHigh, r.Signals[1]), append(dtHigh, r.DTrack[1])
	}
	// §5.3's crossing: signals make the best use of the lowest budget
	// (measured means 0.109 vs 0.023) and DTRACK wins at the highest
	// (0.966 vs 0.225).
	if s, d := mean(sigLow), mean(dtLow); s < 2*d || s-d < 0.05 {
		t.Errorf("lowest budget: mean signals %.3f vs dtrack %.3f, band signals >= 2x dtrack and ahead by >= 0.05", s, d)
	}
	if s, d := mean(sigHigh), mean(dtHigh); d < 0.85 || d-s < 0.5 {
		t.Errorf("highest budget: mean dtrack %.3f vs signals %.3f, band dtrack >= 0.85 and ahead by >= 0.5", d, s)
	}
}

func TestDiamondsShape(t *testing.T) {
	// A quick-scale topology has 0-2 load-balanced interdomain segments,
	// so one run's LB-flagged fraction is 0 or 1 by chance. Pool the
	// seeds over a topology with more diamonds (about 10 LB segments).
	var lb, lbFlagged, other, otherFlagged float64
	for _, seed := range bandSeeds {
		sc := tinyScale()
		sc.SimCfg.Seed = seed
		sc.SimCfg.InterdomainLBFraction = 0.5
		r := RunDiamonds(sc)
		t.Logf("seed %d: %d LB segments, %.2f flagged; %d other, %.3f flagged",
			seed, r.LBSegments, r.LBFlaggedFrac, r.NonLBSegments, r.NonLBFlaggedFrac)
		lb += float64(r.LBSegments)
		lbFlagged += r.LBFlaggedFrac * float64(r.LBSegments)
		other += float64(r.NonLBSegments)
		otherFlagged += r.NonLBFlaggedFrac * float64(r.NonLBSegments)
	}
	if lb == 0 || other == 0 {
		t.Fatalf("no segments to compare: %v LB, %v other", lb, other)
	}
	// §5.4: techniques do not flood LB segments with signals; flagged
	// fractions are comparable.
	if lbFlagged/lb > otherFlagged/other+0.5 {
		t.Errorf("LB segments disproportionately flagged: %.2f vs %.2f", lbFlagged/lb, otherFlagged/other)
	}
}

func TestArchivalShape(t *testing.T) {
	sc := tinyScale()
	sc.Days = 3
	r := RunArchival(sc, 300)
	if r.ArchiveSize == 0 || len(r.Fresh) == 0 {
		t.Fatal("archival run degenerate")
	}
	last := len(r.Fresh) - 1
	total := r.Fresh[last] + r.Stale[last] + r.DeadProbe[last] + r.Unknown[last]
	if total == 0 {
		t.Fatal("no classified archive entries")
	}
	// §6.2's headline: the majority of the archive stays reusable.
	if frac := float64(r.Fresh[last]) / float64(total); frac < 0.5 {
		t.Errorf("fresh fraction %.2f < 0.5", frac)
	}
	if r.UDMSatisfiableFrac <= 0 || r.UDMAvoidableFrac >= r.UDMSatisfiableFrac {
		t.Errorf("UDM fractions inconsistent: %.2f / %.2f",
			r.UDMSatisfiableFrac, r.UDMAvoidableFrac)
	}
}

func TestCensusShape(t *testing.T) {
	sc := tinyScale()
	sc.Days = 2
	r := RunCensus(sc)
	if r.BorderIPs == 0 {
		t.Fatal("no border IPs")
	}
	// Fig 14: border IPs are shared across AS pairs; some widely.
	maxPairs := r.ASPairsPerIP[len(r.ASPairsPerIP)-1]
	if maxPairs < 2 {
		t.Errorf("no border IP shared across AS pairs (max=%d)", maxPairs)
	}
	// Fig 15: changed border IPs tend to sit in at least as many paths.
	if len(r.PathsPerIPChanged) > 0 && r.FracChangedInOver10 < r.FracUnchangedInOver10-0.3 {
		t.Errorf("changed IPs unusually under-covered: %.2f vs %.2f",
			r.FracChangedInOver10, r.FracUnchangedInOver10)
	}
}

func TestGeoValidationShape(t *testing.T) {
	r := RunGeoValidation(tinyScale())
	if r.Located == 0 {
		t.Fatal("pipeline located nothing")
	}
	// Fig 12's ordering: agreement with the crowd-sourced profile beats
	// the router DB, which beats the general-purpose DB.
	if !(r.Crowd.Exact >= r.RouterDB.Exact && r.RouterDB.Exact >= r.General.Exact) {
		t.Errorf("DB agreement ordering violated: %.2f %.2f %.2f",
			r.Crowd.Exact, r.RouterDB.Exact, r.General.Exact)
	}
	for _, db := range []struct{ e, u1, u5 float64 }{
		{r.Crowd.Exact, r.Crowd.Under100, r.Crowd.Under500},
		{r.General.Exact, r.General.Under100, r.General.Under500},
	} {
		if db.u1 > db.u5 || db.e > db.u5+1e-9 {
			t.Errorf("CDF not monotone: %+v", db)
		}
	}
}

func TestIPlaneShape(t *testing.T) {
	sc := tinyScale()
	sc.Days = 3
	r := RunIPlane(sc)
	if r.Predictions == 0 || len(r.Day) == 0 {
		t.Fatal("no predictions")
	}
	last := len(r.Day) - 1
	// Fig 16a: pruning never leaves the corpus more stale than not
	// pruning (small slack for sampling).
	if r.InvalidPruned[last] > r.InvalidUnpruned[last]+0.1 {
		t.Errorf("pruned invalidity %.2f > unpruned %.2f",
			r.InvalidPruned[last], r.InvalidUnpruned[last])
	}
	// Fig 16b: a meaningful fraction of valid splices is retained.
	if r.RetainedValid[last] < 0.3 {
		t.Errorf("retained %.2f < 0.3", r.RetainedValid[last])
	}
}

// TestMonitorStatsReporting: after a day of feed, the monitor reports
// potential signals from the AS-path, burst and subpath techniques over
// the anchoring corpus.
func TestMonitorStatsReporting(t *testing.T) {
	sc := tinyScale()
	sc.Days = 1
	lab := NewLab(sc)
	lab.BuildCorpus()
	for {
		if _, _, ok := lab.Window(); !ok {
			break
		}
	}
	regs := make(map[core.Technique]int)
	for _, k := range lab.Mon.Tracked() {
		for _, r := range lab.Mon.Potential(k) {
			regs[r.Technique]++
		}
	}
	if regs[core.TechBGPASPath] == 0 || regs[core.TechBGPBurst] == 0 || regs[core.TechTraceSubpath] == 0 {
		t.Fatalf("potential signals degenerate: %v", regs)
	}
}

func TestLabRelClassification(t *testing.T) {
	lab := NewLab(tinyScale())
	rel := lab.Rel
	checkedPub, checkedPriv, checkedCust := false, false, false
	for i := 1; i < len(lab.Sim.T.Links); i++ {
		l := lab.Sim.T.Links[i]
		switch lab.Sim.T.ASes[l.AAS].Rel[l.BAS] {
		case netsim.RelCustomer:
			if rel.Rel(l.AAS, l.BAS) != core.RelCustomerOf {
				t.Fatalf("customer link misclassified: %s-%s", l.AAS, l.BAS)
			}
			if rel.Rel(l.BAS, l.AAS) != core.RelProviderOf {
				t.Fatalf("provider direction misclassified: %s-%s", l.BAS, l.AAS)
			}
			checkedCust = true
		case netsim.RelPeer:
			got := rel.Rel(l.AAS, l.BAS)
			if l.IXP != 0 && got != core.RelPeerPublic {
				// Public peering needs only one IXP link between the pair.
				t.Fatalf("IXP peer misclassified as %v", got)
			}
			if got == core.RelPeerPublic {
				checkedPub = true
			} else if got == core.RelPeerPrivate {
				checkedPriv = true
			}
		}
	}
	if !checkedCust || !checkedPub || !checkedPriv {
		t.Skipf("relationship variety missing: cust=%v pub=%v priv=%v",
			checkedCust, checkedPub, checkedPriv)
	}
	if rel.Rel(1, 2) != core.RelNone {
		t.Fatal("unrelated ASes should be RelNone")
	}
}

func TestEveryCorpusPairMonitorable(t *testing.T) {
	lab := NewLab(tinyScale())
	lab.BuildCorpus()
	uncovered := 0
	keys := lab.Mon.Tracked()
	for _, k := range keys {
		if len(lab.Mon.Potential(k)) == 0 {
			uncovered++
		}
	}
	// A few pairs may lack all visibility, but the overwhelming majority
	// must have at least one potential signal (Appendix C's overlap).
	if frac := float64(uncovered) / float64(len(keys)); frac > 0.05 {
		t.Fatalf("%.1f%% of corpus pairs unmonitorable", 100*frac)
	}
}
