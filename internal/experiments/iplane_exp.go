package experiments

import (
	"rrr/internal/iplane"
	"rrr/internal/traceroute"
)

// IPlaneResult carries Appendix D's Fig 16: the staleness of iPlane's
// spliced paths with and without signal-driven pruning, and the fraction of
// valid splices retained under pruning.
type IPlaneResult struct {
	Day []float64
	// Fig 16a: fraction of spliced predictions that are invalid.
	InvalidUnpruned []float64
	InvalidPruned   []float64
	// Fig 16b: fraction of valid splices retained by the pruned corpus.
	RetainedValid []float64
	Predictions   int
}

// popLevel maps a traceroute to its PoP-level path: each hop becomes an
// ⟨AS, city⟩ tuple via geolocation; hops that cannot be geolocated are
// their own PoP (Appendix D's processing).
func popLevel(lab *Lab, tr *traceroute.Traceroute, when int64) []iplane.PoP {
	var out []iplane.PoP
	var last iplane.PoP = -1
	for _, h := range tr.Hops {
		if !h.Responsive() {
			continue
		}
		var p iplane.PoP
		as, okAS := lab.Mapper.ASOf(h.IP)
		city, okC := lab.Geo.LocateCity(h.IP, when)
		if okAS && okC {
			p = iplane.PoP(int64(as)<<20 | int64(city))
		} else {
			p = iplane.PoP(int64(h.IP)) | 1<<40 // own-PoP marker
		}
		if p != last {
			out = append(out, p)
			last = p
		}
	}
	return out
}

// RunIPlane executes the Appendix D integration: two parallel iPlane
// corpora (one pruned by staleness signals, one not), evaluated daily on
// spliced predictions from public probes to anchors.
func RunIPlane(sc Scale) *IPlaneResult {
	lab := NewLab(sc)
	// iPlane's corpus deliberately misses some (probe, anchor) pairs: each
	// probe's anchoring row alternates between tracked pairs and skipped
	// ones, and the skipped pairs become the prediction targets (as in
	// Appendix D, where splices are built for Probe→Anchor pairs the
	// anchoring measurements did not cover).
	type target struct{ src, dst uint32 }
	var targets []target
	row, col := -1, 0
	for i, tr := range lab.Corpus {
		if i == 0 || tr.Src != lab.Corpus[i-1].Src {
			row, col = row+1, 0
		}
		if (row+col)%2 == 0 {
			_ = lab.Mon.Track(tr) // AS-loop traces are discarded (Appendix A)
		} else {
			targets = append(targets, target{src: tr.Src, dst: tr.Dst})
		}
		col++
	}
	keys := lab.Mon.Tracked()

	pruned := iplane.New()
	unpruned := iplane.New()
	for _, k := range keys {
		en, _ := lab.Mon.Entry(k)
		pops := popLevel(lab, en.Trace, 0)
		pruned.Add(k, pops)
		unpruned.Add(k, pops)
	}
	if len(targets) > 400 {
		targets = targets[:400]
	}

	res := &IPlaneResult{}
	windowsPerDay := int(86400 / sc.WindowSec)

	for w := 0; ; w++ {
		ws, _, ok := lab.Window()
		if !ok {
			break
		}
		// Maintain pruning from signal state (§4.3.2 re-adds on
		// revocation).
		for _, k := range keys {
			if lab.Mon.Stale(k) {
				pruned.Prune(k)
			} else {
				pruned.Unprune(k)
			}
		}

		if (w+1)%windowsPerDay != 0 {
			continue
		}
		now := ws + sc.WindowSec

		// Current ground-truth PoP paths of corpus pairs, for validity.
		current := make(map[traceroute.Key][]iplane.PoP, len(keys))
		for _, k := range keys {
			if fresh, err := lab.MeasurePair(k, now); err == nil {
				current[k] = popLevel(lab, fresh.Trace, now)
			}
		}

		evalService := func(s *iplane.Service) (invalid float64, valid int, total int) {
			for _, tg := range targets {
				sp, ok := s.Predict(tg.src, tg.dst)
				if !ok {
					continue
				}
				total++
				if sp.Valid(current) {
					valid++
				}
			}
			if total > 0 {
				invalid = 1 - float64(valid)/float64(total)
			}
			return invalid, valid, total
		}
		invU, validU, totalU := evalService(unpruned)
		invP, validP, _ := evalService(pruned)

		res.Day = append(res.Day, float64(now)/86400)
		res.InvalidUnpruned = append(res.InvalidUnpruned, invU)
		res.InvalidPruned = append(res.InvalidPruned, invP)
		retained := 0.0
		if validU > 0 {
			retained = float64(validP) / float64(validU)
			if retained > 1 {
				retained = 1
			}
		}
		res.RetainedValid = append(res.RetainedValid, retained)
		res.Predictions = totalU
	}
	return res
}
