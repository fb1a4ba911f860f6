package experiments

import (
	"sort"

	"rrr/internal/corpus"
	"rrr/internal/geo"
)

// CensusResult carries Appendix C's Fig 14 and Fig 15: how widely border
// IPs are shared across AS pairs and paths, split by involvement in
// changes.
type CensusResult struct {
	BorderIPs int
	// ASPairsPerIP is the sorted per-border-IP count of adjacent AS pairs
	// using it (Fig 14's CDF).
	ASPairsPerIP []int
	// PathsPerIPChanged / PathsPerIPUnchanged are the sorted per-border-IP
	// path counts, split by whether the IP was involved in a change
	// during the run (Fig 15's two CDFs).
	PathsPerIPChanged   []int
	PathsPerIPUnchanged []int
	// Convenience fractions the paper quotes.
	FracUsedByOver10Pairs float64
	FracChangedInOver10   float64
	FracUnchangedInOver10 float64
}

// RunCensus builds the corpus, lets the simulator run, and tallies
// border-IP sharing plus change involvement.
func RunCensus(sc Scale) *CensusResult {
	lab := NewLab(sc)
	lab.BuildCorpus()
	keys := lab.Mon.Tracked()

	// Record initial border IPs per pair.
	initial := corpus.New(lab.Mapper, lab.Aliases)
	for _, k := range keys {
		en, _ := lab.Mon.Entry(k)
		initial.Put(en)
	}
	census := initial.Census()

	// Advance the feed (no signals are needed), then remeasure to find
	// changed border IPs.
	var now int64
	for {
		ws, _, _, ok := lab.nextWindow()
		if !ok {
			break
		}
		now = ws + sc.WindowSec
	}
	changedIPs := make(map[uint32]bool)
	for _, k := range keys {
		en, _ := initial.Get(k)
		fresh, err := lab.MeasurePair(k, now)
		if err != nil {
			continue
		}
		newSet := make(map[uint32]bool, len(fresh.Borders))
		for _, b := range fresh.Borders {
			newSet[b.FarIP] = true
		}
		for _, b := range en.Borders {
			if !newSet[b.FarIP] {
				changedIPs[b.FarIP] = true
			}
		}
	}

	res := &CensusResult{BorderIPs: len(census.ASPairs)}
	over10Pairs := 0
	for ip, pairs := range census.ASPairs {
		res.ASPairsPerIP = append(res.ASPairsPerIP, len(pairs))
		if len(pairs) > 10 {
			over10Pairs++
		}
		nPaths := len(census.Paths[ip])
		if changedIPs[ip] {
			res.PathsPerIPChanged = append(res.PathsPerIPChanged, nPaths)
		} else {
			res.PathsPerIPUnchanged = append(res.PathsPerIPUnchanged, nPaths)
		}
	}
	sort.Ints(res.ASPairsPerIP)
	sort.Ints(res.PathsPerIPChanged)
	sort.Ints(res.PathsPerIPUnchanged)
	res.FracUsedByOver10Pairs = safeFrac(over10Pairs, res.BorderIPs)
	res.FracChangedInOver10 = fracOver(res.PathsPerIPChanged, 10)
	res.FracUnchangedInOver10 = fracOver(res.PathsPerIPUnchanged, 10)
	return res
}

func fracOver(sorted []int, threshold int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	n := 0
	for _, v := range sorted {
		if v >= threshold {
			n++
		}
	}
	return float64(n) / float64(len(sorted))
}

// GeoValidationResult carries Appendix A's Fig 12: our geolocation
// technique compared against three reference databases.
type GeoValidationResult struct {
	// Per database: exact-match fraction and fractions under 100 km and
	// 500 km.
	Crowd, RouterDB, General struct {
		Name     string
		Overlap  int
		Exact    float64
		Under100 float64
		Under500 float64
	}
	Located    int
	LocateRate float64
}

// RunGeoValidation reproduces the Fig 12 comparison with synthetic
// databases matching the paper's three reference profiles.
func RunGeoValidation(sc Scale) *GeoValidationResult {
	sim := NewDaemonEnv(sc, 0).Sim
	var ips []uint32
	for i := 1; i < len(sim.T.Routers); i++ {
		ips = append(ips, sim.T.Routers[i].Loopback)
	}
	// The validated technique is the measurement pipeline itself (no DB).
	locator := geo.NewLocator(sim, nil)

	located := 0
	for _, ip := range ips {
		if _, _, ok := locator.Locate(ip, 100); ok {
			located++
		}
	}

	mk := func(name string, p geo.DBProfile, seed int64) (out struct {
		Name     string
		Overlap  int
		Exact    float64
		Under100 float64
		Under500 float64
	}) {
		db := geo.BuildDB(sim, ips, p, seed)
		results := geo.Validate(locator, db, ips, 100)
		exact, under := geo.CDF(results, []float64{100, 500})
		out.Name = name
		out.Overlap = len(results)
		out.Exact = exact
		out.Under100 = under[0]
		out.Under500 = under[1]
		return out
	}
	res := &GeoValidationResult{Located: located, LocateRate: safeFrac(located, len(ips))}
	res.Crowd = mk("crowd-sourced", geo.DBProfile{
		Name: "crowd", Coverage: 0.1, ExactFrac: 0.97, NearFrac: 0.02}, 41)
	res.RouterDB = mk("router-specific", geo.DBProfile{
		Name: "router", Coverage: 0.4, ExactFrac: 0.78, NearFrac: 0.12}, 42)
	res.General = mk("general-purpose", geo.DBProfile{
		Name: "general", Coverage: 1.0, ExactFrac: 0.62, NearFrac: 0.2}, 43)
	return res
}
