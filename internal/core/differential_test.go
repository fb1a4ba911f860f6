package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
)

// faultedFeed perturbs observation delivery the way a faulty transport
// would — duplicate deliveries and bounded reordering within a window —
// before handing records to the engine. The perturbation is a pure function
// of the seed, so every engine fed with the same seed sees the identical
// faulted sequence. Pens flush before a window closes, so faults never move
// an observation across a window boundary. A nil rng delivers everything
// untouched.
type faultedFeed struct {
	*Engine
	rng  *rand.Rand
	penU []bgp.Update
	penT []*traceroute.Traceroute
}

func (f *faultedFeed) ObserveBGP(u bgp.Update) {
	if f.rng == nil {
		f.Engine.ObserveBGP(u)
		return
	}
	f.penU = append(f.penU, u)
	if f.rng.Float64() < 0.25 {
		f.penU = append(f.penU, u) // at-least-once redelivery
	}
	for len(f.penU) > 4 {
		f.deliverU()
	}
}

func (f *faultedFeed) deliverU() {
	i := f.rng.Intn(len(f.penU))
	u := f.penU[i]
	f.penU = append(f.penU[:i], f.penU[i+1:]...)
	f.Engine.ObserveBGP(u)
}

func (f *faultedFeed) ObservePublicTrace(tr *traceroute.Traceroute) {
	if f.rng == nil {
		f.Engine.ObservePublicTrace(tr)
		return
	}
	f.penT = append(f.penT, tr)
	if f.rng.Float64() < 0.25 {
		f.penT = append(f.penT, tr)
	}
	for len(f.penT) > 4 {
		f.deliverT()
	}
}

func (f *faultedFeed) deliverT() {
	i := f.rng.Intn(len(f.penT))
	tr := f.penT[i]
	f.penT = append(f.penT[:i], f.penT[i+1:]...)
	f.Engine.ObservePublicTrace(tr)
}

func (f *faultedFeed) CloseWindow(ws int64) []Signal {
	for len(f.penU) > 0 {
		f.deliverU()
	}
	for len(f.penT) > 0 {
		f.deliverT()
	}
	return f.Engine.CloseWindow(ws)
}

// digest hashes everything a workload run produced — every field of every
// signal of every window, the per-technique counts, the revocation stats and
// the refresh plan — so the serial reference can be pinned as one string.
func (res workloadResult) digest() string {
	h := sha256.New()
	for i, win := range res.windows {
		fmt.Fprintf(h, "window %d\n", i)
		for _, s := range win {
			fmt.Fprintf(h, "%d %d %d %d %d %v %q %x %d %d %d %t %t %d\n",
				int(s.Technique), s.Key.Src, s.Key.Dst, s.MonitorID, s.WindowStart, s.Borders,
				s.Detail, math.Float64bits(s.Score), s.VPCount, s.IPOverlap, s.ASOverlap,
				s.SameASVP, s.SameCityVP, uint64(s.Comm))
		}
	}
	techs := make([]int, 0, len(res.counts))
	for tech := range res.counts {
		techs = append(techs, int(tech))
	}
	sort.Ints(techs)
	for _, tech := range techs {
		fmt.Fprintf(h, "count %d %d\n", tech, res.counts[Technique(tech)])
	}
	fmt.Fprintf(h, "revoked %d %d\n", res.revoked[0], res.revoked[1])
	for _, k := range res.plan {
		fmt.Fprintf(h, "plan %d %d\n", k.Src, k.Dst)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Digests of runWorkload through the serial core.NewEngine of the last
// commit that still had a separate serial engine (f30b904), clean and under
// faultedFeed seed 1337. The engine must reproduce them, so the reference
// every other configuration is compared against cannot drift.
const (
	serialDigestClean   = "dacbc9e99d00dea1b9c321c39a85f1583fd98064cdbb912c888d05793435f64b"
	serialDigestFaulted = "0f37b29f51c34efb4e40cbbc1e286c61e8444b77279e482866d97107954820ee"
)

// checkMatchesSerial runs the workload and requires the pinned serial
// digest: windows, counts, revocation stats and refresh plan, byte for
// byte.
func checkMatchesSerial(t *testing.T, faultSeed int64, wantDigest string) {
	serial := runWorkload(t, DefaultConfig(), faultSeed, nil)

	// The digest check is only meaningful if the workload makes every
	// technique fire (duplicates only add observations, and reordering
	// stays within windows, so the faulted one should too).
	for tech, n := range serial.counts {
		if n == 0 {
			t.Errorf("workload produced no %v signals; the digest check is weak", tech)
		}
	}
	if serial.revoked[0] == 0 {
		t.Error("workload produced no revocations")
	}

	// The subtest keeps the name the serial reference run has always had.
	t.Run("shards=1", func(t *testing.T) {
		if got := serial.digest(); got != wantDigest {
			t.Fatalf("digest = %s, want the pinned serial engine's %s", got, wantDigest)
		}
	})
}

// TestShardedMatchesSerial locks in the engine's signal stream for the
// clean workload against the pinned serial digest.
func TestShardedMatchesSerial(t *testing.T) {
	checkMatchesSerial(t, 0, serialDigestClean)
}

// TestShardedMatchesSerialUnderFaults extends the pin to faulted inputs:
// under the seeded dup+reorder-within-window schedule a divergence means
// some engine path (burst counting, monitor state) depends on more than
// the observation sequence itself.
func TestShardedMatchesSerialUnderFaults(t *testing.T) {
	checkMatchesSerial(t, 1337, serialDigestFaulted)
}
