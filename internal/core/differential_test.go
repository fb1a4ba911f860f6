package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
)

// faultedFeed perturbs observation delivery the way a faulty transport
// would — duplicate deliveries and bounded reordering within a window —
// before handing records to the engine. The perturbation is a pure function
// of the seed, so engines at every shard count fed with the same seed see
// the identical faulted sequence. Pens flush before a window closes, so
// faults never move an observation across a window boundary. A nil rng
// delivers everything untouched.
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

// Digests of runShardWorkload through the serial core.NewEngine of the last
// commit that still had a separate serial engine (f30b904), clean and under
// faultedFeed seed 1337. The Shards: 1 engine must reproduce them, so the
// reference every other configuration is compared against cannot drift.
const (
	serialDigestClean   = "dacbc9e99d00dea1b9c321c39a85f1583fd98064cdbb912c888d05793435f64b"
	serialDigestFaulted = "0f37b29f51c34efb4e40cbbc1e286c61e8444b77279e482866d97107954820ee"
)

// checkShardsMatchSerial is the one serial-vs-sharded differential: the
// Shards: 1 run must equal the pinned serial digest, and every further shard
// count must reproduce the Shards: 1 run — windows, counts, revocation stats
// and refresh plan — byte for byte.
func checkShardsMatchSerial(t *testing.T, faultSeed int64, wantDigest string) {
	serial := runShardWorkload(t, 1, faultSeed, nil)

	// The equivalence check is only meaningful if the workload makes every
	// technique fire (duplicates only add observations, and reordering
	// stays within windows, so the faulted one should too).
	for tech, n := range serial.counts {
		if n == 0 {
			t.Errorf("workload produced no %v signals; equivalence check is weak", tech)
		}
	}
	if serial.revoked[0] == 0 {
		t.Error("workload produced no revocations")
	}

	t.Run("shards=1", func(t *testing.T) {
		if got := serial.digest(); got != wantDigest {
			t.Fatalf("Shards: 1 digest = %s, want the pinned serial engine's %s", got, wantDigest)
		}
	})
	for _, shards := range []int{3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			got := runShardWorkload(t, shards, faultSeed, nil)
			if len(got.windows) != len(serial.windows) {
				t.Fatalf("window count = %d, want %d", len(got.windows), len(serial.windows))
			}
			for i := range serial.windows {
				if !reflect.DeepEqual(got.windows[i], serial.windows[i]) {
					t.Fatalf("window %d diverges:\n sharded: %v\n serial:  %v",
						i, got.windows[i], serial.windows[i])
				}
			}
			if !reflect.DeepEqual(got.counts, serial.counts) {
				t.Errorf("signal counts = %v, want %v", got.counts, serial.counts)
			}
			if got.revoked != serial.revoked {
				t.Errorf("revocation stats = %v, want %v", got.revoked, serial.revoked)
			}
			if !reflect.DeepEqual(got.plan, serial.plan) {
				t.Errorf("refresh plan = %v, want %v", got.plan, serial.plan)
			}
		})
	}
}

// TestShardedMatchesSerial locks in the engine's guarantee: for the same
// feed, the signal stream is byte-identical at any shard count.
func TestShardedMatchesSerial(t *testing.T) {
	checkShardsMatchSerial(t, 0, serialDigestClean)
}

// TestShardedMatchesSerialUnderFaults extends the guarantee to faulted
// inputs: under the identical seeded dup+reorder-within-window schedule a
// divergence means some engine path (burst counting, monitor state, shard
// drains) depends on more than the observation sequence itself.
func TestShardedMatchesSerialUnderFaults(t *testing.T) {
	checkShardsMatchSerial(t, 1337, serialDigestFaulted)
}
