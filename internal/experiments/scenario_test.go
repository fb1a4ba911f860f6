package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/events"
	"rrr/internal/netsim"
	"rrr/internal/traceroute"
	"rrr/internal/trie"
)

func mustPrefix(t *testing.T, s string) trie.Prefix {
	t.Helper()
	p, err := trie.ParsePrefix(s)
	if err != nil {
		t.Fatalf("ParsePrefix(%q): %v", s, err)
	}
	return p
}

// TestScenarioAccuracy runs the headline adversarial harness (full pack,
// seed 4242) and floors what protects the paper's science: the classifiers
// must find nearly everything the pack injected without drowning in false
// positives, and the staleness engine's verdict accuracy must not collapse
// under adversarial churn. The reduced scale keeps loose floors; the default
// quick scale is the calibrated run (precision 0.950, recall 1.000,
// degradation 0.002) and holds the tight ones.
func TestScenarioAccuracy(t *testing.T) {
	reduced := QuickScale()
	reduced.Days = 4
	reduced.PublicPerWindow = 20
	for _, tc := range []struct {
		name           string
		scale          Scale
		minTruths      int
		minPrecision   float64
		minRecall      float64
		maxDegradation float64
	}{
		{"reduced", reduced, 10, 0.8, 0.8, 0.1},
		{"quick", QuickScale(), 1, 0.85, 0.9, 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := RunScenarioAccuracy(tc.scale, netsim.FullPack(), 4242)

			if res.TruthCount < tc.minTruths {
				t.Fatalf("vacuous scenario: only %d ground-truth episodes", res.TruthCount)
			}
			if res.EventCount == 0 {
				t.Fatal("detector emitted no events under a full pack")
			}
			if res.Precision < tc.minPrecision {
				t.Errorf("event precision %.3f below floor %v (classes: %+v)", res.Precision, tc.minPrecision, res.Classes)
			}
			if res.Recall < tc.minRecall {
				t.Errorf("event recall %.3f below floor %v (classes: %+v)", res.Recall, tc.minRecall, res.Classes)
			}
			if res.BenignStaleAcc <= 0.5 {
				t.Errorf("benign staleness accuracy %.3f is no better than chance", res.BenignStaleAcc)
			}
			if res.Degradation > tc.maxDegradation {
				t.Errorf("adversarial churn degraded staleness accuracy by %.3f, cap %v (benign %.3f, adversarial %.3f)",
					res.Degradation, tc.maxDegradation, res.BenignStaleAcc, res.AdversarialStaleAcc)
			}
			// Every enabled class should have produced at least one ground-truth
			// episode at this scale except diurnal's long-horizon label.
			seen := map[string]bool{}
			for _, cs := range res.Classes {
				seen[cs.Class] = true
			}
			for _, want := range []string{"hijack-origin", "hijack-moas", "hijack-subprefix", "route-leak", "blackhole", "trace-cycle", "trace-diamond"} {
				if !seen[want] {
					t.Errorf("no score row for class %s: %+v", want, res.Classes)
				}
			}
		})
	}
}

// TestScoreEventsBenignOnlyMatchIsFalsePositive pins the scoring rule the
// edge-case packs depend on: an event explained only by a benign label
// (stable anycast, a self-healed leak) counts against precision.
func TestScoreEventsBenignOnlyMatchIsFalsePositive(t *testing.T) {
	p := mustPrefix(t, "16.1.0.0/16")
	truths := []events.Truth{
		{Class: events.HijackMOAS, Start: 0, End: 86400, Prefix: p, Benign: true},
	}
	evs := []events.Event{
		{Class: events.HijackMOAS, WindowStart: 900, Prefix: p},
	}
	classes, prec, rec := scoreEvents(evs, truths, 900)
	if prec != 0 {
		t.Fatalf("precision %v for a benign-only match, want 0 (%+v)", prec, classes)
	}
	if rec != 0 {
		t.Fatalf("recall %v with no non-benign truths, want 0", rec)
	}
	if len(classes) != 1 || classes[0].FP != 1 || classes[0].TP != 0 {
		t.Fatalf("class rows: %+v", classes)
	}
}

// TestScoreEventsMatching pins TP/FN bookkeeping for the mixed case.
func TestScoreEventsMatching(t *testing.T) {
	p1 := mustPrefix(t, "16.1.0.0/16")
	p2 := mustPrefix(t, "16.2.0.0/16")
	truths := []events.Truth{
		{Class: events.RouteLeak, Start: 900, End: 1800, Prefix: p1, AS: 64512},
		{Class: events.RouteLeak, Start: 90000, End: 90900, Prefix: p2, AS: 64513}, // never detected
	}
	evs := []events.Event{
		{Class: events.RouteLeak, WindowStart: 900, Prefix: p1, AS: 64512},   // TP
		{Class: events.RouteLeak, WindowStart: 45000, Prefix: p1, AS: 64512}, // out of interval: FP
	}
	classes, prec, rec := scoreEvents(evs, truths, 900)
	if len(classes) != 1 {
		t.Fatalf("class rows: %+v", classes)
	}
	cs := classes[0]
	if cs.TP != 1 || cs.FP != 1 || cs.FN != 1 {
		t.Fatalf("tally = %+v, want TP=1 FP=1 FN=1", cs)
	}
	if prec != 0.5 || rec != 0.5 {
		t.Fatalf("prec=%v rec=%v, want 0.5/0.5", prec, rec)
	}
}

// TestEventsPinned pins the detector's whole event stream, field by field,
// where the accuracy floors above only see class-level precision and
// recall: a change that reclassifies, rescores or drops one event fails
// here. Three streams feed it: the reduced full-pack run, a seeded churn
// stream that reaches what the pack does not (a leaked route withdrawn,
// sessions sharing an IP, announcements without a path, many prefixes
// leaking or hijacked at once), and a seeded trace stream that does the
// same for the trace classes (see traceEvents). A deliberate
// classification change re-pins the digest and counts and says which
// events moved.
func TestEventsPinned(t *testing.T) {
	for _, tc := range []struct {
		name     string
		run      func() []events.Event
		digest   string
		perClass map[string]int
	}{
		{
			name: "scenario",
			run: func() []events.Event {
				sc := QuickScale()
				sc.Days = 4
				sc.PublicPerWindow = 20
				pack := netsim.FullPack()
				return runScenarioPass(sc, &pack, 4242).events
			},
			digest: "e7411529ba2f042e31e2693cf6ff6e1485a10719e4105c9b64250fbc32355a2e",
			perClass: map[string]int{
				"hijack-origin": 2, "hijack-moas": 2, "hijack-subprefix": 2, "route-leak": 2, "blackhole": 2,
				"trace-loop": 1, "trace-cycle": 2, "trace-diamond": 2, "diurnal": 3,
			},
		},
		{
			name:   "churn",
			run:    func() []events.Event { return churnEvents(4242) },
			digest: "7c1a1ddc883a93279d2e7d34f3cff0cd21c5f38eb51f8cf17e165dfe1e0b7fa5",
			perClass: map[string]int{
				"hijack-moas": 76, "hijack-subprefix": 57, "route-leak": 451, "blackhole": 72, "diurnal": 1,
			},
		},
		{
			name:     "traces",
			run:      func() []events.Event { return traceEvents(4242) },
			digest:   "999b452ffb695868b5e9c16d710c3207fb6087c7bb3d2b632fa5054dcce7d55d",
			perClass: map[string]int{"trace-loop": 236, "trace-cycle": 198, "trace-diamond": 39},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			counts := map[string]int{}
			for _, ev := range tc.run() {
				fmt.Fprintf(h, "%v|%d|%v|%d|%d>%d|%s|%x|%d\n", ev.Class, ev.WindowStart, ev.Prefix, ev.AS,
					ev.Key.Src, ev.Key.Dst, ev.Detail, math.Float64bits(ev.Score), ev.VPCount)
				counts[ev.Class.String()]++
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Errorf("event stream digest %s, want %s", got, tc.digest)
			}
			if !reflect.DeepEqual(counts, tc.perClass) {
				t.Errorf("events per class %v, want %v", counts, tc.perClass)
			}
		})
	}
}

// churnEvents runs three days of seeded random BGP churn through a primed
// detector: eight sessions (three pairs of them share a peer IP) over
// eleven baseline prefixes, two of them anycast, with duplicates, prepend
// flaps, foreign origins, leaks, withdrawals, blackholes, more-specifics,
// community toggles and pathless announcements, plus a twelfth prefix that
// churns once a day in the same slot.
func churnEvents(seed int64) []events.Event {
	const windowSec, days = 900, 3
	rng := rand.New(rand.NewSource(seed))
	det := events.NewDetector(events.Config{})
	type session struct {
		ip uint32
		as bgp.ASN
	}
	var sessions []session
	for i := 0; i < 8; i++ {
		sessions = append(sessions, session{ip: 0xC6336401 + uint32(i%5), as: bgp.ASN(100 + i)})
	}
	baseline := func(s, p int) bgp.Update {
		origin := bgp.ASN(300 + p)
		if p < 2 && s%2 == 1 {
			origin = bgp.ASN(320 + p) // anycast second origin
		}
		return bgp.Update{PeerIP: sessions[s].ip, PeerAS: sessions[s].as, Type: bgp.Announce,
			Prefix: trie.MakePrefix(0x14000000+uint32(p)<<16, 16),
			ASPath: bgp.Path{sessions[s].as, bgp.ASN(200 + (s+p)%4), origin}}
	}
	for s := range sessions {
		for p := 0; p < 12; p++ {
			det.Prime(baseline(s, p))
		}
	}
	for w := int64(0); w < days*86400/windowSec; w++ {
		for n := rng.Intn(6); n > 0; n-- {
			s, p := rng.Intn(len(sessions)), rng.Intn(11)
			u := baseline(s, p)
			switch rng.Intn(9) {
			case 1: // prepend flap
				u.ASPath = append(bgp.Path{sessions[s].as}, u.ASPath...)
			case 2: // foreign origin
				u.ASPath[2] = bgp.ASN(400 + rng.Intn(3))
			case 3: // leak through a stub
				u.ASPath = bgp.Path{u.ASPath[0], bgp.ASN(400 + rng.Intn(3)), u.ASPath[1], u.ASPath[2]}
			case 4:
				u = bgp.Update{PeerIP: u.PeerIP, PeerAS: u.PeerAS, Type: bgp.Withdraw, Prefix: u.Prefix}
			case 5:
				u.Communities = bgp.Communities{events.BlackholeCommunity}
			case 6: // more-specific, by the covering origin or a stub
				u.Prefix = trie.MakePrefix(u.Prefix.Addr|uint32(rng.Intn(4))<<14, 18)
				if rng.Intn(2) == 0 {
					u.ASPath[2] = bgp.ASN(400 + rng.Intn(3))
				}
			case 7:
				u.Communities = bgp.Communities{bgp.MakeCommunity(u.ASPath[0], uint16(rng.Intn(3)))}
			case 8:
				u.ASPath = nil
			}
			det.TapUpdate(u)
		}
		if w%96 == 30 {
			det.TapUpdate(baseline(int(w/96)%len(sessions), 11))
		}
		det.TapWindowClose(w * windowSec)
	}
	return det.Events()
}

// traceEvents runs two days of seeded public traces over 36 pairs through
// a detector. Each pair has a base path and two detours, and a trace takes
// one of them (repeated and divergent hop sequences), loses a run of hops
// to stars (a repeat of unresponsive hops, which is no artifact), repeats
// a hop right after itself (a loop) or a few hops on (a cycle), or does
// both, the cycle first. Twice every three hours pair 0 shows a loop, a
// cycle and a diamond in one window, and pair 1 loops at two hop indices
// in one window, where the first trace's index and hop must win.
func traceEvents(seed int64) []events.Event {
	const windowSec, days, pairs = 900, 2, 36
	rng := rand.New(rand.NewSource(seed))
	det := events.NewDetector(events.Config{})
	base := make([][]uint32, pairs)
	for p := range base {
		for h := 0; h < 6+rng.Intn(8); h++ {
			base[p] = append(base[p], 0x0A000000|uint32(p)<<8|uint32(h+1))
		}
	}
	tap := func(p int, ips []uint32, t int64) {
		tr := &traceroute.Traceroute{ProbeID: p, Time: t, Src: 0xC0000000 | uint32(p), Dst: 0xD0000000 | uint32(p%7)}
		for i, ip := range ips {
			h := traceroute.Hop{IP: ip, TTL: i + 1}
			if ip != 0 {
				h.RTT = float64(i + 1)
			}
			tr.Hops = append(tr.Hops, h)
		}
		det.TapTrace(tr)
	}
	// repeat copies ips with the hop at k repeated d hops after it.
	repeat := func(ips []uint32, k, d int) []uint32 {
		return slices.Insert(slices.Clone(ips), k+d, ips[k])
	}
	for w := int64(0); w < days*86400/windowSec; w++ {
		t := w * windowSec
		for n := rng.Intn(8); n > 0; n-- {
			p := rng.Intn(pairs)
			ips := slices.Clone(base[p])
			k := 1 + rng.Intn(len(ips)-3)
			switch rng.Intn(8) {
			case 1, 2: // a detour through one of two other hops
				ips[k] = 0x0B000000 | uint32(p)<<8 | uint32(k)<<1 | uint32(rng.Intn(2))
			case 3: // a run of stars
				ips[k], ips[k+1] = 0, 0
				if rng.Intn(2) == 0 {
					ips[k+2] = 0
				}
			case 4:
				ips = repeat(ips, k, 1)
			case 5:
				ips = repeat(ips, k, 2+rng.Intn(2))
			case 6: // a cycle, then a loop further on
				ips = repeat(repeat(ips, k-1, 2), k+2, 1)
			case 7: // two stars, then a loop
				ips[k] = 0
				ips = repeat(ips, k, 1)
				ips = repeat(ips, k+2, 1)
			}
			tap(p, ips, t+int64(rng.Intn(windowSec)))
		}
		if w%6 == 2 {
			tap(0, repeat(base[0], 2, 1), t)
			tap(0, repeat(base[0], 1, 3), t)
			tap(0, base[0], t)
			detour := slices.Clone(base[0])
			detour[3] = 0x0B0000FF
			tap(0, detour, t)
			tap(1, repeat(base[1], 3, 1), t)
			tap(1, repeat(base[1], 1, 1), t)
		}
		det.TapWindowClose(t)
	}
	return det.Events()
}
