package events

import (
	"reflect"
	"sort"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/traceroute"
	"rrr/internal/trie"
)

func pfx(s string) trie.Prefix {
	p, err := trie.ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func annc(peer uint32, p trie.Prefix, path ...bgp.ASN) bgp.Update {
	return bgp.Update{PeerIP: peer, Type: bgp.Announce, Prefix: p, ASPath: bgp.Path(path)}
}

func wdraw(peer uint32, p trie.Prefix) bgp.Update {
	return bgp.Update{PeerIP: peer, Type: bgp.Withdraw, Prefix: p}
}

func TestClassNamesRoundTrip(t *testing.T) {
	for c := Class(0); c < numClasses; c++ {
		name := c.String()
		if name == "unknown" {
			t.Fatalf("class %d has no name", c)
		}
		back, err := ParseClass(name)
		if err != nil || back != c {
			t.Fatalf("ParseClass(%q) = %v, %v; want %v", name, back, err, c)
		}
	}
	if _, err := ParseClass("no-such-class"); err == nil {
		t.Fatal("ParseClass accepted an unknown name")
	}
}

func TestEventLessCanonicalOrder(t *testing.T) {
	evs := []Event{
		{WindowStart: 900, Class: Blackhole, Prefix: pfx("10.0.0.0/16")},
		{WindowStart: 0, Class: RouteLeak, Prefix: pfx("10.1.0.0/16"), AS: 2},
		{WindowStart: 0, Class: RouteLeak, Prefix: pfx("10.1.0.0/16"), AS: 1},
		{WindowStart: 0, Class: HijackOrigin, Prefix: pfx("10.9.0.0/16")},
		{WindowStart: 0, Class: TraceLoop, Key: traceroute.Key{Src: 5, Dst: 9}},
		{WindowStart: 0, Class: TraceLoop, Key: traceroute.Key{Src: 5, Dst: 8}},
	}
	sort.Slice(evs, func(i, j int) bool { return EventLess(evs[i], evs[j]) })
	wantFirst := Event{WindowStart: 0, Class: HijackOrigin, Prefix: pfx("10.9.0.0/16")}
	if evs[0] != wantFirst {
		t.Fatalf("first after sort = %+v, want %+v", evs[0], wantFirst)
	}
	if evs[len(evs)-1].WindowStart != 900 {
		t.Fatalf("last after sort should be the later window, got %+v", evs[len(evs)-1])
	}
	if evs[1].AS != 1 || evs[2].AS != 2 {
		t.Fatalf("route-leak AS tiebreak wrong: %+v then %+v", evs[1], evs[2])
	}
	if evs[3].Key.Dst != 8 || evs[4].Key.Dst != 9 {
		t.Fatalf("trace key tiebreak wrong: %+v then %+v", evs[3], evs[4])
	}
}

// classifierCase drives one expected-label scenario through a fresh
// detector: a priming dump establishing the baseline, one window of
// streamed updates, and the exact set of classes the close must emit.
type classifierCase struct {
	name   string
	prime  []bgp.Update
	stream []bgp.Update
	want   []Class
}

func TestClassifierExpectedLabels(t *testing.T) {
	// Topology shorthand: VP peers 0xA1/0xA2 behind AS 100, transit AS
	// 200, legitimate origins 300 (prefix P) and 301 (anycast second
	// origin of prefix Q), stub 400 (attacker / leaker).
	P := pfx("20.1.0.0/16")
	Q := pfx("20.2.0.0/16")
	sub := pfx("20.1.64.0/18")

	cases := []classifierCase{
		{
			name: "legitimate anycast MOAS stays silent",
			prime: []bgp.Update{
				annc(0xA1, Q, 100, 200, 300),
				annc(0xA2, Q, 100, 200, 301), // anycast: both origins in baseline
			},
			stream: []bgp.Update{
				annc(0xA1, Q, 100, 200, 301), // baseline origin reappears
			},
			want: nil,
		},
		{
			name: "foreign origin alongside baseline is MOAS hijack",
			prime: []bgp.Update{
				annc(0xA1, P, 100, 200, 300),
				annc(0xA2, P, 100, 200, 300),
			},
			stream: []bgp.Update{
				annc(0xA1, P, 100, 200, 400), // 0xA2 still routes to 300
			},
			want: []Class{HijackMOAS},
		},
		{
			name: "baseline origin fully displaced is origin hijack",
			prime: []bgp.Update{
				annc(0xA1, P, 100, 200, 300),
				annc(0xA2, P, 100, 200, 300),
			},
			stream: []bgp.Update{
				annc(0xA1, P, 100, 200, 400),
				annc(0xA2, P, 100, 200, 400),
			},
			want: []Class{HijackOrigin},
		},
		{
			name: "foreign more-specific is sub-prefix hijack",
			prime: []bgp.Update{
				annc(0xA1, P, 100, 200, 300),
			},
			stream: []bgp.Update{
				annc(0xA1, sub, 100, 200, 400),
			},
			want: []Class{HijackSubprefix},
		},
		{
			name: "covering origin's own more-specific stays silent",
			prime: []bgp.Update{
				annc(0xA1, P, 100, 200, 300),
			},
			stream: []bgp.Update{
				annc(0xA1, sub, 100, 200, 300),
			},
			want: nil,
		},
		{
			name: "leak routed at window close is flagged",
			prime: []bgp.Update{
				annc(0xA1, P, 100, 200, 300),
				annc(0xA2, P, 100, 200, 300),
			},
			stream: []bgp.Update{
				annc(0xA1, P, 100, 400, 200, 300), // stub 400 in transit position
			},
			want: []Class{RouteLeak},
		},
		{
			name: "leak healing within the window stays silent",
			prime: []bgp.Update{
				annc(0xA1, P, 100, 200, 300),
				annc(0xA2, P, 100, 200, 300),
			},
			stream: []bgp.Update{
				annc(0xA1, P, 100, 400, 200, 300),
				annc(0xA1, P, 100, 200, 300), // legitimate route restored
			},
			want: nil,
		},
		{
			name: "leak withdrawn within the window stays silent",
			prime: []bgp.Update{
				annc(0xA1, P, 100, 200, 300),
			},
			stream: []bgp.Update{
				annc(0xA1, P, 100, 400, 200, 300),
				wdraw(0xA1, P),
			},
			want: nil,
		},
		{
			name: "blackhole community on an already-churning pair still fires",
			prime: []bgp.Update{
				annc(0xA1, P, 100, 200, 300),
				annc(0xA2, P, 100, 200, 300),
			},
			stream: []bgp.Update{
				// The prefix is mid-hijack (stale from the staleness
				// engine's point of view) when the blackhole arrives; both
				// classifications must surface independently.
				annc(0xA1, P, 100, 200, 400),
				{PeerIP: 0xA2, Type: bgp.Announce, Prefix: P,
					ASPath:      bgp.Path{100, 200, 300},
					Communities: []bgp.Community{bgp.MakeCommunity(64500, 1), BlackholeCommunity}},
			},
			want: []Class{HijackMOAS, Blackhole},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDetector(Config{WindowSec: 900})
			for _, u := range tc.prime {
				d.Prime(u)
			}
			for _, u := range tc.stream {
				d.TapUpdate(u)
			}
			d.TapWindowClose(900)
			var got []Class
			for _, ev := range d.Events() {
				got = append(got, ev.Class)
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			want := append([]Class(nil), tc.want...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("emitted classes %v, want %v (events: %+v)", got, want, d.Events())
			}
		})
	}
}

func TestTraceArtifactClassifiers(t *testing.T) {
	hop := func(ip uint32, ttl int) traceroute.Hop { return traceroute.Hop{IP: ip, TTL: ttl, RTT: 10} }
	mk := func(src, dst uint32, ips ...uint32) *traceroute.Traceroute {
		tr := &traceroute.Traceroute{Src: src, Dst: dst, ProbeID: 1}
		for i, ip := range ips {
			tr.Hops = append(tr.Hops, hop(ip, i+1))
		}
		return tr
	}

	d := NewDetector(Config{WindowSec: 900})
	// Adjacent repeat -> loop.
	d.TapTrace(mk(1, 2, 10, 11, 11, 12))
	// Non-adjacent repeat -> cycle.
	d.TapTrace(mk(3, 4, 20, 21, 22, 21))
	// Two divergent same-pair clean traces -> diamond.
	d.TapTrace(mk(5, 6, 30, 31, 32))
	d.TapTrace(mk(5, 6, 30, 33, 32))
	// A single clean trace is not a diamond.
	d.TapTrace(mk(7, 8, 40, 41, 42))
	d.TapWindowClose(900)

	got := map[Class]traceroute.Key{}
	for _, ev := range d.Events() {
		got[ev.Class] = ev.Key
	}
	if len(got) != 3 {
		t.Fatalf("expected exactly loop+cycle+diamond, got %+v", d.Events())
	}
	if got[TraceLoop] != (traceroute.Key{Src: 1, Dst: 2}) {
		t.Fatalf("loop key = %v", got[TraceLoop])
	}
	if got[TraceCycle] != (traceroute.Key{Src: 3, Dst: 4}) {
		t.Fatalf("cycle key = %v", got[TraceCycle])
	}
	if got[TraceDiamond] != (traceroute.Key{Src: 5, Dst: 6}) {
		t.Fatalf("diamond key = %v", got[TraceDiamond])
	}
}

// TestTraceDiamondCountsDistinctSequences pins what the per-window
// signature slab must preserve: a diamond's score is the number of
// *distinct* hop sequences the pair showed in the window (unresponsive hops
// included, length included), and nothing of one window leaks into the next.
func TestTraceDiamondCountsDistinctSequences(t *testing.T) {
	mk := func(src, dst uint32, ips ...uint32) *traceroute.Traceroute {
		tr := &traceroute.Traceroute{Src: src, Dst: dst, ProbeID: 1}
		for i, ip := range ips {
			tr.Hops = append(tr.Hops, traceroute.Hop{IP: ip, TTL: i + 1})
		}
		return tr
	}
	d := NewDetector(Config{WindowSec: 900})
	for _, tr := range []*traceroute.Traceroute{
		mk(5, 6, 30, 31, 32),
		mk(5, 6, 30, 33, 32),
		mk(9, 9, 30, 31, 32), // another pair with the first pair's sequence
		mk(5, 6, 30, 31, 32), // repeats: not new
		mk(5, 6, 30, 33, 32),
		mk(5, 6, 30, 0, 32),  // a hole is part of the sequence
		mk(5, 6, 30, 31),     // so is the length
		mk(7, 8, 40, 41, 42), // one sequence, twice: no diamond
		mk(7, 8, 40, 41, 42),
	} {
		d.TapTrace(tr)
	}
	d.TapWindowClose(900)
	// Next window: the first pair shows one sequence only.
	d.TapTrace(mk(5, 6, 30, 33, 32))
	d.TapTrace(mk(7, 8, 40, 41, 42))
	d.TapTrace(mk(7, 8, 40, 43, 42))
	d.TapWindowClose(1800)

	want := []Event{
		{Class: TraceDiamond, WindowStart: 900, Key: traceroute.Key{Src: 5, Dst: 6},
			Detail: "divergent same-pair hop sequences", Score: 4},
		{Class: TraceDiamond, WindowStart: 1800, Key: traceroute.Key{Src: 7, Dst: 8},
			Detail: "divergent same-pair hop sequences", Score: 2},
	}
	if got := d.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("events:\n got  %+v\n want %+v", got, want)
	}
}

// BenchmarkTapTrace is the detector's per-traceroute cost in steady state:
// clean 12-hop traces from 512 pairs, a window close every 600.
func BenchmarkTapTrace(b *testing.B) {
	traces := make([]*traceroute.Traceroute, 512)
	for i := range traces {
		tr := &traceroute.Traceroute{Src: uint32(1000 + i), Dst: uint32(5000 + i%64)}
		for h := 0; h < 12; h++ {
			tr.Hops = append(tr.Hops, traceroute.Hop{IP: uint32(10000 + 97*i + h), TTL: h + 1})
		}
		traces[i] = tr
	}
	d := NewDetector(Config{WindowSec: 900})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.TapTrace(traces[i%len(traces)])
		if i%600 == 599 {
			d.TapWindowClose(int64(i/600) * 900)
		}
	}
}

func TestDiurnalClassifier(t *testing.T) {
	const day = 86400
	d := NewDetector(Config{WindowSec: 900, DiurnalDays: 3, DiurnalSparseMax: 3})
	P := pfx("30.0.0.0/16")
	d.Prime(annc(0xA1, P, 100, 200, 300))

	// Same daily slot, three consecutive days; quiet otherwise.
	var lastWS int64
	for dayN := int64(0); dayN < 3; dayN++ {
		ws := dayN*day + 43200
		d.TapUpdate(annc(0xA1, P, 100, 200, 300))
		d.TapWindowClose(ws)
		lastWS = ws
	}
	var diurnal []Event
	for _, ev := range d.Events() {
		if ev.Class == Diurnal {
			diurnal = append(diurnal, ev)
		}
	}
	if len(diurnal) != 1 || diurnal[0].WindowStart != lastWS || diurnal[0].Prefix != P {
		t.Fatalf("diurnal events = %+v, want one at ws=%d for %v", diurnal, lastWS, P)
	}
}

func TestFilteredSelectsClassAndRange(t *testing.T) {
	d := NewDetector(Config{WindowSec: 900})
	P := pfx("20.1.0.0/16")
	d.Prime(annc(0xA1, P, 100, 200, 300))
	d.Prime(annc(0xA2, P, 100, 200, 300))
	// Window 1: MOAS hijack. Window 2: blackhole.
	d.TapUpdate(annc(0xA1, P, 100, 200, 400))
	d.TapWindowClose(900)
	d.TapUpdate(bgp.Update{PeerIP: 0xA2, Type: bgp.Announce, Prefix: P,
		ASPath: bgp.Path{100, 200, 300}, Communities: []bgp.Community{BlackholeCommunity}})
	d.TapWindowClose(1800)

	if n := len(d.Events()); n < 2 {
		t.Fatalf("expected at least 2 events, got %d", n)
	}
	only := d.Filtered(Filter{Classes: []Class{Blackhole}})
	if len(only) != 1 || only[0].Class != Blackhole {
		t.Fatalf("class filter: %+v", only)
	}
	ranged := d.Filtered(Filter{FromWindow: 1800})
	for _, ev := range ranged {
		if ev.WindowStart < 1800 {
			t.Fatalf("range filter leaked %+v", ev)
		}
	}
	if len(ranged) == 0 {
		t.Fatal("range filter dropped everything")
	}
}

func TestTruthMatchesWindowPadding(t *testing.T) {
	tr := Truth{Class: Blackhole, Start: 9000, End: 9900, Prefix: pfx("10.0.0.0/8"), AS: 7}
	ev := Event{Class: Blackhole, Prefix: pfx("10.0.0.0/8"), AS: 7}
	for _, tc := range []struct {
		ws   int64
		want bool
	}{
		{ws: 9000, want: true},
		{ws: 8100, want: true},  // one window early (detection at close)
		{ws: 10800, want: true}, // one window late
		{ws: 6300, want: false},
		{ws: 12600, want: false},
	} {
		ev.WindowStart = tc.ws
		if got := tr.Matches(ev, 900); got != tc.want {
			t.Errorf("ws=%d: Matches=%v want %v", tc.ws, got, tc.want)
		}
	}
	// Wrong attribute never matches.
	ev.WindowStart = 9000
	ev.AS = 8
	if tr.Matches(ev, 900) {
		t.Error("AS mismatch matched")
	}
}
