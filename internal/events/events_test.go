package events

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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
// When vps is set, every event must count that many vantage points.
type classifierCase struct {
	name   string
	prime  []bgp.Update
	stream []bgp.Update
	want   []Class
	vps    int
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
		{
			name: "a session re-announcing a foreign origin counts once",
			prime: []bgp.Update{
				annc(0xA1, P, 100, 200, 300),
				annc(0xA2, P, 100, 200, 300),
			},
			stream: []bgp.Update{
				annc(0xA1, P, 100, 200, 666),
				annc(0xA1, P, 100, 100, 200, 666), // the same session, prepended
			},
			want: []Class{HijackMOAS},
			vps:  1,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDetector(Config{})
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
				if tc.vps != 0 && (ev.VPCount != tc.vps || ev.Score != float64(tc.vps)) {
					t.Errorf("%v: vpCount=%d score=%v, want %d vantage points", ev.Class, ev.VPCount, ev.Score, tc.vps)
				}
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

	d := NewDetector(Config{})
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
	d := NewDetector(Config{})
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
	d := NewDetector(Config{})
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
	d := NewDetector(Config{})
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

// TestEventsReadDuringIngest reads the log from one goroutine while
// another taps a churn stream and closes windows, as HTTP handlers read it
// while the pipeline ingests. Every read must be a prefix of the final log
// (the same stream tapped serially) ending at a window boundary; -race
// checks that the reads share nothing unpublished with the tapper.
func TestEventsReadDuringIngest(t *testing.T) {
	ingest := func(d *Detector) {
		P := func(p int) trie.Prefix { return trie.MakePrefix(0x14000000+uint32(p)<<16, 16) }
		for vp := uint32(0); vp < 4; vp++ {
			for p := 0; p < 8; p++ {
				d.Prime(annc(0xA1+vp, P(p), 100, 200, bgp.ASN(300+p)))
			}
		}
		rng := rand.New(rand.NewSource(9))
		for w := int64(0); w < 1000; w++ {
			for n := rng.Intn(6); n > 0; n-- {
				p := rng.Intn(8)
				u := annc(0xA1+uint32(rng.Intn(4)), P(p), 100, 200, bgp.ASN(300+p))
				switch rng.Intn(5) {
				case 1:
					u.ASPath[2] = bgp.ASN(400 + rng.Intn(2))
				case 2:
					u.ASPath = bgp.Path{100, 400, 200, bgp.ASN(300 + p)}
				case 3:
					u.Communities = bgp.Communities{BlackholeCommunity}
				case 4:
					u = wdraw(u.PeerIP, u.Prefix)
				}
				d.TapUpdate(u)
			}
			tr := &traceroute.Traceroute{Src: uint32(rng.Intn(4)), Dst: 9}
			for h := 0; h < 6; h++ {
				tr.Hops = append(tr.Hops, traceroute.Hop{IP: uint32(10 + h - h/4*rng.Intn(3)), TTL: h + 1})
			}
			d.TapTrace(tr)
			d.TapWindowClose(w * 900)
		}
	}
	serial := NewDetector(Config{})
	ingest(serial)
	want := serial.Events()
	wantLeaks := serial.Filtered(Filter{Classes: []Class{RouteLeak}})
	if len(wantLeaks) == 0 || len(wantLeaks) == len(want) {
		t.Fatalf("stream emits %d events, %d of them leaks: too plain to test a filter", len(want), len(wantLeaks))
	}
	atBoundary := func(got []Event) bool {
		n := len(got)
		if n > len(want) || !slices.Equal(got, want[:n]) {
			return false
		}
		return n == 0 || n == len(want) || want[n].WindowStart != want[n-1].WindowStart
	}

	d := NewDetector(Config{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ingest(d)
	}()
	reads, partial := 0, 0
	for ingesting := true; ingesting; reads++ {
		select {
		case <-done:
			ingesting = false
		default:
		}
		evs, all := d.Events(), d.Filtered(Filter{})
		if !atBoundary(evs) || !atBoundary(all) {
			t.Fatalf("read %d: %d and %d events, not a prefix of the final %d ending at a window boundary",
				reads, len(evs), len(all), len(want))
		}
		if leaks := d.Filtered(Filter{Classes: []Class{RouteLeak}}); len(leaks) > len(wantLeaks) || !slices.Equal(leaks, wantLeaks[:len(leaks)]) {
			t.Fatalf("read %d: %d leak events, not a prefix of the final %d", reads, len(leaks), len(wantLeaks))
		}
		if len(evs) > 0 && len(evs) < len(want) {
			partial++
		}
	}
	if got := d.Events(); !slices.Equal(got, want) {
		t.Fatalf("final log has %d events, the serial run %d", len(got), len(want))
	}
	t.Logf("%d reads, %d of them mid-stream, final log %d events", reads, partial, len(want))
}

func TestFilteredSelectsClassAndRange(t *testing.T) {
	d := NewDetector(Config{})
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

// TestSessionsSharingAnIP: a vantage point is a BGP session, so two
// sessions on one peer IP (different peer ASes) hold two routes, as in
// bgp.RIB. Keyed by IP alone, the second session's announcement replaced
// the first's: the MOAS below read as a full origin hijack, and the leak
// vanished when the other session announced a clean path.
func TestSessionsSharingAnIP(t *testing.T) {
	P := pfx("20.1.0.0/16")
	sess := func(as bgp.ASN, path ...bgp.ASN) bgp.Update {
		u := annc(0xA1, P, path...)
		u.PeerAS = as
		return u
	}
	for _, tc := range []struct {
		name   string
		stream []bgp.Update
		want   Event
	}{
		{
			name:   "one session's foreign origin is MOAS while the other routes to the baseline",
			stream: []bgp.Update{sess(100, 100, 200, 400)},
			want:   Event{Class: HijackMOAS, WindowStart: 900, Prefix: P, AS: 400, VPCount: 1},
		},
		{
			name:   "one session's leak survives the other session's clean announcement",
			stream: []bgp.Update{sess(100, 100, 400, 200, 300), sess(101, 101, 200, 300)},
			want:   Event{Class: RouteLeak, WindowStart: 900, Prefix: P, AS: 400, VPCount: 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDetector(Config{})
			d.Prime(sess(100, 100, 200, 300))
			d.Prime(sess(101, 101, 200, 300))
			for _, u := range tc.stream {
				d.TapUpdate(u)
			}
			d.TapWindowClose(900)
			evs := d.Events()
			if len(evs) != 1 {
				t.Fatalf("events %+v, want one %v", evs, tc.want.Class)
			}
			got := evs[0]
			got.Detail, got.Score = "", 0
			if got != tc.want {
				t.Fatalf("event %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestInteriorMatchesCompact holds interior to the compacted path it
// replaces: the same hops in the same order, up to repeats of a hop.
func TestInteriorMatchesCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		p := make(bgp.Path, rng.Intn(8))
		for j := range p {
			p[j] = bgp.ASN(1 + rng.Intn(3))
		}
		var want bgp.Path
		if c := p.Compact(); len(c) > 2 {
			want = c[1 : len(c)-1]
		}
		got := slices.Compact(slices.Clone(interior(p)))
		if !slices.Equal(got, want) {
			t.Fatalf("interior(%v) = %v, want %v", p, interior(p), want)
		}
	}
}

// TestTapUpdateAllocs: re-announcing a route the detector holds, in a
// window that has already seen its prefix, allocates nothing — the
// duplicate is the commonest update.
func TestTapUpdateAllocs(t *testing.T) {
	P := pfx("20.1.0.0/16")
	d := NewDetector(Config{})
	u := annc(0xA1, P, 100, 100, 200, 300, 300)
	u.Communities = bgp.Communities{bgp.MakeCommunity(100, 1)}
	d.Prime(u)
	d.TapUpdate(u)
	if n := testing.AllocsPerRun(1000, func() { d.TapUpdate(u) }); n != 0 {
		t.Fatalf("TapUpdate on a known route: %v allocations, want 0", n)
	}
}

// TestTapTraceAllocs: once the window's pair map has held a pair, tapping
// the pair's first loop and first cycle of a window allocates nothing; the
// events' details are rendered at close. The closes, which allocate the
// events, are left out of the count.
func TestTapTraceAllocs(t *testing.T) {
	mk := func(ips ...uint32) *traceroute.Traceroute {
		tr := &traceroute.Traceroute{Src: 1, Dst: 2}
		for i, ip := range ips {
			tr.Hops = append(tr.Hops, traceroute.Hop{IP: ip, TTL: i + 1})
		}
		return tr
	}
	loop, cycle := mk(10, 11, 11, 12), mk(10, 11, 12, 11)
	d := NewDetector(Config{})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const windows = 100
	var before, after runtime.MemStats
	var mallocs uint64
	for w := int64(0); w <= windows; w++ {
		runtime.ReadMemStats(&before)
		d.TapTrace(loop)
		d.TapTrace(cycle)
		runtime.ReadMemStats(&after)
		if w > 0 { // the first window warms the pair map
			mallocs += after.Mallocs - before.Mallocs
		}
		d.TapWindowClose(w * 900)
	}
	if n := len(d.Events()); n != 2*(windows+1) {
		t.Fatalf("%d events, want a loop and a cycle in each of %d windows", n, windows+1)
	}
	if n := float64(mallocs) / (2 * windows); n != 0 {
		t.Fatalf("TapTrace of a window's first loop or cycle: %.2f allocations, want 0", n)
	}
}

// BenchmarkTapUpdate is the detector's per-update cost on the mid-scale
// table's shape: 46 sessions × 268 prefixes primed, then windows of 4 096
// updates that cycle exact re-announcements, prepend flaps and community
// toggles over those routes. The window close is not timed.
func BenchmarkTapUpdate(b *testing.B) {
	const sessions, prefixes, window = 46, 268, 4096
	d := NewDetector(Config{})
	var updates []bgp.Update
	for p := 0; p < prefixes; p++ {
		for s := 0; s < sessions; s++ {
			u := bgp.Update{PeerIP: 0xC6336401 + uint32(s), PeerAS: bgp.ASN(100 + s), Type: bgp.Announce,
				Prefix: trie.MakePrefix(0x14000000+uint32(p)<<16, 16),
				ASPath: bgp.Path{bgp.ASN(100 + s), bgp.ASN(200 + (s+p)%8), bgp.ASN(300 + p)}}
			d.Prime(u)
			flap, toggle := u, u
			flap.ASPath = append(bgp.Path{u.ASPath[0]}, u.ASPath...)
			toggle.Communities = bgp.Communities{bgp.MakeCommunity(u.PeerAS, 1)}
			updates = append(updates, u, flap, toggle)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A stride coprime with len(updates) spreads each window over the table.
		d.TapUpdate(updates[i*7919%len(updates)])
		if i%window == window-1 {
			b.StopTimer()
			d.TapWindowClose(int64(i/window) * 900)
			b.StartTimer()
		}
	}
}
