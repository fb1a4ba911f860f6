package core

import (
	"fmt"
	"runtime"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/corpus"
	"rrr/internal/traceroute"
	"rrr/internal/trie"
)

// benchEnv builds an engine with many synthetic corpus pairs sharing a
// destination block, the hot shape of the experiment runs. With fan 0
// every pair crosses the same borders 2.0.0.1 → 3.0.0.1 → 4.0.0.2; with
// fan > 0, pair i crosses from 2.0.0.1 into the (i mod fan)-th of fan
// distinct 3.x → 4.x far sides, so 2·fan subpath monitors share the start
// anchor 2.0.0.1.
func benchEnv(b testing.TB, pairs, fan int) *Engine {
	b.Helper()
	cfg := DefaultConfig()
	cfg.IXPBootstrapSec = 0
	e := NewEngine(cfg, testMapper{}, identityAliases, mapGeo{}, mapRel{})
	corp := corpus.New(testMapper{}, identityAliases)

	pfx, err := trie.ParsePrefix("4.0.0.0/8")
	if err != nil {
		b.Fatal(err)
	}
	// 12 VPs with routes to 4.0.0.0/8.
	for v := 0; v < 12; v++ {
		e.ObserveBGP(bgp.Update{
			Time: 0, PeerIP: uint32(5+v)<<24 | 9, PeerAS: bgp.ASN(5 + v),
			Type: bgp.Announce, Prefix: pfx,
			ASPath: bgp.Path{bgp.ASN(5 + v), 2, 3, 4},
		})
	}
	for i := 0; i < pairs; i++ {
		e.AddCorpusEntry(benchEntry(b, corp, i, fan))
	}
	return e
}

// benchEntry is benchEnv's i'th corpus pair.
func benchEntry(b testing.TB, corp *corpus.Corpus, i, fan int) *corpus.Entry {
	b.Helper()
	tr := &traceroute.Traceroute{
		Src: uint32(1)<<24 | uint32(i+1),
		Dst: uint32(4)<<24 | uint32(0xc000+i),
	}
	g := uint32(0)
	if fan > 0 {
		g = uint32(i % fan)
	}
	for h, ip := range []uint32{
		1<<24 | uint32(i+1000),
		2<<24 | 1, 3<<24 | (1 + g), 4<<24 | (2 + g),
		4<<24 | uint32(0xc000+i),
	} {
		tr.Hops = append(tr.Hops, traceroute.Hop{TTL: h + 1, IP: ip})
	}
	en, err := corp.Process(tr)
	if err != nil {
		b.Fatal(err)
	}
	return en
}

// BenchmarkEngineQuietWindow measures per-window cost with no feed events
// (the overwhelmingly common case in long runs) over 2000 pairs.
func BenchmarkEngineQuietWindow(b *testing.B) {
	e := benchEnv(b, 2000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.CloseWindow(int64(i) * 900)
	}
}

// BenchmarkEngineBusyWindow measures a window containing a VP path change
// affecting all 2000 monitored pairs.
func BenchmarkEngineBusyWindow(b *testing.B) {
	e := benchEnv(b, 2000, 0)
	pfx, _ := trie.ParsePrefix("4.0.0.0/8")
	for i := 0; i < 30; i++ {
		e.CloseWindow(int64(i) * 900)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := bgp.Path{5, 2, 3, 4}
		if i%2 == 0 {
			path = bgp.Path{5, 2, 9, 4}
		}
		e.ObserveBGP(bgp.Update{
			Time: int64(30+i) * 900, PeerIP: 5<<24 | 9, PeerAS: 5,
			Type: bgp.Announce, Prefix: pfx, ASPath: path,
		})
		e.CloseWindow(int64(30+i) * 900)
	}
}

// BenchmarkEngineRegistration measures corpus on-boarding: each op
// registers one more pair into an engine tracking 2000 pairs of the same
// shape. B/pair is what registration keeps: the live heap, after a full
// collection, that registering 1000 pairs into a primed engine adds, per
// pair; it does not depend on b.N.
func BenchmarkEngineRegistration(b *testing.B) {
	const kept = 1000
	fresh := benchEnv(b, 0, 0)
	corp := corpus.New(testMapper{}, identityAliases)
	entries := make([]*corpus.Entry, kept)
	for i := range entries {
		entries[i] = benchEntry(b, corp, i, 0)
	}
	before := liveHeap()
	for _, en := range entries {
		fresh.AddCorpusEntry(en)
	}
	perPair := float64(int64(liveHeap())-int64(before)) / kept
	runtime.KeepAlive(fresh)

	e := benchEnv(b, 2000, 0)
	entries = entries[:0]
	for i := 0; i < b.N; i++ {
		entries = append(entries, benchEntry(b, corp, 2000+i, 0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, en := range entries {
		e.AddCorpusEntry(en)
	}
	b.StopTimer()
	b.ReportMetric(perPair, "B/pair") // after ResetTimer, which drops reported metrics
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkEnginePublicTrace measures public-feed intake. The fan=21 shape
// is the one the subpath index filters: each trace meets the 2·21 monitors that
// share the start anchor 2.0.0.1 but reaches the last anchor of only the
// two of its own far side, as most monitors a mid-scale trace meets are
// never intersected.
func BenchmarkEnginePublicTrace(b *testing.B) {
	for _, fan := range []int{0, 21} {
		b.Run(fmt.Sprintf("fan=%d", fan), func(b *testing.B) {
			e := benchEnv(b, 500, fan)
			traces := benchTraces(fan)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ObservePublicTrace(traces[i&63])
			}
			b.StopTimer()
			e.CloseWindow(0)
		})
	}
}

// BenchmarkObserveBGPWatched and BenchmarkObserveBGPUnwatched time the
// window fold alone, per classified RIB change: one op is a window of
// foldWindow changes handed to observeBGPChange, the window's close
// untimed. A change to a watched pair folds into its cell's window state;
// one to any other pair is a log append.
func BenchmarkObserveBGPWatched(b *testing.B) {
	pfx, _ := trie.ParsePrefix("4.0.0.0/8")
	benchFold(b, func(i int) vpPrefix {
		v := i % 12 // benchEnv's VPs, each watched towards pfx
		return vpPrefix{vp: bgp.VPKey{PeerIP: uint32(5+v)<<24 | 9, PeerAS: bgp.ASN(5 + v)}, pf: pfx}
	})
}

func BenchmarkObserveBGPUnwatched(b *testing.B) {
	benchFold(b, func(i int) vpPrefix {
		return vpPrefix{vp: bgp.VPKey{PeerIP: 5<<24 | 9, PeerAS: 5}, pf: trie.MakePrefix(10<<24|uint32(i)<<8, 24)}
	})
}

// foldWindow is the number of changes per window in the fold benchmarks.
const foldWindow = 4096

// benchFold runs the fold benchmarks' windows over the pairs key names
// (AS-path changes and duplicates, alternating), on an engine tracking one
// pair, and reports ns, B and allocs per change.
func benchFold(b *testing.B, key func(int) vpPrefix) {
	e := benchEnv(b, 1, 0)
	us, cs := make([]bgp.Update, foldWindow), make([]bgp.Change, foldWindow)
	prev, cur := bgp.Route{ASPath: bgp.Path{5, 2, 3, 4}}, bgp.Route{ASPath: bgp.Path{5, 2, 9, 4}}
	for i := range us {
		k := key(i)
		us[i] = bgp.Update{Prefix: k.pf}
		cs[i] = bgp.Change{Kind: bgp.ChangeASPath, VP: k.vp, HasPrev: true, Prev: prev, Cur: cur}
		if i%2 == 1 {
			cs[i].Kind, cs[i].Prev = bgp.ChangeDuplicate, cur
		}
	}
	window := func() {
		for i := range us {
			e.sh.observeBGPChange(us[i], cs[i])
		}
	}
	ws := int64(0)
	window() // sizes the pool and the log
	e.CloseWindow(ws)
	var before, after runtime.MemStats
	var mallocs, bytes uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ws += 900
		runtime.ReadMemStats(&before)
		b.StartTimer()
		window()
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		e.CloseWindow(ws)
		b.StartTimer()
	}
	n := float64(b.N) * foldWindow
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/update")
	b.ReportMetric(float64(bytes)/n, "B/update")
	b.ReportMetric(float64(mallocs)/n, "allocs/update")
}
