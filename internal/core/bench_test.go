package core

import (
	"fmt"
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
		e.AddCorpusEntry(en)
	}
	return e
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

// BenchmarkEngineRegistration measures corpus on-boarding cost.
func BenchmarkEngineRegistration(b *testing.B) {
	e := benchEnv(b, 1, 0)
	corp := corpus.New(testMapper{}, identityAliases)
	tr := &traceroute.Traceroute{Src: 1<<24 | 0xffff, Dst: 4<<24 | 0xffff}
	for h, ip := range []uint32{1<<24 | 7, 2<<24 | 1, 3<<24 | 1, 4<<24 | 2, 4<<24 | 0xffff} {
		tr.Hops = append(tr.Hops, traceroute.Hop{TTL: h + 1, IP: ip})
	}
	en, err := corp.Process(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reregister(en)
	}
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
