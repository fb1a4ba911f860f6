package traceroute

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/trie"
)

func ip(t *testing.T, s string) uint32 {
	t.Helper()
	v, err := trie.ParseIP(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func mkTrace(t *testing.T, src, dst string, hops ...string) *Traceroute {
	t.Helper()
	tr := &Traceroute{Src: ip(t, src), Dst: ip(t, dst), Time: 100, ProbeID: 7, MsmID: 5051}
	for i, h := range hops {
		hop := Hop{TTL: i + 1}
		if h != "*" {
			hop.IP = ip(t, h)
			hop.RTT = float64(i) + 0.5
		}
		tr.Hops = append(tr.Hops, hop)
	}
	if n := len(tr.Hops); n > 0 && tr.Hops[n-1].IP == tr.Dst {
		tr.Reached = true
	}
	return tr
}

// testMapper maps IPs to ASes by their first octet and marks 240.x as IXP.
type testMapper struct{}

func (testMapper) ASOf(ipv uint32) (bgp.ASN, bool) {
	first := ipv >> 24
	if first == 240 || first == 0 || first == 99 {
		return 0, false // IXP / unmapped ranges
	}
	return bgp.ASN(first), true
}

func (testMapper) IXPOf(ipv uint32) (int, bool) {
	if ipv>>24 == 240 {
		return 1, true
	}
	return 0, false
}

func TestASPathMergesConsecutive(t *testing.T) {
	tr := mkTrace(t, "1.0.0.1", "3.0.0.1",
		"1.0.0.2", "1.0.0.3", "2.0.0.1", "2.0.0.2", "3.0.0.1")
	hops, err := ASPath(tr, testMapper{})
	if err != nil {
		t.Fatal(err)
	}
	if !ASNs(hops).Equal(bgp.Path{1, 2, 3}) {
		t.Fatalf("AS path = %v", ASNs(hops))
	}
	if hops[0].First != 0 || hops[0].Last != 1 || hops[2].First != 4 {
		t.Errorf("hop ranges = %+v", hops)
	}
}

func TestASPathMergesAcrossUnmapped(t *testing.T) {
	// 99.x is unmapped: two AS1 hops separated by an unmapped hop merge.
	tr := mkTrace(t, "1.0.0.1", "2.0.0.1",
		"1.0.0.2", "99.0.0.1", "1.0.0.3", "2.0.0.1")
	hops, err := ASPath(tr, testMapper{})
	if err != nil {
		t.Fatal(err)
	}
	if !ASNs(hops).Equal(bgp.Path{1, 2}) {
		t.Fatalf("AS path = %v", ASNs(hops))
	}
}

func TestASPathSkipsIXPAndUnresponsive(t *testing.T) {
	tr := mkTrace(t, "1.0.0.1", "2.0.0.1",
		"1.0.0.2", "*", "240.0.0.9", "2.0.0.1")
	hops, err := ASPath(tr, testMapper{})
	if err != nil {
		t.Fatal(err)
	}
	if !ASNs(hops).Equal(bgp.Path{1, 2}) {
		t.Fatalf("AS path = %v", ASNs(hops))
	}
}

func TestASPathLoopRejected(t *testing.T) {
	tr := mkTrace(t, "1.0.0.1", "1.0.0.9",
		"1.0.0.2", "2.0.0.1", "1.0.0.3")
	if _, err := ASPath(tr, testMapper{}); err != errASLoop {
		t.Fatalf("want errASLoop, got %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := mkTrace(t, "10.0.0.1", "20.0.0.1", "10.0.0.254", "*", "20.0.0.1")
	var buf bytes.Buffer
	w := NewJSONWriter(&buf)
	if err := w.Write(tr); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r := NewJSONReader(&buf)
	got, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("\n got %+v\nwant %+v", got, tr)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if !got.Reached {
		t.Error("reached should be inferred from last hop == dst")
	}
}

func TestJSONReaderSkipsBlankAndErrors(t *testing.T) {
	r := NewJSONReader(strings.NewReader("\n\n{bogus}\n"))
	if _, err := r.Read(); err == nil {
		t.Error("want parse error")
	}
	r = NewJSONReader(strings.NewReader(`{"src_addr":"x","dst_addr":"1.2.3.4"}` + "\n"))
	if _, err := r.Read(); err == nil {
		t.Error("want bad src error")
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := mkTrace(t, "10.0.0.1", "20.0.0.1", "10.0.0.254", "*", "20.0.0.1")
	line := FormatText(tr)
	got, err := ParseText(line)
	if err != nil {
		t.Fatal(err)
	}
	// Text format does not carry MsmID or RTTs.
	want := tr.Clone()
	want.MsmID = 0
	for i := range want.Hops {
		want.Hops[i].RTT = 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("\n got %+v\nwant %+v", got, want)
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := []string{
		"",
		"1 2 3.3.3.3 4.4.4.4 extra: 1.1.1.1",
		"x 2 3.3.3.3 4.4.4.4: 1.1.1.1",
		"1 x 3.3.3.3 4.4.4.4: 1.1.1.1",
		"1 2 badip 4.4.4.4: 1.1.1.1",
		"1 2 3.3.3.3 badip: 1.1.1.1",
		"1 2 3.3.3.3 4.4.4.4: badhop",
	}
	for i, c := range cases {
		if _, err := ParseText(c); err == nil {
			t.Errorf("case %d (%q): want error", i, c)
		}
	}
}

func TestPatcher(t *testing.T) {
	p := NewPatcher()
	// Evidence: 1.0.0.1 -> 5.5.5.5 -> 2.0.0.1 seen responsive.
	p.Observe(mkTrace(t, "9.0.0.1", "2.0.0.9", "1.0.0.1", "5.5.5.5", "2.0.0.1"))
	// Hole between the same neighbors gets patched.
	tr := mkTrace(t, "9.0.0.2", "2.0.0.9", "1.0.0.1", "*", "2.0.0.1")
	if n := p.Patch(tr); n != 1 {
		t.Fatalf("patched %d; want 1", n)
	}
	if tr.Hops[1].IP != ip(t, "5.5.5.5") {
		t.Fatalf("patched to %s", tr.Hops[1])
	}
	// Conflicting evidence disables patching for that triple.
	p.Observe(mkTrace(t, "9.0.0.1", "2.0.0.9", "1.0.0.1", "6.6.6.6", "2.0.0.1"))
	tr2 := mkTrace(t, "9.0.0.2", "2.0.0.9", "1.0.0.1", "*", "2.0.0.1")
	if n := p.Patch(tr2); n != 0 {
		t.Fatalf("patched %d after conflict; want 0", n)
	}
	// Holes at the edge or adjacent to other holes stay.
	tr3 := mkTrace(t, "9.0.0.2", "2.0.0.9", "*", "1.0.0.1", "*", "*", "2.0.0.1")
	if n := p.Patch(tr3); n != 0 {
		t.Fatalf("patched %d; want 0", n)
	}
}

func TestTraversesVia(t *testing.T) {
	path := []uint32{1, 2, 3, 4}
	if i, j, ok := TraversesVia(path, 2, 4); !ok || i != 1 || j != 3 {
		t.Errorf("TraversesVia = %d,%d,%v", i, j, ok)
	}
	if _, _, ok := TraversesVia(path, 4, 2); ok {
		t.Error("reversed order should not match")
	}
	if _, _, ok := TraversesVia(path, 9, 4); ok {
		t.Error("absent from should not match")
	}
}

func TestKeyAndStrings(t *testing.T) {
	tr := mkTrace(t, "1.0.0.1", "2.0.0.1", "1.0.0.2", "*", "2.0.0.1")
	if tr.Key().String() != "1.0.0.1->2.0.0.1" {
		t.Errorf("key = %s", tr.Key())
	}
	if want := "1.0.0.1 -> 2.0.0.1: 1.0.0.2 * 2.0.0.1"; tr.String() != want {
		t.Errorf("String = %q", tr.String())
	}
	full := tr.IPPath()
	if len(full) != 3 || full[1] != 0 {
		t.Errorf("IPPath = %v", full)
	}
}

func BenchmarkJSONRoundTrip(b *testing.B) {
	tr := &Traceroute{Src: 0x0a000001, Dst: 0x14000001, Time: 1, ProbeID: 1}
	for i := 0; i < 16; i++ {
		tr.Hops = append(tr.Hops, Hop{IP: uint32(0x0a000100 + i), TTL: i + 1, RTT: 1.5})
	}
	var buf bytes.Buffer
	w := NewJSONWriter(&buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := w.Write(tr); err != nil {
			b.Fatal(err)
		}
		w.Flush()
	}
}

func TestParsersNeverPanicOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(256)
		buf := make([]byte, n)
		rng.Read(buf)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on garbage (trial %d): %v", trial, r)
				}
			}()
			_, _ = ParseText(string(buf))
			tr := &Traceroute{}
			_ = tr.UnmarshalJSON(buf)
		}()
	}
}
