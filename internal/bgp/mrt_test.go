package bgp

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"rrr/internal/trie"
)

func TestMRTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var in []Update
	for i := 0; i < 150; i++ {
		u := randomUpdate(rng)
		u.Time = int64(uint32(u.Time)) // MRT timestamps are 32-bit
		if u.Type == Announce && len(u.ASPath) == 0 {
			u.ASPath = Path{1}
		}
		in = append(in, u)
	}
	var buf bytes.Buffer
	w := NewMRTWriter(&buf)
	for _, u := range in {
		if err := w.Write(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewMRTReader(&buf)
	var got []Update
	for {
		batch, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, batch...)
	}
	if len(got) != len(in) {
		t.Fatalf("got %d updates; want %d", len(got), len(in))
	}
	for i := range in {
		want := canonical(in[i])
		have := canonical(got[i])
		// The writer does not preserve normalized community order; the
		// reader yields them as written. Compare normalized.
		want.Communities = NormalizeCommunities(want.Communities)
		have.Communities = NormalizeCommunities(have.Communities)
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("update %d:\n got %+v\nwant %+v", i, have, want)
		}
	}
}

func TestMRTMultiPrefixUpdate(t *testing.T) {
	// Hand-build a BGP UPDATE with two NLRI prefixes and one withdrawal,
	// then verify it expands to three Updates.
	u1 := Update{Time: 100, PeerIP: 0x01020304, PeerAS: 65000, Type: Announce,
		Prefix: trie.MakePrefix(0x0a000000, 8), ASPath: Path{65000, 1}, MED: 5}
	msg, err := encodeBGPUpdate(u1)
	if err != nil {
		t.Fatal(err)
	}
	// Append a second NLRI prefix 11.0.0.0/8 to the message.
	msg = append(msg, encodeNLRI(trie.MakePrefix(0x0b000000, 8))...)
	// Fix the total message length.
	msg[16] = byte(len(msg) >> 8)
	msg[17] = byte(len(msg))

	ups, err := parseBGPUpdate(msg[19:], true, 100, u1.PeerIP, u1.PeerAS)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 2 {
		t.Fatalf("got %d updates; want 2", len(ups))
	}
	if ups[0].Prefix.String() != "10.0.0.0/8" || ups[1].Prefix.String() != "11.0.0.0/8" {
		t.Fatalf("prefixes = %v, %v", ups[0].Prefix, ups[1].Prefix)
	}
	if !ups[1].ASPath.Equal(Path{65000, 1}) || ups[1].MED != 5 {
		t.Fatalf("attributes not shared across NLRI: %+v", ups[1])
	}
}

func TestMRTTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewMRTWriter(&buf)
	u := Update{Time: 1, PeerIP: 2, PeerAS: 3, Type: Announce,
		Prefix: trie.MakePrefix(0x0a000000, 8), ASPath: Path{3, 4}}
	if err := w.Write(u); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut += 3 {
		r := NewMRTReader(bytes.NewReader(full[:cut]))
		if _, err := r.Read(); err == nil {
			t.Fatalf("truncated at %d: want error", cut)
		}
	}
}

func TestMRTSkipsUnknownRecords(t *testing.T) {
	var buf bytes.Buffer
	// An OSPF (type 11) record, then a real update.
	hdr := make([]byte, 12)
	hdr[5] = 11
	hdr[11] = 4
	buf.Write(hdr)
	buf.Write([]byte{1, 2, 3, 4})
	w := NewMRTWriter(&buf)
	u := Update{Time: 9, PeerIP: 7, PeerAS: 8, Type: Announce,
		Prefix: trie.MakePrefix(0x0a000000, 8), ASPath: Path{8}}
	w.Write(u)
	w.Flush()
	r := NewMRTReader(&buf)
	got, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].PeerAS != 8 {
		t.Fatalf("got %+v", got)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestParseASPathSegments(t *testing.T) {
	// AS_SET{10,20} followed by AS_SEQUENCE{30}.
	b := []byte{
		asPathSetSegment, 2, 0, 0, 0, 10, 0, 0, 0, 20,
		asPathSequenceSegment, 1, 0, 0, 0, 30,
	}
	p, err := parseASPath(b, true)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(Path{10, 20, 30}) {
		t.Fatalf("path = %v", p)
	}
	if _, err := parseASPath([]byte{9, 1, 0, 0}, true); err == nil {
		t.Fatal("unknown segment type accepted")
	}
}

func TestParseNLRIBoundaries(t *testing.T) {
	// /0, /8, /17, /32 in one blob.
	blob := append([]byte{0}, encodeNLRI(trie.MakePrefix(0x0a000000, 8))...)
	blob = append(blob, encodeNLRI(trie.MakePrefix(0x0a808000, 17))...)
	blob = append(blob, encodeNLRI(trie.MakePrefix(0x0a0a0a0a, 32))...)
	ps, err := parseNLRI(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0.0.0.0/0", "10.0.0.0/8", "10.128.128.0/17", "10.10.10.10/32"}
	if len(ps) != len(want) {
		t.Fatalf("got %d prefixes", len(ps))
	}
	for i := range want {
		if ps[i].String() != want[i] {
			t.Errorf("prefix %d = %s; want %s", i, ps[i], want[i])
		}
	}
	if _, err := parseNLRI([]byte{33}); err == nil {
		t.Fatal("prefix length 33 accepted")
	}
	if _, err := parseNLRI([]byte{24, 1}); err == nil {
		t.Fatal("short prefix bytes accepted")
	}
}

func TestRIBDumpRoundTrip(t *testing.T) {
	// Build a RIB from random announcements, dump it, read it back, and
	// verify the reconstructed RIB matches route for route.
	rng := rand.New(rand.NewSource(21))
	src := NewRIB()
	for i := 0; i < 120; i++ {
		u := randomUpdate(rng)
		if u.Type == Withdraw {
			continue
		}
		u.Time = int64(uint32(u.Time))
		if len(u.ASPath) == 0 {
			u.ASPath = Path{1}
		}
		src.Apply(u)
	}
	var buf bytes.Buffer
	if err := WriteRIBDump(&buf, src, 777); err != nil {
		t.Fatal(err)
	}
	dr := NewRIBDumpReader(&buf)
	rebuilt := NewRIB()
	n := 0
	for {
		u, err := dr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rebuilt.Apply(u)
		n++
	}
	if n == 0 {
		t.Fatal("dump produced no updates")
	}
	for _, vp := range src.VPs() {
		for _, p := range src.Prefixes(vp) {
			want, _ := src.Route(vp, p)
			got, ok := rebuilt.Route(vp, p)
			if !ok {
				t.Fatalf("route %s %s missing after round trip", vp, p)
			}
			if !want.ASPath.Equal(got.ASPath) {
				t.Fatalf("path mismatch for %s %s: %v vs %v", vp, p, want.ASPath, got.ASPath)
			}
			if !want.Communities.Equal(got.Communities) {
				t.Fatalf("communities mismatch for %s %s", vp, p)
			}
			if want.MED != got.MED {
				t.Fatalf("MED mismatch for %s %s", vp, p)
			}
		}
	}
}

func TestRIBDumpUnknownPeerRejected(t *testing.T) {
	var buf bytes.Buffer
	dw := newRIBDumpWriter(&buf, []VPKey{{PeerIP: 1, PeerAS: 2}})
	err := dw.writePrefix(trie.MakePrefix(0x0a000000, 8), []ribEntry{
		{Peer: VPKey{PeerIP: 9, PeerAS: 9}, ASPath: Path{9}},
	})
	if err == nil {
		t.Fatal("unknown peer accepted")
	}
}

func TestRIBDumpReaderRejectsOrphanRecord(t *testing.T) {
	// A RIB record with no preceding peer index table is an error.
	var buf bytes.Buffer
	dw := newRIBDumpWriter(&buf, []VPKey{{PeerIP: 1, PeerAS: 2}})
	dw.DumpTime = 5
	if err := dw.writePrefix(trie.MakePrefix(0x0a000000, 8), []ribEntry{
		{Peer: VPKey{PeerIP: 1, PeerAS: 2}, ASPath: Path{2}},
	}); err != nil {
		t.Fatal(err)
	}
	dw.Flush()
	full := buf.Bytes()
	// Strip the index record: first record length is at bytes 8..12.
	ixLen := 12 + int(uint32(full[8])<<24|uint32(full[9])<<16|uint32(full[10])<<8|uint32(full[11]))
	dr := NewRIBDumpReader(bytes.NewReader(full[ixLen:]))
	if _, err := dr.Read(); err == nil {
		t.Fatal("orphan RIB record accepted")
	}
}
