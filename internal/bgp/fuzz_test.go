package bgp

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"rrr/internal/trie"
)

// Native fuzz targets for every decoder that consumes third-party bytes:
// the MRT and framed-binary codecs, the text codec, and the string parsers
// parsePath/parseCommunity. Beyond "no panic", each target checks the
// codec's contract: truncation classifies as io.ErrUnexpectedEOF (or this
// codec's structural error), never a silent success, and anything that
// parses must survive a write→re-read round trip unchanged — the
// differential check that caught the writer's length-field overflows.

// fuzzSeedUpdates is a small set of representative updates used to build
// byte-level seed corpora for the codec targets.
func fuzzSeedUpdates() []Update {
	return []Update{
		{Time: 100, PeerIP: 0x01020304, PeerAS: 65000, Type: Announce,
			Prefix: trie.MakePrefix(0x0a000000, 8), ASPath: Path{65000, 3356, 15169},
			Communities: Communities{MakeCommunity(3356, 100)}, MED: 7},
		{Time: 101, PeerIP: 0x01020304, PeerAS: 65000, Type: Withdraw,
			Prefix: trie.MakePrefix(0xc0a80000, 16)},
		{Time: -5, PeerIP: 0xffffffff, PeerAS: 4200000000, Type: Announce,
			Prefix: trie.MakePrefix(0, 0), ASPath: Path{}, MED: 0},
	}
}

func FuzzMRTReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewMRTWriter(&buf)
	for _, u := range fuzzSeedUpdates() {
		if err := w.Write(u); err != nil {
			f.Fatal(err)
		}
	}
	w.Flush()
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:13]) // mid-record cut
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewMRTReader(bytes.NewReader(data))
		var got []Update
		for {
			ups, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				// Any mid-stream cut must be distinguishable from a
				// clean end; structural garbage gets its own errors.
				return
			}
			got = append(got, ups...)
			if len(got) > 1<<16 {
				t.Fatalf("runaway decode: %d updates from %d bytes", len(got), len(data))
			}
		}
		// Round trip: everything that parsed must re-encode and re-parse
		// identically (writer refuses what it cannot represent).
		var rt bytes.Buffer
		w := NewMRTWriter(&rt)
		for _, u := range got {
			if err := w.Write(u); err != nil {
				return
			}
		}
		w.Flush()
		r2 := NewMRTReader(bytes.NewReader(rt.Bytes()))
		var again []Update
		for {
			ups, err := r2.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("re-parse of re-encoded stream failed: %v", err)
			}
			again = append(again, ups...)
		}
		if len(got) != len(again) {
			t.Fatalf("round trip changed update count: %d -> %d", len(got), len(again))
		}
		for i := range got {
			if got[i].Time != again[i].Time || got[i].Type != again[i].Type ||
				got[i].Prefix != again[i].Prefix || !got[i].ASPath.Equal(again[i].ASPath) {
				t.Fatalf("round trip changed update %d:\n got %+v\nwant %+v", i, again[i], got[i])
			}
		}
	})
}

func FuzzBinaryReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for _, u := range fuzzSeedUpdates() {
		if err := w.Write(u); err != nil {
			f.Fatal(err)
		}
	}
	w.Flush()
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:7]) // mid-record cut
	f.Add([]byte{0xb6, 0x4d})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewBinaryReader(bytes.NewReader(data))
		var got []Update
		for {
			u, err := r.Read()
			if err != nil {
				if err == io.EOF {
					break
				}
				if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, errBadMagic) {
					return
				}
				return // structural error: fine, as long as it didn't panic
			}
			if u.Prefix.Len > 32 {
				t.Fatalf("parsed impossible prefix length %d", u.Prefix.Len)
			}
			got = append(got, u)
		}
		var rt bytes.Buffer
		w := NewBinaryWriter(&rt)
		for _, u := range got {
			if err := w.Write(u); err != nil {
				t.Fatalf("re-encode of parsed update failed: %v", err)
			}
		}
		w.Flush()
		r2 := NewBinaryReader(bytes.NewReader(rt.Bytes()))
		for i := range got {
			u, err := r2.Read()
			if err != nil {
				t.Fatalf("re-parse %d failed: %v", i, err)
			}
			if !reflect.DeepEqual(u, got[i]) {
				t.Fatalf("round trip changed update %d:\n got %+v\nwant %+v", i, u, got[i])
			}
		}
	})
}

// FuzzDecodeBinary holds the slice decoder to the stream reader: for any
// input, Decoder.Decode succeeds exactly when a BinaryReader over the same
// bytes reads one record and then io.EOF, and both return the same Update.
// A second decode by the same Decoder must leave the first one's slices
// as they were: decoded slices never share words.
func FuzzDecodeBinary(f *testing.F) {
	for _, u := range fuzzSeedUpdates() {
		b, err := AppendBinary(nil, u)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(bytes.Clone(b[:len(b)-1]))               // cut inside the record
		f.Add(append(bytes.Clone(b), 0xb6))            // one trailing byte
		f.Add(append([]byte{0xb6, 0x4d, 9}, b[3:]...)) // bad version
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Decoder
		got, err := d.Decode(data)
		r := NewBinaryReader(bytes.NewReader(data))
		want, rerr := r.Read()
		if rerr == nil {
			if _, eof := r.Read(); eof != io.EOF {
				rerr = errors.New("more than one record")
			}
		}
		if (err == nil) != (rerr == nil) {
			t.Fatalf("Decode error %v, BinaryReader error %v", err, rerr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode %+v, BinaryReader %+v", got, want)
		}
		again, _ := d.Decode(data)
		for i := range again.ASPath {
			again.ASPath[i]++
		}
		for i := range again.Communities {
			again.Communities[i]++
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("a second decode wrote into the first one's slices: %+v", got)
		}
	})
}

func FuzzTextReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewTextWriter(&buf)
	for _, u := range fuzzSeedUpdates() {
		if err := w.Write(u); err != nil {
			f.Fatal(err)
		}
	}
	w.Flush()
	f.Add(buf.String())
	f.Add("TIME: 5\nTYPE: ANNOUNCE\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		parse := func(s string) ([]Update, error) {
			r := NewTextReader(bytes.NewReader([]byte(s)))
			var out []Update
			for {
				u, err := r.Read()
				if err == io.EOF {
					return out, nil
				}
				if err != nil {
					return out, err
				}
				out = append(out, u)
			}
		}
		write := func(us []Update) string {
			var b bytes.Buffer
			w := NewTextWriter(&b)
			for _, u := range us {
				if err := w.Write(u); err != nil {
					t.Fatalf("re-encode failed: %v", err)
				}
			}
			w.Flush()
			return b.String()
		}
		got, err := parse(data)
		if err != nil {
			return
		}
		// The text form is not canonical (a withdraw may carry an ASPATH
		// line the writer drops), so compare the first re-encoding with
		// the second: one write→parse cycle must be a fixed point.
		gen1 := write(got)
		got2, err := parse(gen1)
		if err != nil {
			t.Fatalf("re-parse of re-encoded stream failed: %v\nstream:\n%s", err, gen1)
		}
		if gen2 := write(got2); gen1 != gen2 {
			t.Fatalf("write/parse not a fixed point:\ngen1:\n%s\ngen2:\n%s", gen1, gen2)
		}
	})
}

func FuzzParsePath(f *testing.F) {
	f.Add("65000 3356 15169")
	f.Add("")
	f.Add(" 1  2 ")
	f.Add("4294967295")
	f.Add("4294967296") // overflows uint32: must error, not wrap
	f.Fuzz(func(t *testing.T, s string) {
		p, err := parsePath(s)
		if err != nil {
			return
		}
		// Round trip through the canonical rendering.
		q, err := parsePath(p.String())
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", p.String(), err)
		}
		if !p.Equal(q) {
			t.Fatalf("round trip changed path: %v -> %v", p, q)
		}
		// Derived operations must tolerate whatever parsed, including
		// empty paths.
		_ = p.Origin()
		_ = p.Compact()
		_ = p.HasLoop()
		_ = p.Suffix(3356)
	})
}

func FuzzParseCommunity(f *testing.F) {
	f.Add("3356:100")
	f.Add("0:0")
	f.Add("65535:65535")
	f.Add("65536:1") // overflows uint16: must error, not wrap
	f.Add(":")
	f.Add("no-colon")
	f.Fuzz(func(t *testing.T, s string) {
		c, err := parseCommunity(s)
		if err != nil {
			return
		}
		q, err := parseCommunity(c.String())
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", c.String(), err)
		}
		if c != q {
			t.Fatalf("round trip changed community: %v -> %v", c, q)
		}
	})
}

// FuzzRIBDumpReader holds RIBDumpReader, which reads rrrbgp's
// TABLE_DUMP_V2 input, to its contract: no input panics or decodes without
// bound, every update it yields is an announcement of a valid prefix, and
// the RIB those updates build survives WriteRIBDump and a re-read route for
// route.
func FuzzRIBDumpReader(f *testing.F) {
	rib := NewRIB()
	for _, u := range fuzzSeedUpdates() {
		rib.Apply(u)
	}
	rib.Apply(Update{Time: 102, PeerIP: 0x05060708, PeerAS: 64512, Type: Announce,
		Prefix: trie.MakePrefix(0x0a000000, 8), ASPath: Path{64512, 15169}, MED: 3})
	var buf bytes.Buffer
	if err := WriteRIBDump(&buf, rib, 777); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:20]) // cut inside the peer index
	f.Add(buf.Bytes()[:len(buf.Bytes())-3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dr := NewRIBDumpReader(bytes.NewReader(data))
		got := NewRIB()
		n := 0
		for {
			u, err := dr.Read()
			if err != nil {
				break // io.EOF, a cut or structural garbage: fine, without a panic
			}
			if u.Type != Announce || u.Prefix.Len > 32 {
				t.Fatalf("dump yielded %+v", u)
			}
			if n++; n > 1<<16 {
				t.Fatalf("runaway decode: %d updates from %d bytes", n, len(data))
			}
			got.Apply(u)
		}
		var out bytes.Buffer
		if err := WriteRIBDump(&out, got, 777); err != nil {
			return // the writer refuses what it cannot represent
		}
		again := NewRIB()
		dr = NewRIBDumpReader(&out)
		for {
			u, err := dr.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("re-read of the re-written dump failed: %v", err)
			}
			again.Apply(u)
		}
		if !reflect.DeepEqual(again.VPs(), got.VPs()) {
			t.Fatalf("round trip changed the peers: %v -> %v", got.VPs(), again.VPs())
		}
		for _, vp := range got.VPs() {
			if !reflect.DeepEqual(again.Prefixes(vp), got.Prefixes(vp)) {
				t.Fatalf("round trip changed %v's prefixes", vp)
			}
			for _, p := range got.Prefixes(vp) {
				want, _ := got.Route(vp, p)
				have, _ := again.Route(vp, p)
				if !have.ASPath.Equal(want.ASPath) || !have.Communities.Equal(want.Communities) || have.MED != want.MED {
					t.Fatalf("round trip changed %v %v:\n got %+v\nwant %+v", vp, p, have, want)
				}
			}
		}
	})
}
