package feedwire

// Regression tests for the wire framing's failure surface, mirroring the
// BGP codecs' truncation suite: a stream cut exactly at a frame boundary
// is a clean io.EOF, a cut anywhere inside a frame is io.ErrUnexpectedEOF,
// torn (short) reads never corrupt a parse, and any flipped byte is
// detected (checksum or framing) rather than silently decoded.

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"rrr/internal/bgp"
	"rrr/internal/faultfeed"
	"rrr/internal/traceroute"
	"rrr/internal/trie"
	"rrr/internal/wal"
)

// The wire's frames are the log's: wal.FrameReader reads them, with its
// header length and length bound.
const (
	frameHeaderLen = wal.FrameHeaderLen
	maxFrameBytes  = 16 << 20
)

// seedStream renders one of every frame kind, returning the stream, the
// frame end offsets, and the decoded frames a clean parse must produce.
func seedStream(t *testing.T) ([]byte, map[int]bool, []Frame) {
	t.Helper()
	u := bgp.Update{Time: 100, PeerIP: 0x01020304, PeerAS: 65000, Type: bgp.Announce,
		Prefix: trie.MakePrefix(0x0a000000, 8), ASPath: bgp.Path{65000, 3356, 15169},
		Communities: bgp.Communities{bgp.MakeCommunity(3356, 100)}, MED: 7}
	tr := &traceroute.Traceroute{Time: 101, Src: 0x01000001, Dst: 0x04000009,
		Hops: []traceroute.Hop{{IP: 0x02000001, TTL: 1, RTT: 1.2}, {TTL: 2}, {IP: 0x04000009, TTL: 3}}}

	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	boundaries := map[int]bool{0: true}
	mark := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		boundaries[buf.Len()] = true
	}
	mark(fw.writeHello(StreamUpdates, ResumeAll))
	mark(fw.writeHelloAck(100))
	mark(fw.WriteUpdate(u))
	mark(fw.WriteTrace(tr))
	mark(fw.writeWatermark(900))
	mark(fw.writeError("feed detached"))
	mark(fw.writeEOF())

	want := []Frame{
		{Kind: kindHello, Stream: StreamUpdates, Since: ResumeAll},
		{Kind: kindHelloAck, Start: 100},
		{Kind: 1, Update: u},
		{Kind: 2, Trace: tr},
		{Kind: kindWatermark, Watermark: 900},
		{Kind: kindError, Msg: "feed detached"},
		{Kind: kindEOF},
	}
	return buf.Bytes(), boundaries, want
}

func drainFrames(r io.Reader) ([]Frame, error) {
	fr := NewFrameReader(r)
	var out []Frame
	for {
		f, err := fr.Read()
		if err != nil {
			return out, err
		}
		// The reader reuses its payload buffer, but a decoded record's
		// slices are carved from chunks it never writes again and Msg
		// strings are copies, so frames need no deep copy.
		out = append(out, f)
	}
}

func TestFrameReaderTruncationEveryOffset(t *testing.T) {
	stream, boundaries, _ := seedStream(t)
	for cut := 0; cut <= len(stream); cut++ {
		_, err := drainFrames(faultfeed.NewReader(bytes.NewReader(stream), 1, int64(cut)))
		if boundaries[cut] {
			if err != io.EOF {
				t.Fatalf("cut at frame boundary %d: got %v, want clean io.EOF", cut, err)
			}
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut mid-frame at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestFrameReaderSurvivesTornReads(t *testing.T) {
	stream, _, want := seedStream(t)
	fr := faultfeed.NewReader(bytes.NewReader(stream), 99, -1)
	fr.TearProb = 0.8
	fr.MaxTear = 2
	got, err := drainFrames(fr)
	if err != io.EOF {
		t.Fatalf("torn reads broke the frame parse: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d frames under torn reads, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("frame %d decoded as %+v under torn reads, want %+v", i, got[i], want[i])
		}
	}
}

// TestFrameReaderDetectsEveryByteFlip flips each byte of the stream in
// turn and requires the parse to fail: the CRC covers payload damage, and
// length-field damage either trips the plausibility bound or desyncs into
// a checksum/framing error. None of the 256-way single-byte corruptions
// may decode cleanly to EOF.
func TestFrameReaderDetectsEveryByteFlip(t *testing.T) {
	stream, _, _ := seedStream(t)
	for i := range stream {
		mut := bytes.Clone(stream)
		mut[i] ^= 0xFF
		_, err := drainFrames(bytes.NewReader(mut))
		if err == nil || err == io.EOF {
			t.Fatalf("flipped byte %d went undetected (err=%v)", i, err)
		}
	}
}

func TestFrameReaderRejectsImpossibleLength(t *testing.T) {
	// Length field of 0 and of >maxFrameBytes must fail before
	// allocating, as corrupt frames.
	for _, plen := range []uint32{0, maxFrameBytes + 1, 0xFFFFFFFF} {
		hdr := make([]byte, frameHeaderLen)
		hdr[0] = byte(plen >> 24)
		hdr[1] = byte(plen >> 16)
		hdr[2] = byte(plen >> 8)
		hdr[3] = byte(plen)
		_, err := NewFrameReader(bytes.NewReader(hdr)).Read()
		if !errors.Is(err, errCorruptFrame) {
			t.Fatalf("length %d: got %v, want errCorruptFrame", plen, err)
		}
	}
}

// FuzzFrameReader drives the frame decoder with arbitrary bytes: it must
// never panic, never allocate past the frame bound, and always terminate.
func FuzzFrameReader(f *testing.F) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	fw.writeHello(StreamTraces, 42)
	fw.writeWatermark(900)
	fw.writeEOF()
	whole := buf.Bytes()
	f.Add(whole)
	f.Add(whole[:len(whole)-3])
	mut := bytes.Clone(whole)
	mut[9] ^= 0x40
	f.Add(mut)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		for {
			_, err := fr.Read()
			if err != nil {
				break
			}
		}
	})
}
